"""Determinism proofs for checkpoint save/restore.

The contract under test: restore → run produces the *same*
``metrics_key()`` as the equivalent uninterrupted run — bit-identical
counters, traces, and event totals, whether the checkpoint was written
at the end of a run, mid-run by the heartbeat, or loaded by a brand-new
process (the subprocess test).
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.simulation.scenarios import stationary
from repro.simulation.simulator import CellularSimulator
from repro.state.checkpoint import capture_state
from repro.state.format import (
    MANIFEST_NAME,
    RUNTIME_NAME,
    StateSchemaError,
    load_manifest,
    publish_state_dir,
)
from repro.state import (
    Checkpointer,
    CheckpointError,
    StateFormatError,
    inspect_state,
    restore_simulator,
    save_checkpoint,
)
from repro.wired import (
    WiredBackboneExtension,
    WiredReservationManager,
    chain_backbone,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


def base_config(**overrides):
    defaults = dict(
        offered_load=150.0, voice_ratio=0.8, duration=300.0, seed=7
    )
    defaults.update(overrides)
    return stationary("AC3", **defaults)


def split_run_parity(config, split):
    """Uninterrupted vs save-at-``split``/restore; returns both keys."""
    full = CellularSimulator(config).run()
    first = CellularSimulator(replace(config, duration=split))
    first.run()
    return full, first


class TestSplitRunParity:
    def test_restore_continues_bit_identically(self, tmp_path):
        config = base_config()
        full, first = split_run_parity(config, split=150.0)
        path = save_checkpoint(first, tmp_path / "ckpt")
        resumed = restore_simulator(path, config).run()
        assert resumed.metrics_key() == full.metrics_key()

    def test_restore_with_finite_t_int(self, tmp_path):
        config = base_config(seed=11, t_int=120.0)
        full, first = split_run_parity(config, split=150.0)
        path = save_checkpoint(first, tmp_path / "ckpt")
        resumed = restore_simulator(path, config).run()
        assert resumed.metrics_key() == full.metrics_key()

    def test_double_restore(self, tmp_path):
        # save -> load -> save -> load still matches the straight run.
        config = base_config(seed=3)
        full, first = split_run_parity(config, split=100.0)
        first_path = save_checkpoint(first, tmp_path / "first")
        middle = restore_simulator(first_path, replace(config, duration=200.0))
        middle.run()
        middle_path = save_checkpoint(middle, tmp_path / "middle")
        resumed = restore_simulator(middle_path, config).run()
        assert resumed.metrics_key() == full.metrics_key()


class TestStateTelemetry:
    """``state.*`` lands in the registry of the run it times."""

    def test_a_restored_run_reports_its_load(self, tmp_path):
        config = base_config(duration=100.0)
        first = CellularSimulator(config)
        first.run()
        path = save_checkpoint(first, tmp_path / "ckpt")
        resumed = restore_simulator(
            path, replace(config, duration=200.0, telemetry=True)
        ).run()
        assert resumed.telemetry["timers"]["state.load"]["count"] == 1
        counters = resumed.telemetry["counters"]
        assert counters['state.checkpoints{op="load"}'] == 1

    def test_a_save_state_run_exports_its_save(self, tmp_path, capsys):
        exported = tmp_path / "telemetry.json"
        argv = [
            "run", "--load", "150", "--duration", "100", "--seed", "7",
            "--save-state", str(tmp_path / "ckpt"),
            "--telemetry-json", str(exported),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        snapshot = json.loads(exported.read_text())
        assert snapshot["timers"]["state.save"]["count"] == 1
        assert snapshot["counters"]['state.checkpoints{op="save"}'] == 1


class TestOneEventPerConnection:
    def test_connection_record_carries_the_planned_end(self, tmp_path):
        # Taken while some connections have only a crossing pending: the
        # end those will need after their hop is on their record.
        config = base_config()
        full, first = split_run_parity(config, split=150.0)
        runtime = json.loads(capture_state(first)[RUNTIME_NAME])
        kinds = {
            record["conn"]: record["kind"]
            for record in runtime["queue"]
            if "conn" in record
        }
        assert sorted(kinds) == sorted(first.active_connections)
        assert set(kinds.values()) == {"lifetime", "crossing"}
        for record in runtime["connections"]:
            assert record["end"] > 150.0
        assert "engine_counters" not in runtime
        path = save_checkpoint(first, tmp_path / "ckpt")
        resumed = restore_simulator(path, config)
        assert resumed.engine.pending == len(runtime["queue"])
        assert resumed.run().metrics_key() == full.metrics_key()

    def test_a_past_horizon_renewal_is_an_ordinary_record(self):
        """After ``run()`` to ``D`` every cell's next Poisson renewal and
        the next monitor sample sit in the queue, later than ``D`` —
        nothing is remembered beside it."""
        first = CellularSimulator(base_config(duration=150.0))
        first.run()
        runtime = json.loads(capture_state(first)[RUNTIME_NAME])
        assert "suppressed" not in runtime
        renewals = [r for r in runtime["queue"] if r["kind"] == "arrival"]
        assert sorted(r["cell"] for r in renewals) == list(
            range(first.topology.num_cells)
        )
        samples = [r for r in runtime["queue"] if r["kind"] == "sample"]
        assert len(samples) == 1
        assert all(r["time"] > 150.0 for r in renewals + samples)
        assert first.engine.pending == len(runtime["queue"])


def _comparable(files: dict) -> tuple:
    """A capture minus what a restore legitimately renews: the queue's
    stamps (only their order is kept) and the ``finished`` flag."""
    runtime = json.loads(files[RUNTIME_NAME])
    del runtime["finished"]
    for rank, record in enumerate(runtime["queue"]):
        record["seq"] = rank
    blobs = {
        name: data for name, data in files.items() if name.startswith("cells/")
    }
    return runtime, blobs


class TestFieldTable:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            dict(
                adaptive_qos=True,
                t_int=120.0,
                retry_enabled=True,
                tracked_cells=(0, 4),
                hourly_stats=True,
                soft_handoff_window=5.0,
            ),
        ],
        ids=["ac3", "every-record-kind"],
    )
    def test_a_restore_captures_back_to_the_record_it_came_from(
        self, tmp_path, overrides
    ):
        """Every field the table persists is also written back: a
        restored simulator captures to the state it was restored from."""
        config = base_config(offered_load=250.0, **overrides)
        first = CellularSimulator(replace(config, duration=150.0))
        first.run()
        saved = capture_state(first)
        path = save_checkpoint(first, tmp_path / "ckpt")
        restored = restore_simulator(path, config)
        assert _comparable(capture_state(restored)) == _comparable(saved)
        if overrides:
            runtime = json.loads(saved[RUNTIME_NAME])
            kinds = {record["kind"] for record in runtime["queue"]}
            assert kinds == {
                "arrival", "retry", "lifetime", "crossing", "sample"
            }
            assert runtime["policy"]["degradations"] > 0
            metrics = runtime["metrics"]
            assert metrics["hourly"] and metrics["traces"]


class _SaveBetweenDetachAndTick:
    """Heartbeat hook: checkpoint once, right after an event detached a
    connection from a cell that keeps reservation buckets — before any
    tick reads them again."""

    def __init__(self, simulator, directory):
        self.simulator = simulator
        self.directory = directory
        self.path = None
        self.rows = None

    def beat(self) -> None:
        if self.path is not None:
            return
        rows = sum(
            len(bucket)
            for cell in self.simulator.network.cells
            if cell._buckets is not None
            for bucket in cell._buckets.values()
        )
        if self.rows is not None and rows < self.rows:
            self.path = save_checkpoint(self.simulator, self.directory)
        self.rows = rows


class TestDerivedReservationState:
    def test_checkpoint_between_a_detach_and_the_next_tick(self, tmp_path):
        """The reservation buckets are derived state: the restore
        serialises none of them (no buckets until the next tick reads
        them) and the run continues to the same metrics."""
        config = base_config(offered_load=200.0, duration=400.0, seed=3)
        full = CellularSimulator(config).run()
        watched = CellularSimulator(config)
        watched.checkpointer = _SaveBetweenDetachAndTick(
            watched, tmp_path / "ckpt"
        )
        watched.run()
        assert watched.checkpointer.path is not None
        restored = restore_simulator(watched.checkpointer.path, config)
        for station in restored.network.stations:
            cell = station.cell
            assert cell._buckets is None
        assert restored.run().metrics_key() == full.metrics_key()


class TestMidRunCheckpointer:
    def test_heartbeat_checkpoint_restores_to_same_metrics(self, tmp_path):
        config = base_config(offered_load=200.0, duration=400.0, seed=3)
        full = CellularSimulator(config).run()
        watched = CellularSimulator(config)
        checkpointer = Checkpointer(
            watched, tmp_path / "ckpts", every=100.0, keep=2
        )
        watched.checkpointer = checkpointer
        watched.run()
        assert checkpointer.latest is not None
        assert len(list((tmp_path / "ckpts").iterdir())) <= 2  # pruned
        resumed = restore_simulator(checkpointer.latest, config).run()
        assert resumed.metrics_key() == full.metrics_key()

    def test_sampler_progress_and_checkpointer_share_one_observer(
        self, tmp_path, capsys
    ):
        """The engine has one hook; the simulator composes all three
        consumers into it, and none of them moves the run."""
        bare = base_config(offered_load=200.0, duration=400.0, seed=3)
        full = CellularSimulator(bare).run()
        config = replace(bare, series_interval=50.0, progress_interval=1e-6)
        watched = CellularSimulator(config)
        checkpointer = Checkpointer(
            watched, tmp_path / "ckpts", every=100.0, keep=8
        )
        watched.checkpointer = checkpointer
        result = watched.run()
        assert result.events_processed == full.events_processed
        assert result.metrics_key() == full.metrics_key()
        assert watched.sampler.total_samples >= 8
        assert capsys.readouterr().err.count("events/s") > 2
        assert len(checkpointer.written) >= 3
        # Taken mid-run from the composed hook, with the sampler's rows
        # aboard: still resumes to the uninterrupted run.
        early = checkpointer.written[0]
        assert load_manifest(early)["clock"] < 200.0
        resumed = restore_simulator(early, config).run()
        assert resumed.metrics_key() == full.metrics_key()


class TestGuards:
    def test_extensions_are_not_checkpointable(self, tmp_path):
        config = base_config(duration=50.0)
        manager = WiredReservationManager(
            chain_backbone(10, access_capacity=1e6, trunk_capacity=1e6)
        )
        sim = CellularSimulator(
            config, backbone=WiredBackboneExtension(manager)
        )
        sim.run()
        with pytest.raises(CheckpointError):
            save_checkpoint(sim, tmp_path / "ckpt")

    @pytest.mark.parametrize("bound", [False, True], ids=["function", "method"])
    def test_a_foreign_pending_event_is_refused_by_name(self, tmp_path, bound):
        """Capture names each queued event by the simulator's handler
        function; anything else — a stray hook, or even a bound method
        of the simulator — is refused with the callback in the message."""
        sim = CellularSimulator(base_config(duration=50.0))
        sim.run()

        def stray_hook():
            pass

        callback = sim._on_sample if bound else stray_hook
        sim.engine.call_at(60.0, callback)
        name = "_on_sample" if bound else "stray_hook"
        with pytest.raises(
            CheckpointError, match=f"cannot serialize foreign pending event .*{name}"
        ):
            save_checkpoint(sim, tmp_path / "ckpt")

    def test_every_handler_has_a_record_kind(self):
        from repro.state.checkpoint import _QUEUED

        assert set(_QUEUED) == set(CellularSimulator.HANDLERS)

    def test_config_fingerprint_mismatch(self, tmp_path):
        config = base_config(duration=50.0)
        sim = CellularSimulator(config)
        sim.run()
        path = save_checkpoint(sim, tmp_path / "ckpt")
        other = replace(config, offered_load=160.0, duration=100.0)
        with pytest.raises(StateFormatError, match="offered_load"):
            restore_simulator(path, other)

    def test_schema_1_directory_is_refused(self, tmp_path):
        """One layout: a directory stamped with an earlier schema (1,
        2 with its ``engine_counters``, or 3 with its cells' mirror
        ``rebuilds``) is turned away by the gate, whatever its
        contents."""
        sim = CellularSimulator(base_config(duration=50.0))
        sim.run()
        files = capture_state(sim)
        manifest = json.loads(files[MANIFEST_NAME])
        assert manifest["schema_version"] == 4
        for earlier in (1, 2, 3):
            manifest["schema_version"] = earlier
            path = publish_state_dir(
                tmp_path / f"schema-{earlier}",
                {**files, MANIFEST_NAME: json.dumps(manifest).encode("utf-8")},
            )
            with pytest.raises(
                StateSchemaError, match=f"v{earlier} .*supports v4"
            ):
                load_manifest(path)
            with pytest.raises(StateSchemaError):
                restore_simulator(path, base_config(duration=50.0))

    def test_duration_before_clock_rejected(self, tmp_path):
        config = base_config(duration=50.0)
        sim = CellularSimulator(config)
        sim.run()
        path = save_checkpoint(sim, tmp_path / "ckpt")
        with pytest.raises(StateFormatError):
            restore_simulator(path, replace(config, duration=25.0))

    def test_duration_and_label_are_exempt(self, tmp_path):
        config = base_config(duration=50.0)
        sim = CellularSimulator(config)
        sim.run()
        path = save_checkpoint(sim, tmp_path / "ckpt")
        longer = replace(config, duration=80.0, label="another name")
        assert restore_simulator(path, longer).run().duration == 80.0


class TestInspect:
    def test_inspect_ok_then_corrupt(self, tmp_path):
        config = base_config(duration=50.0)
        sim = CellularSimulator(config)
        sim.run()
        path = save_checkpoint(sim, tmp_path / "ckpt")
        lines = []
        assert inspect_state(path, out=lines.append) == 0
        assert any("Integrity: OK" in line for line in lines)
        blob = path / "cells" / "cell_0004.bin"
        data = bytearray(blob.read_bytes())
        data[len(data) // 2] ^= 0xFF
        blob.write_bytes(bytes(data))
        lines.clear()
        assert inspect_state(path, out=lines.append) == 1
        assert any("FAIL" in line for line in lines)


class TestNewProcessRestore:
    def test_cli_round_trip_across_processes(self, tmp_path):
        # The true restart story: save in this process, restore via the
        # CLI in a brand-new interpreter, and match the straight run.
        def cli(*arguments):
            return subprocess.run(
                [sys.executable, "-m", "repro", "run",
                 "--load", "150", "--rvo", "0.8", "--seed", "7",
                 *arguments],
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            ).stdout

        full = cli("--duration", "240")
        ckpt = tmp_path / "ckpt"
        half = cli("--duration", "120", "--save-state", str(ckpt))
        assert f"state saved: {ckpt}" in half
        resumed = cli("--duration", "240", "--load-state", str(ckpt))
        assert resumed == full
