#!/usr/bin/env python
"""CI smoke for the durable state store.

Three gates, all cheap enough for every CI pass:

1. **Corruption detection** — save a checkpoint, flip one byte in one
   cell blob, and assert ``repro state inspect`` exits non-zero.
2. **Restore parity** — save at half the horizon (while some
   connections have only a crossing pending, their planned end on the
   connection record; the past-horizon renewals ordinary queue
   records, schema v4), restore, run to the full horizon, and assert
   ``metrics_key()`` equality with the uninterrupted run (the store's
   core bit-identity contract).  Run twice: with ``T_int = inf``, and
   with ``T_int = 120 s``, ``N_quad = 40``, whose windowed per-pair
   columns go through the save, ``export_columns``, ``preload`` and the
   resumed run.  Then the same save and load through
   ``repro run --save-state``/``--load-state`` with ``--telemetry-json``
   must export ``state.save`` and ``state.load`` (the run's own
   registry times its state I/O).
3. **Campaign through the CLI** — a 2-day, 2-shard city campaign leaves
   two state directories ``repro state inspect`` verifies; the same
   command again simulates nothing; a truncated blob fails both the
   inspection and the next day's warm start, by file name.

Run from the repository root::

    PYTHONPATH=src python scripts/state_smoke.py
"""

import contextlib
import io
import json
import sys
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

from repro.cli import main as repro
from repro.simulation.scenarios import stationary
from repro.simulation.simulator import CellularSimulator
from repro.state import inspect_state, restore_simulator, save_checkpoint


def check_corruption_detected(config, scratch: Path) -> None:
    sim = CellularSimulator(replace(config, duration=60.0))
    sim.run()
    path = save_checkpoint(sim, scratch / "corrupt-me")
    if inspect_state(path, out=lambda _line: None) != 0:
        raise SystemExit("fresh checkpoint failed inspection")
    blob = path / "cells" / "cell_0003.bin"
    data = bytearray(blob.read_bytes())
    data[len(data) // 2] ^= 0xFF
    blob.write_bytes(bytes(data))
    if inspect_state(path, out=lambda _line: None) == 0:
        raise SystemExit("inspect accepted a corrupted blob")
    print("corruption smoke: one flipped byte detected, non-zero exit")


def check_restore_parity(config, scratch: Path) -> None:
    window = "inf" if config.t_int is None else f"{config.t_int:g}s"
    full = CellularSimulator(config).run()
    half = CellularSimulator(replace(config, duration=config.duration / 2))
    half.run()
    path = save_checkpoint(half, scratch / f"parity-{window}")
    runtime = json.loads((path / "runtime.json").read_text())
    pending = Counter(
        record["kind"] for record in runtime["queue"] if "conn" in record
    )
    if not pending["crossing"] or not pending["lifetime"]:
        raise SystemExit(f"expected both kinds of pending event: {pending}")
    if sum(pending.values()) != len(runtime["connections"]):
        raise SystemExit("a connection has more or less than one event")
    if "suppressed" in runtime:
        raise SystemExit("a past-horizon draw was remembered, not queued")
    lines: list[str] = []
    inspect_state(path, out=lines.append)
    if not any("schema v4" in line for line in lines):
        raise SystemExit(f"inspect did not report schema v4: {lines}")
    resumed = restore_simulator(path, config).run()
    if resumed.metrics_key() != full.metrics_key():
        raise SystemExit("restored run diverged from the straight run")
    print(
        f"parity smoke (T_int={window}, N_quad={config.n_quad}): save @ "
        f"{config.duration / 2:g}s -> load -> run to {config.duration:g}s"
        " is bit-identical"
        f" (P_CB={full.blocking_probability:.4f},"
        f" {full.events_processed} events;"
        f" {pending['crossing']} connections saved with only a crossing"
        f" pending, {pending['lifetime']} with only their end)"
    )


def _cli(*argv: str) -> tuple[int, str]:
    """Run ``repro <argv>`` in-process: ``(exit code, stdout + stderr)``."""
    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        with contextlib.redirect_stderr(output):
            code = repro(list(argv))
    return code, output.getvalue()


def check_cli_state_telemetry(scratch: Path) -> None:
    """``--telemetry-json`` of a save and of a load exports its timer."""
    run = ["run", "--load", "150", "--rvo", "0.8", "--seed", "7"]
    state = scratch / "cli-state"
    for timer, flags in (
        ("state.save", ["--duration", "120", "--save-state", str(state)]),
        ("state.load", ["--duration", "240", "--load-state", str(state)]),
    ):
        exported = scratch / f"{timer}.json"
        code, output = _cli(*run, *flags, "--telemetry-json", str(exported))
        if code != 0:
            raise SystemExit(f"repro run {' '.join(flags)} failed:\n{output}")
        timers = json.loads(exported.read_text())["timers"]
        if timers.get(timer, {}).get("count") != 1:
            raise SystemExit(f"--telemetry-json exported no {timer}: {timers}")
    print(
        "state telemetry smoke: repro run --save-state / --load-state"
        " export state.save / state.load"
    )


def check_spatial_campaign(scratch: Path) -> None:
    state_dir = scratch / "city"
    command = [
        "campaign", "--hex", "6x6", "--shards", "2",
        "--load", "150", "--day-seconds", "40", "--seed", "7",
        "--state-dir", str(state_dir),
    ]  # fmt: skip
    code, output = _cli(*command, "--days", "2")
    if code != 0:
        raise SystemExit(f"spatial campaign failed:\n{output}")
    days = [state_dir / "day_000", state_dir / "day_001"]
    for day in days:
        code, output = _cli("state", "inspect", str(day))
        if code != 0 or "Integrity: OK" not in output:
            raise SystemExit(f"inspect rejected {day}:\n{output}")
    report = (state_dir / "campaign.jsonl").read_text()
    manifests = [(day / "manifest.json").read_bytes() for day in days]
    code, output = _cli(*command, "--days", "2")
    if code != 0:
        raise SystemExit(f"re-invoked campaign failed:\n{output}")
    if (state_dir / "campaign.jsonl").read_text() != report or manifests != [
        (day / "manifest.json").read_bytes() for day in days
    ]:
        raise SystemExit("re-invoked campaign re-ran a completed day")
    blob = sorted((days[1] / "cells").iterdir())[0]
    blob.write_bytes(blob.read_bytes()[:-8])
    code, output = _cli("state", "inspect", str(days[1]))
    if code == 0 or blob.name not in output:
        raise SystemExit(f"inspect accepted a truncated blob:\n{output}")
    code, output = _cli(*command, "--days", "3")
    if code == 0 or blob.name not in output:
        raise SystemExit(f"day 3 accepted a truncated blob:\n{output}")
    events = sum(
        json.loads(line)["events_processed"] for line in report.splitlines()
    )
    print(
        "campaign smoke: 2 sharded days verified and reused"
        f" ({events} events); truncated {blob.name} refused by inspect"
        " and by the next day's warm start"
    )


def main() -> None:
    config = stationary(
        "AC3", offered_load=150.0, voice_ratio=0.8, duration=240.0, seed=7
    )
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        check_corruption_detected(config, scratch)
        check_restore_parity(config, scratch)
        check_restore_parity(replace(config, t_int=120.0, n_quad=40), scratch)
        check_cli_state_telemetry(scratch)
        check_spatial_campaign(scratch)
    print("state smoke OK")


if __name__ == "__main__":
    sys.exit(main())
