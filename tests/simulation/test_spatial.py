"""Spatial sharding: shard-count invariance, hosts, campaigns."""

import multiprocessing
import os
import time

import pytest

from repro.cellular.topology import HexTopology
from repro.simulation.scenarios import hex_city
from repro.simulation.simulator import CellularSimulator
from repro.simulation.spatial import ShardEngine, partition_hex, run_spatial
from repro.state import StateCorruptionError, run_campaign
from repro.traffic.profiles import paper_load_profile


def _city(scheme="AC3", **overrides):
    options = {
        "rows": 6,
        "cols": 6,
        "offered_load": 150.0,
        "voice_ratio": 0.8,
        "duration": 60.0,
        "seed": 11,
    }
    options.update(overrides)
    return hex_city(scheme, **options)


class TestOneSubstrate:
    """Both engines build what a config describes through the same
    functions, so they cannot drift apart on it."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"hotspots": ((2, 3, 4.0, 2),)},
            {"t_int": 120.0, "n_quad": 40, "handoff_overload": 1.2},
            {"load_profile": paper_load_profile(), "hotspots": ((1, 1, 3.0),)},
        ],
        ids=["uniform", "hot-spot", "finite-t-int", "load-profile"],
    )
    def test_sequential_and_sharded_engines_agree(self, overrides):
        config = _city(capacity=80.0, t_start=2.0, **overrides)
        plan = partition_hex(HexTopology(6, 6), 2)
        sequential = CellularSimulator(config)
        sharded = ShardEngine(config, plan, 0, 1.0)

        def rate(process, at=3600.0):
            if hasattr(process, "rate"):
                return process.rate
            return process.rate_at(at)

        for cell_id in plan.cells[0]:
            ours = sequential.network.station(cell_id)
            theirs = sharded.network.station(cell_id)
            assert ours.cell.capacity == theirs.cell.capacity == 80.0
            assert ours.cell.handoff_capacity == theirs.cell.handoff_capacity
            assert ours.estimator.cache.config == theirs.estimator.cache.config
            assert ours.window.config == theirs.window.config
            assert rate(sequential._cell_arrivals[cell_id]) == rate(
                sharded._arrivals[cell_id]
            )
        assert (sequential.retry, sequential.metrics.warmup) == (
            sharded.retry,
            sharded.metrics.warmup,
        )
        if "hotspots" in overrides:
            rates = {rate(sharded._arrivals[cell]) for cell in plan.cells[0]}
            assert len(rates) > 1


class TestShardInvariance:
    def test_ac3_metrics_identical_for_1_2_4_shards(self):
        # The resident walk (T_int = ∞), then a finite T_int, which keeps
        # every supplier with connections on the snapshot walk over the
        # columnar cells' row handles.
        finite = {"t_int": 30.0, "n_quad": 40, "offered_load": 700.0}
        for overrides in ({}, finite):
            keys = []
            for shards in (1, 2, 4):
                result = run_spatial(
                    _city(telemetry=True, **overrides),
                    shards,
                    processes=False,
                )
                keys.append(result.metrics_key())
                fallback = result.telemetry["counters"][
                    'cellular.tick_suppliers{path="fallback"}'
                ]
                assert (fallback > 0) == (overrides is finite)
            assert keys[0] == keys[1] == keys[2]

    def test_run_exercises_handoffs_and_blocking(self):
        result = run_spatial(
            _city(offered_load=700.0), 2, processes=False
        )
        assert sum(cell.handoff_attempts for cell in result.cells) > 0
        assert result.blocking_probability > 0.0
        assert result.events_processed > 0

    def test_static_scheme_identical_across_shards(self):
        config = _city("static", offered_load=700.0, static_guard=8.0)
        one = run_spatial(config, 1, processes=False)
        three = run_spatial(config, 3, processes=False)
        assert one.metrics_key() == three.metrics_key()
        assert one.scheme == "static"

    def test_process_hosts_match_inline_hosts(self):
        config = _city(duration=40.0)
        inline = run_spatial(config, 2, processes=False)
        forked = run_spatial(config, 2, processes=True)
        assert inline.metrics_key() == forked.metrics_key()

    def test_shards_report_estimation_and_window_telemetry(self):
        # The shards do the Eq. 4/5 and T_est work; their harvest must
        # say so (it used to emit none of these names).  It is the ring's
        # harvest too, so the admission outcomes ride along and add up
        # to the merged result.
        result = run_spatial(
            _city(offered_load=700.0, duration=40.0, telemetry=True),
            2,
            processes=False,
        )
        snapshot = result.telemetry
        counters = snapshot["counters"]

        def total(name):
            return sum(
                value
                for key, value in counters.items()
                if key == name or key.startswith(name + "{")
            )

        assert total("estimation.eq4_rows") > 0
        assert total("estimation.eq4_batches") > 0
        assert total("estimation.snapshot") > 0
        assert total("window.t_est_steps") > 0
        assert total("cellular.tick_flushes") > 0
        # Every shard supplier takes the resident walk, which reads
        # only a share of its rows: the windows.
        resident = counters['estimation.eq4_rows{path="resident"}']
        assert resident > 0
        assert counters['estimation.eq4_rows{path="walk"}'] == 0
        assert 0 < counters["estimation.eq4_window_rows"] < resident
        requests = sum(cell.new_requests for cell in result.cells)
        attempts = sum(cell.handoff_attempts for cell in result.cells)
        assert requests > 0 and attempts > 0
        admissions = "cellular.admissions"
        assert (
            total(f'{admissions}{{kind="new",outcome="accepted"}}')
            + total(f'{admissions}{{kind="new",outcome="blocked"}}')
        ) == requests
        assert (
            total(f'{admissions}{{kind="handoff",outcome="accepted"}}')
            + total(f'{admissions}{{kind="handoff",outcome="dropped"}}')
        ) == attempts
        assert total("cellular.admission_tests") == result.total_admission_tests
        assert total("simulation.runs") == 2
        assert "des.heap_len" in snapshot["gauges"]

    def test_shard_events_cover_total_but_stay_out_of_the_key(self):
        result = run_spatial(_city(duration=40.0), 2, processes=False)
        assert result.shard_events is not None
        assert len(result.shard_events) == 2
        assert sum(result.shard_events) <= result.events_processed
        assert "shard_events" not in result.metrics_key()


class TestPlanInvariance:
    """Merged metrics are identical for every cut and shard count: the
    barrier protocol is generic over the ownership map, so a column cut
    (vertical, and across the wrap seam) merges like the row bands."""

    def _tall_city(self, **overrides):
        return _city(rows=8, cols=6, duration=40.0, **overrides)

    @pytest.mark.parametrize(
        "cut, shard_counts", [("load", (2, 4, 8)), ("cols", (2, 3, 6))],
        ids=["load", "cols"],
    )
    def test_uniform_city_invariant_up_to_8_shards(
        self, cut, shard_counts, column_cut
    ):
        reference = run_spatial(self._tall_city(), 1, processes=False)
        if cut == "cols":
            column_cut()
        for shards in shard_counts:
            result = run_spatial(self._tall_city(), shards, processes=False)
            assert result.metrics_key() == reference.metrics_key(), (
                f"cut={cut} shards={shards} diverged"
            )

    @pytest.mark.parametrize("cut", ["load", "cols"])
    def test_hotspot_city_invariant_across_kinds(self, cut, column_cut):
        hotspots = ((2, 2, 3.0), (6, 4, 2.0, 1.5))
        reference = run_spatial(
            self._tall_city(hotspots=hotspots), 1, processes=False
        )
        if cut == "cols":
            column_cut()
        result = run_spatial(
            self._tall_city(hotspots=hotspots), 4, processes=False
        )
        assert result.metrics_key() == reference.metrics_key()

    def test_weighted_arrivals_shift_load_toward_hotspots(self):
        hotspots = ((2, 2, 6.0, 1.5),)
        result = run_spatial(
            self._tall_city(hotspots=hotspots), 1, processes=False
        )
        from repro.cellular.topology import HexTopology

        topology = HexTopology(8, 6, wrap=True)
        hot_cell = topology.cell_id(2, 2)
        hot = result.cells[hot_cell].new_requests
        far_cell = topology.cell_id(6, 5)
        far = result.cells[far_cell].new_requests
        assert hot > far


class TestValidation:
    def test_rejects_adaptive_qos(self):
        config = _city(adaptive_qos=True)
        with pytest.raises(ValueError, match="adaptive"):
            run_spatial(config, 2, processes=False)

    def test_rejects_non_hex_config(self):
        from repro.simulation.scenarios import stationary

        with pytest.raises(ValueError, match="hex"):
            run_spatial(
                stationary("AC3", offered_load=150.0), 2, processes=False
            )

    def test_rejects_epoch_beyond_min_notice(self):
        with pytest.raises(ValueError, match="epoch"):
            run_spatial(_city(), 2, processes=False, epoch=2.0)

    def test_rejects_more_shards_than_rows(self):
        with pytest.raises(ValueError, match="bands"):
            run_spatial(_city(), 7, processes=False)


class TestDeadWorker:
    def test_a_worker_killed_mid_epoch_is_a_prompt_named_error(
        self, monkeypatch
    ):
        plain = ShardEngine.run_epoch

        def run_epoch(self, k, replies):
            if self.index == 1 and k == 2:
                os._exit(9)
            return plain(self, k, replies)

        # Forked workers inherit the patch.
        monkeypatch.setattr(ShardEngine, "run_epoch", run_epoch)
        started = time.perf_counter()
        with pytest.raises(
            RuntimeError,
            match=r"shard 1 worker died during 'epoch' \(exit code 9\)",
        ):
            run_spatial(_city(), 2, processes=True)
        assert time.perf_counter() - started < 5.0
        assert multiprocessing.active_children() == []

    def test_a_worker_error_keeps_its_type(self, monkeypatch):
        """A process shard raises what an in-process shard would (the
        CLI turns a ``ValueError`` into exit 2), caused by the remote
        traceback; an error that cannot pickle arrives by name."""

        class Unpicklable(Exception):
            pass

        plain = ShardEngine.run_epoch
        raised = {1: ValueError("shard-side refusal"), 0: Unpicklable("x")}

        def run_epoch(self, k, replies):
            if k == 2 and self.index in raised:
                raise raised[self.index]
            return plain(self, k, replies)

        monkeypatch.setattr(ShardEngine, "run_epoch", run_epoch)
        with pytest.raises(RuntimeError, match="Unpicklable: x") as caught:
            run_spatial(_city(), 2, processes=True)
        assert "in shard 0 worker during 'epoch'" in str(caught.value.__cause__)
        del raised[0]
        with pytest.raises(ValueError, match="shard-side refusal") as caught:
            run_spatial(_city(), 2, processes=True)
        assert "Traceback" in str(caught.value.__cause__)
        assert multiprocessing.active_children() == []


class TestCampaign:
    def _run(self, tmp_path, shards, name, days=2):
        return run_campaign(
            _city(day_seconds=40.0), days, tmp_path / name, shards=shards
        )

    def test_two_day_campaign_is_shard_invariant(self, tmp_path):
        one = self._run(tmp_path, 1, "one")
        two = self._run(tmp_path, 2, "two")
        for day_one, day_two in zip(one, two):
            assert day_one.seed == day_two.seed
            assert day_one.p_cb == day_two.p_cb
            assert day_one.p_hd == day_two.p_hd
            assert day_one.mean_t_est == day_two.mean_t_est
            assert day_one.events_processed == day_two.events_processed
            assert day_one.quadruplets == day_two.quadruplets

    def test_day_two_warm_starts_from_day_one(self, tmp_path):
        reports = self._run(tmp_path, 2, "warm")
        assert len(reports) == 2
        # Day 2 starts from day 1's history, so its checkpoint can only
        # deepen the quadruplet pool (capped runs could plateau, never
        # restart from zero).
        assert reports[1].quadruplets >= reports[0].quadruplets > 0
        assert (tmp_path / "warm" / "day_001" / "manifest.json").is_file()

    def test_corrupt_blob_fails_the_next_day_by_name(
        self, tmp_path, flip_a_byte
    ):
        self._run(tmp_path, 2, "corrupt", days=1)
        cells = tmp_path / "corrupt" / "day_000" / "cells"
        victim = sorted(cells.iterdir())[0]
        flip_a_byte(victim)
        with pytest.raises(StateCorruptionError, match=victim.name):
            self._run(tmp_path, 2, "corrupt", days=2)
