"""Sharded replication runner: determinism, merging, warm-start files."""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.des.random import RandomStreams
from repro.simulation import replication
from repro.simulation.replication import (
    ReplicatedResult,
    replication_configs,
    replication_seeds,
    run_replicated,
)
from repro.simulation.runner import SweepWorkerError, run_sweep
from repro.simulation.scenarios import stationary
from repro.simulation.simulator import CellularSimulator
from repro.state import (
    CheckpointWarmStart,
    StateCorruptionError,
    save_checkpoint,
)


def _config(**overrides):
    defaults = dict(duration=180.0, warmup=20.0, seed=11)
    defaults.update(overrides)
    return stationary("AC3", offered_load=180.0, **defaults)


class TestReplicationConfigs:
    def test_splits_measured_interval(self):
        shards = replication_configs(_config(), 4)
        assert len(shards) == 4
        for shard in shards:
            assert shard.duration == pytest.approx(20.0 + 160.0 / 4)
            assert shard.warmup == 20.0

    def test_seeds_are_spawn_children(self):
        config = _config()
        shards = replication_configs(config, 3)
        expected = [
            RandomStreams(config.seed).spawn(index).seed
            for index in range(3)
        ]
        assert [shard.seed for shard in shards] == expected
        assert replication_seeds(config, 3) == expected

    def test_seeds_distinct_and_deterministic(self):
        config = _config()
        first = replication_seeds(config, 8)
        assert len(set(first)) == 8
        assert config.seed not in first
        assert replication_seeds(config, 8) == first

    def test_labels_carry_shard_index(self):
        shards = replication_configs(_config(), 2)
        assert shards[0].label.endswith("[rep0]")
        assert shards[1].label.endswith("[rep1]")

    def test_zero_replications_rejected(self):
        with pytest.raises(ValueError):
            replication_configs(_config(), 0)


@pytest.fixture
def dispatched(monkeypatch):
    """The shard configs ``run_replicated`` hands to ``run_sweep``."""
    seen = []
    run_sweep_ = replication.run_sweep

    def spy(configs, **kwargs):
        seen.extend(configs)
        return run_sweep_(configs, **kwargs)

    monkeypatch.setattr(replication, "run_sweep", spy)
    return seen


class TestRunReplicated:
    def test_merged_key_independent_of_worker_count(self):
        config = _config()
        sequential = run_replicated(config, replications=4, workers=None)
        two = run_replicated(config, replications=4, workers=2)
        three = run_replicated(config, replications=4, workers=3)
        assert sequential.metrics_key() == two.metrics_key()
        assert sequential.metrics_key() == three.metrics_key()

    def test_pooled_counts_and_cis(self):
        replicated = run_replicated(_config(), replications=4, workers=None)
        assert isinstance(replicated, ReplicatedResult)
        assert replicated.replications == 4
        assert replicated.blocking.trials == sum(
            cell.new_requests
            for result in replicated.results
            for cell in result.cells
        )
        assert replicated.blocking_ci.batches == 4
        assert replicated.blocking_ci.low <= replicated.blocking_ci.mean
        assert replicated.events_processed == sum(
            result.events_processed for result in replicated.results
        )

    def test_warm_prior_is_a_real_input(self, dispatched):
        config = _config()
        warmed = run_replicated(config, replications=2, workers=None)
        assert len(dispatched) == 2
        for shard in dispatched:
            assert isinstance(shard.warm_state, CheckpointWarmStart)
            assert shard.warm_state.rebase_seconds == config.warmup
        cold = [
            CellularSimulator(replace(shard, warm_state=None)).run()
            for shard in dispatched
        ]
        # The shared warm prior is a real input: the shards see it.
        assert [result.metrics_key() for result in warmed.results] != [
            result.metrics_key() for result in cold
        ]

    def test_no_warmup_means_no_warm_state(self, dispatched):
        run_replicated(
            _config(duration=60.0, warmup=0.0), replications=2, workers=None
        )
        assert [shard.warm_state for shard in dispatched] == [None, None]

    def test_merged_telemetry_rides_along(self):
        replicated = run_replicated(
            _config(telemetry=True), replications=2, workers=2
        )
        snapshot = replicated.telemetry
        assert snapshot is not None
        assert snapshot["counters"]["des.events_fired"] == (
            replicated.events_processed
        )
        assert "+" in snapshot["run_id"]


def _digest(key) -> str:
    return hashlib.sha256(
        json.dumps(key, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


#: ``metrics_key()`` digests of the commit before the shared-memory
#: store was replaced by checkpoint files (365c704, measured on a clone):
#: the merge must not bend a number.
_PARENT_DIGESTS = {None: "70f19327502c4f2f", 60.0: "97c9c9ef933abfdd"}


@pytest.mark.parametrize("t_int", [None, 60.0])
def test_merged_key_equals_the_shared_memory_parent(t_int):
    config = stationary(
        "AC3",
        offered_load=200.0,
        voice_ratio=0.8,
        high_mobility=True,
        duration=600.0,
        warmup=200.0,
        seed=3,
        t_int=t_int,
    )
    sequential = run_replicated(config, replications=4, workers=None)
    pooled = run_replicated(config, replications=4, workers=2)
    assert sequential.metrics_key() == pooled.metrics_key()
    assert _digest(sequential.metrics_key()) == _PARENT_DIGESTS[t_int]


class TestWarmFiles:
    @pytest.fixture
    def scratch_dirs(self, monkeypatch):
        """Every temporary directory ``run_replicated`` creates."""
        created = []
        real = replication.tempfile.TemporaryDirectory

        def recording(*args, **kwargs):
            scratch = real(*args, **kwargs)
            created.append(Path(scratch.name))
            return scratch

        monkeypatch.setattr(
            replication.tempfile, "TemporaryDirectory", recording
        )
        return created

    def test_temp_directory_is_gone_after_a_normal_return(self, scratch_dirs):
        run_replicated(_config(), replications=2, workers=2)
        assert len(scratch_dirs) == 1
        assert not scratch_dirs[0].exists()

    def test_temp_directory_is_gone_after_a_worker_failure(
        self, scratch_dirs, monkeypatch
    ):
        shard_configs = replication.replication_configs

        def one_bad_shard(config, replications):
            good, *rest = shard_configs(config, replications)
            return [good, *(replace(s, scheme="bogus") for s in rest)]

        monkeypatch.setattr(
            replication, "replication_configs", one_bad_shard
        )
        with pytest.raises(SweepWorkerError):
            run_replicated(_config(), replications=3, workers=2)
        assert len(scratch_dirs) == 1
        assert not scratch_dirs[0].exists()

    def test_hydrated_shard_matches_inprocess_hydration(self, tmp_path):
        """Worker-side hydration (pickled handle) is bit-identical to
        hydrating in the parent process."""
        warm = CellularSimulator(_config(duration=60.0, warmup=10.0))
        warm.run()
        handle = CheckpointWarmStart(
            save_checkpoint(warm, tmp_path / "warm"),
            rebase_seconds=60.0,
            carry_windows=False,
        )
        shard = replace(
            _config(duration=40.0, warmup=5.0, seed=33), warm_state=handle
        )
        local = CellularSimulator(shard).run()
        # One config => run_sweep executes in-process; two force the pool.
        pooled = run_sweep([shard, shard], workers=2)
        assert pooled[0].metrics_key() == local.metrics_key()
        assert pooled[1].metrics_key() == local.metrics_key()
        cold = CellularSimulator(replace(shard, warm_state=None)).run()
        assert cold.metrics_key() != local.metrics_key()

    def test_corrupt_blob_fails_the_shard_by_name(self, tmp_path, flip_a_byte):
        warm = CellularSimulator(_config(duration=60.0, warmup=10.0))
        warm.run()
        path = save_checkpoint(warm, tmp_path / "warm")
        flip_a_byte(path / "cells" / "cell_0004.bin")
        shard = replace(
            _config(duration=40.0, warmup=5.0, seed=33),
            warm_state=CheckpointWarmStart(path, rebase_seconds=60.0),
        )
        with pytest.raises(StateCorruptionError, match="cell_0004.bin"):
            CellularSimulator(shard)
