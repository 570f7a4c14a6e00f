"""Parallel sweep runner: process-pool results equal the sequential run."""

import multiprocessing
import os
import time
from dataclasses import replace

import pytest

from repro.simulation import runner
from repro.simulation.replication import run_replicated
from repro.simulation.runner import (
    SweepWorkerError,
    run_sweep,
    sweep_offered_load,
)
from repro.simulation.scenarios import stationary


def _configs(loads=(60.0, 150.0), duration=150.0):
    return [
        stationary(
            "AC3",
            offered_load=load,
            voice_ratio=0.8,
            high_mobility=True,
            duration=duration,
            seed=8,
        )
        for load in loads
    ]


def test_parallel_matches_sequential_in_order():
    configs = _configs()
    sequential = run_sweep(configs)
    parallel = run_sweep(configs, workers=4)
    assert len(parallel) == len(sequential) == len(configs)
    for seq, par in zip(sequential, parallel):
        assert par.metrics_key() == seq.metrics_key()
    # Order is the input order, not completion order.
    assert [r.offered_load for r in parallel] == [
        c.offered_load for c in configs
    ]


def test_parallel_progress_fires_in_order():
    configs = _configs()
    seen = []
    run_sweep(
        configs,
        progress=lambda config, result: seen.append(config.offered_load),
        workers=2,
    )
    assert seen == [config.offered_load for config in configs]


def test_workers_one_runs_in_process():
    configs = _configs(loads=(60.0,))
    assert (
        run_sweep(configs, workers=1)[0].metrics_key()
        == run_sweep(configs)[0].metrics_key()
    )


def test_worker_failure_surfaces_remote_traceback():
    good, other = _configs(duration=60.0)
    bad = replace(good, scheme="bogus", label="boom")
    with pytest.raises(SweepWorkerError) as excinfo:
        run_sweep([good, bad, other], workers=2)
    error = excinfo.value
    assert error.config.label == "boom"
    assert "unknown admission scheme" in error.remote_traceback
    assert "unknown admission scheme" in str(error)


def test_a_failed_sweep_does_not_break_the_next():
    good, other = _configs(duration=60.0)
    bad = replace(good, scheme="bogus", label="boom")
    with pytest.raises(SweepWorkerError):
        run_sweep([bad, good], workers=2)
    results = run_sweep([good, other], workers=2)
    assert [r.metrics_key() for r in results] == [
        r.metrics_key() for r in run_sweep([good, other])
    ]


def test_a_killed_worker_is_a_prompt_named_error(monkeypatch):
    plain = runner.CellularSimulator.run

    def run(self):
        if self.config.label == "boom":
            os._exit(9)
        return plain(self)

    # Forked workers inherit the patch; the parent never runs a config.
    monkeypatch.setattr(runner.CellularSimulator, "run", run)
    good, other = _configs(duration=60.0)
    bad = replace(good, label="boom")
    started = time.perf_counter()
    with pytest.raises(SweepWorkerError, match="died while running") as excinfo:
        run_sweep([bad, good, other], workers=2)
    assert time.perf_counter() - started < 5.0
    assert excinfo.value.config.label == "boom"
    assert "'boom'" in str(excinfo.value)
    assert multiprocessing.active_children() == []


def test_no_worker_outlives_its_sweep():
    good, other = _configs(duration=60.0)
    run_sweep([good, other], workers=2)
    assert multiprocessing.active_children() == []
    with pytest.raises(SweepWorkerError):
        run_sweep([good, replace(other, scheme="bogus")], workers=2)
    assert multiprocessing.active_children() == []
    run_replicated(
        replace(good, duration=80.0, warmup=20.0), replications=2, workers=2
    )
    assert multiprocessing.active_children() == []


def test_sweep_offered_load_accepts_workers():
    loads = (60.0, 150.0)
    sequential = sweep_offered_load(
        lambda load: _configs(loads=(load,))[0], loads=loads
    )
    parallel = sweep_offered_load(
        lambda load: _configs(loads=(load,))[0], loads=loads, workers=2
    )
    for (load_s, res_s), (load_p, res_p) in zip(sequential, parallel):
        assert load_s == load_p
        assert res_s.metrics_key() == res_p.metrics_key()
