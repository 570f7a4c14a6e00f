"""``RunSpec`` refuses what its runner would ignore; ``execute`` is each
runner called directly."""

import pytest

from repro.simulation.replication import run_replicated
from repro.simulation.runner import RunSpec, execute
from repro.simulation.scenarios import hex_city, stationary
from repro.simulation.simulator import CellularSimulator
from repro.simulation.spatial import run_spatial


def _road(**overrides):
    options = {"offered_load": 120.0, "duration": 40.0, "seed": 3}
    options.update(overrides)
    return stationary("AC3", **options)


@pytest.mark.parametrize(
    "options, named",
    [
        ({"shards": -1}, ["--shards", "-1"]),
        ({"shards": 2, "replications": 3}, ["--shards", "--replications"]),
        ({"shards": 2, "load_state": "s"}, ["--shards", "--load-state"]),
        ({"shards": 2, "checkpoint_every": 5.0},
         ["--shards", "--checkpoint-every"]),
        ({"shards": 2, "trace_jsonl": "j"}, ["--shards", "--trace-jsonl"]),
        ({"replications": 3, "save_state": "s"},
         ["--replications", "--save-state"]),
        ({"replications": 3, "load_state": "s"},
         ["--replications", "--load-state"]),
        ({"replications": 3, "checkpoint_every": 5.0},
         ["--replications", "--checkpoint-every"]),
        ({"replications": 3, "trace_jsonl": "j"},
         ["--replications", "--trace-jsonl"]),
        ({"save_state": "s", "trace_jsonl": "j"},
         ["--save-state", "--trace-jsonl"]),
        ({"load_state": "s", "trace_jsonl": "j"},
         ["--load-state", "--trace-jsonl"]),
        ({"checkpoint_every": 5.0, "trace_jsonl": "j"},
         ["--checkpoint-every", "--trace-jsonl"]),
        ({"workers": 2}, ["--workers", "--replications"]),
    ],
)
def test_spec_refuses_each_runner_combination(options, named):
    with pytest.raises(ValueError) as caught:
        RunSpec(_road(), **options)
    assert all(flag in str(caught.value) for flag in named)


def test_sharded_runs_may_save_their_history():
    RunSpec(hex_city("AC3", rows=4, cols=4), shards=2, save_state="s")


def test_single_run_is_one_simulator():
    config = _road()
    assert (
        execute(RunSpec(config)).metrics_key()
        == CellularSimulator(config).run().metrics_key()
    )


def test_replicated_run_is_run_replicated():
    config = _road(warmup=10.0)
    spec = RunSpec(config, replications=3, ci_level=0.9)
    assert (
        execute(spec).metrics_key()
        == run_replicated(config, replications=3, ci_level=0.9).metrics_key()
    )


def test_sharded_run_is_run_spatial(tmp_path):
    city = hex_city("AC3", rows=6, cols=6, offered_load=150.0, duration=20.0)
    direct, columns = run_spatial(city, 2, epoch=0.5, collect_state=True)
    saved = execute(
        RunSpec(city, shards=2, epoch=0.5, save_state=tmp_path / "day")
    )
    assert saved.metrics_key() == direct.metrics_key()
    assert (
        execute(RunSpec(city, shards=2, epoch=0.5)).metrics_key()
        == direct.metrics_key()
    )
    assert sorted(
        path.name for path in (tmp_path / "day" / "cells").iterdir()
    ) == [f"cell_{cell:04d}.bin" for cell in sorted(columns)]
