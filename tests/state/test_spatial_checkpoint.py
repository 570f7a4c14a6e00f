"""History directories: what a spatial day leaves behind, and who reads it."""

import json
from dataclasses import replace
from functools import partial

import pytest

from repro.cellular.network import CellularNetwork
from repro.cellular.topology import HexTopology
from repro.simulation.scenarios import hex_city
from repro.simulation.spatial import run_spatial
from repro.state import (
    CheckpointWarmStart,
    StateCorruptionError,
    StateFormatError,
    StateSchemaError,
    inspect_state,
    restore_simulator,
    run_campaign,
    save_history,
    spatial_day,
)
from repro.state.format import load_manifest


def _sample_state():
    return {
        0: {(None, 1): ([-2.0, -1.0], [10.0, 20.0])},
        3: {(2, 4): ([-5.0], [15.0])},
    }


def _small_city():
    return hex_city("AC3", rows=4, cols=4, offered_load=150.0, duration=20.0)


def _hydrated(path, cells=None):
    network = CellularNetwork(HexTopology(4, 4, wrap=True), capacity=100.0)
    CheckpointWarmStart(path).hydrate(network, cells=cells)
    return {
        station.cell_id: station.estimator.cache.export_columns()
        for station in network.stations
        if station.estimator.cache.size()
    }


class TestManifestSchema:
    def test_round_trip_restores_exports_bit_identically(self, tmp_path):
        path = save_history(tmp_path / "day_000", _sample_state(), _small_city())
        assert _hydrated(path) == _sample_state()

    def test_is_an_ordinary_state_directory(self, tmp_path):
        path = save_history(tmp_path / "day_000", _sample_state(), _small_city())
        manifest = load_manifest(path)
        assert [entry["path"] for entry in manifest["files"]] == [
            "cells/cell_0000.bin",
            "cells/cell_0003.bin",
        ]
        assert manifest["counts"]["quadruplets"] == 3
        assert inspect_state(path, out=lambda _line: None) == 0

    def test_newer_schema_is_rejected_loudly(self, tmp_path):
        path = save_history(tmp_path / "day_000", _sample_state(), _small_city())
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["schema_version"] += 1
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StateSchemaError, match="schema v4"):
            _hydrated(path)

    def test_the_json_shard_files_of_older_campaigns_are_refused(
        self, tmp_path
    ):
        day_dir = tmp_path / "day-000"
        day_dir.mkdir()
        (day_dir / "manifest.json").write_text(
            json.dumps({"schema": 2, "shards": 1, "files": []})
        )
        with pytest.raises(StateFormatError, match="not a repro-state"):
            _hydrated(day_dir)

    def test_restore_refuses_for_want_of_a_runtime(self, tmp_path):
        city = _small_city()
        path = save_history(tmp_path / "day_000", _sample_state(), city)
        with pytest.raises(StateFormatError, match="runtime.json"):
            restore_simulator(path, city)


class TestOwnedCellsOnly:
    def test_hydrate_opens_only_the_cells_it_is_asked_for(
        self, tmp_path, flip_a_byte
    ):
        path = save_history(tmp_path / "day_000", _sample_state(), _small_city())
        flip_a_byte(path / "cells" / "cell_0003.bin")
        # The foreign cell's blob is never read...
        assert _hydrated(path, cells={0, 1}) == {0: _sample_state()[0]}
        # ...an owned one is, and verified.
        with pytest.raises(StateCorruptionError, match="cell_0003.bin"):
            _hydrated(path, cells={3})

    def test_a_cell_without_an_entry_stays_cold(self, tmp_path):
        path = save_history(tmp_path / "day_000", _sample_state(), _small_city())
        assert _hydrated(path, cells={1, 2}) == {}


#: Per-day ``(P_CB, P_HD, events, quadruplets)`` of the hot-spot city
#: below as the JSON-shard campaign of commit 365c704 produced them
#: (measured on a clone): the merge must not bend a number.
_PARENT_DAYS = [
    (0.0020218358269308533, 0.0, 3194, 324),
    (0.005482918599746942, 0.0, 3073, 643),
]


def _hot_city():
    return hex_city(
        "AC3",
        rows=8,
        cols=6,
        offered_load=150.0,
        duration=40.0,
        seed=7,
        hotspots=((2, 2, 3.0),),
    )


def _days(reports):
    return [
        (report.p_cb, report.p_hd, report.events_processed, report.quadruplets)
        for report in reports
    ]


class TestPlanIndependentRestore:
    def test_campaign_days_identical_across_plan_kinds(
        self, tmp_path, column_cut
    ):
        """Day 1 warm-starts from day 0's written history; matching
        per-day results across shard counts, cuts and hosts prove the
        cell-keyed blobs restore identically no matter which plan wrote
        or reads them.  The column cut runs last: it stays installed."""
        setups = [
            (1, "load", False),
            (2, "load", False),
            (2, "load", True),
            (2, "cols", False),
        ]
        for shards, cut, processes in setups:
            if cut == "cols":
                column_cut()
            reports = run_campaign(
                _hot_city(),
                2,
                tmp_path / f"{shards}-{cut}-{processes}",
                run_day=partial(
                    spatial_day, shards=shards, processes=processes
                ),
            )
            assert _days(reports) == _PARENT_DAYS, (shards, cut, processes)

    def test_checkpoint_written_under_one_plan_loads_under_another(
        self, tmp_path, column_cut
    ):
        city = _hot_city()
        _result, columns = run_spatial(
            city, 2, processes=False, collect_state=True
        )
        path = save_history(tmp_path / "day_000", columns, city)
        warm = replace(city, seed=8, warm_state=CheckpointWarmStart(path))
        cold = run_spatial(replace(warm, warm_state=None), 1, processes=False)
        keys = [
            run_spatial(warm, shards, processes=False).metrics_key()
            for shards in (1, 2)
        ]
        column_cut()
        keys.append(run_spatial(warm, 4, processes=False).metrics_key())
        assert keys[0] == keys[1] == keys[2]
        assert cold.metrics_key() != keys[0]
