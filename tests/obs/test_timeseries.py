"""Tests for the streaming time-series sampler and its plumbing."""

import io
import json

import pytest

from repro.obs.timeseries import (
    TimeSeriesSampler,
    iter_series,
    merge_series,
    read_series,
    series_summary,
    write_series,
)


class FakeEngine:
    """Just the attributes the sampler reads."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self.pending = 0


def make_sampler(**kwargs):
    engine = FakeEngine()
    kwargs.setdefault("interval", 10.0)
    return engine, TimeSeriesSampler(engine, **kwargs)


class TestSamplerCadence:
    def test_requires_a_cadence(self):
        engine = FakeEngine()
        with pytest.raises(ValueError):
            TimeSeriesSampler(engine)
        with pytest.raises(ValueError):
            TimeSeriesSampler(engine, interval=-1.0)

    def test_virtual_cadence_samples_on_threshold(self):
        engine, sampler = make_sampler(interval=10.0)
        engine.now = 5.0
        sampler.maybe_sample()
        assert sampler.series() == []
        engine.now = 10.0
        engine.events_processed = 100
        sampler.maybe_sample()
        assert len(sampler.series()) == 1
        assert sampler.series()[0]["t"] == 10.0
        assert sampler.series()[0]["events"] == 100

    def test_burst_at_one_timestamp_yields_one_sample(self):
        engine, sampler = make_sampler(interval=10.0)
        engine.now = 25.0
        for _ in range(5):
            sampler.maybe_sample()
        assert len(sampler.series()) == 1
        # The next threshold advanced past *now*, not to 20.0.
        engine.now = 34.0
        sampler.maybe_sample()
        assert len(sampler.series()) == 1
        engine.now = 35.0
        sampler.maybe_sample()
        assert len(sampler.series()) == 2

    def test_due_reads_without_sampling(self):
        engine, sampler = make_sampler(interval=10.0)
        assert not sampler.due(5.0)
        assert sampler.due(10.0)
        assert sampler.series() == []
        engine.now = 10.0
        assert sampler.due()

    def test_forced_sample_carries_extra_labels(self):
        engine, sampler = make_sampler(interval=10.0)
        engine.now = 3.0
        row = sampler.sample(epoch=4, barrier_wait_frac=0.25)
        assert row["epoch"] == 4
        assert row["barrier_wait_frac"] == 0.25
        assert sampler.series() == [row]

    def test_final_appends_closing_row_and_closes_stream(self):
        stream = io.StringIO()
        engine, sampler = make_sampler(interval=10.0, stream=stream)
        engine.now = 50.0
        sampler.final()
        rows = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert rows[-1]["final"] is True
        # Not owned, so the handle stays open but is detached.
        assert sampler._stream is None


class TestSamplerRows:
    def test_ring_buffer_evicts_oldest(self):
        engine, sampler = make_sampler(interval=1.0, max_samples=3)
        for step in range(1, 6):
            engine.now = float(step)
            sampler.maybe_sample()
        series = sampler.series()
        assert len(series) == 3
        assert [row["t"] for row in series] == [3.0, 4.0, 5.0]
        assert sampler.total_samples == 5
        assert sampler.dropped == 2

    def test_stream_keeps_everything(self, tmp_path):
        target = tmp_path / "nested" / "stream.jsonl"
        engine, sampler = make_sampler(
            interval=1.0, max_samples=2, stream=target
        )
        for step in range(1, 5):
            engine.now = float(step)
            sampler.maybe_sample()
        sampler.close()
        assert len(read_series(target)) == 4
        assert len(sampler.series()) == 2

    def test_provenance_stamped(self):
        engine, sampler = make_sampler(
            interval=1.0, shard_id=3, run_id="cafe", label="L=200"
        )
        engine.now = 1.0
        sampler.maybe_sample()
        row = sampler.series()[0]
        assert row["shard"] == 3
        assert row["run_id"] == "cafe"
        assert row["label"] == "L=200"

    def test_events_per_s_is_window_delta(self):
        engine, sampler = make_sampler(interval=1.0)
        engine.now = 1.0
        engine.events_processed = 500
        sampler.maybe_sample()
        first = sampler.series()[0]
        assert first["events"] == 500
        assert first["events_per_s"] >= 0


class TestMergeSeries:
    def test_merges_and_sorts_by_time_then_shard(self):
        shard0 = [{"t": 1.0, "shard": 0}, {"t": 3.0, "shard": 0}]
        shard1 = [{"t": 1.0, "shard": 1}, {"t": 2.0, "shard": 1}]
        merged = merge_series([shard1, shard0])
        assert [(row["t"], row["shard"]) for row in merged] == [
            (1.0, 0),
            (1.0, 1),
            (2.0, 1),
            (3.0, 0),
        ]

    def test_unsharded_rows_sort_before_sharded(self):
        merged = merge_series(
            [[{"t": 1.0, "shard": 2}], [{"t": 1.0, "shard": None}]]
        )
        assert merged[0]["shard"] is None

    def test_nothing_contributed_returns_none(self):
        assert merge_series([None, [], None]) is None
        assert merge_series([]) is None

    def test_empty_shards_among_live_ones_are_skipped(self):
        # A shard that sampled nothing (short run, coarse cadence) must
        # not poison the merge.
        rows = [{"t": 1.0, "shard": 4}]
        assert merge_series([[], rows, None, []]) == rows

    def test_single_shard_passes_through_as_copies(self):
        rows = [{"t": 2.0, "shard": 0}, {"t": 1.0, "shard": 0}]
        merged = merge_series([rows])
        assert merged == sorted(rows, key=lambda row: row["t"])
        # Rows are copied, not aliased: mutating the merge must not
        # reach back into the shard's own series.
        merged[0]["t"] = 99.0
        assert rows[1]["t"] == 1.0

    def test_wall_breaks_virtual_time_ties(self):
        # Same virtual t, same shard: the wall timestamp orders the
        # rows (live-mode samples share t=engine.now across a batch).
        early = {"t": 5.0, "shard": 1, "wall": 10.0}
        late = {"t": 5.0, "shard": 1, "wall": 20.0}
        assert merge_series([[late], [early]]) == [early, late]
        # ...but shard still outranks wall.
        other_shard = {"t": 5.0, "shard": 0, "wall": 99.0}
        assert merge_series([[late], [other_shard]]) == [other_shard, late]

    def test_deterministic_under_worker_order(self):
        streams = [
            [{"t": 2.0, "shard": 0}, {"t": 4.0, "shard": 0}],
            [{"t": 1.0, "shard": 1}],
            [{"t": 2.0, "shard": 2}],
        ]
        forward = merge_series(streams)
        backward = merge_series(list(reversed(streams)))
        assert forward == backward


class TestSeriesFiles:
    def test_write_read_round_trip(self, tmp_path):
        rows = [{"t": 1.0, "shard": None}, {"t": 2.0, "shard": 0}]
        target = write_series(tmp_path / "series.jsonl", rows)
        assert read_series(target) == rows

    def test_iter_series_skips_torn_and_blank_lines(self):
        stream = io.StringIO(
            '{"t": 1.0}\n\n{"t": 2.0}\n{"t": 3.0, "events"'
        )
        assert list(iter_series(stream)) == [{"t": 1.0}, {"t": 2.0}]

    def test_iter_series_skips_non_dict_rows(self):
        stream = io.StringIO('[1, 2]\n{"t": 1.0}\n')
        assert list(iter_series(stream)) == [{"t": 1.0}]


class TestSeriesSummary:
    def test_empty_is_none(self):
        assert series_summary(None) is None
        assert series_summary([]) is None

    def test_summary_fields(self):
        rows = [
            {"t": 1.0, "shard": 0, "events_per_s": 100.0},
            {"t": 5.0, "shard": 1, "events_per_s": 900.0},
            {
                "t": 9.0,
                "shard": 1,
                "events_per_s": 300.0,
                "p_cb": 0.02,
                "p_hd": 0.001,
            },
        ]
        summary = series_summary(rows)
        assert summary["samples"] == 3
        assert summary["shards"] == [0, 1]
        assert summary["t_first"] == 1.0
        assert summary["t_last"] == 9.0
        assert summary["peak_events_per_s"] == 900.0
        assert summary["last_p_cb"] == 0.02
        assert summary["last_p_hd"] == 0.001
