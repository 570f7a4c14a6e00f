"""Tests for the telemetry registry and its no-op twin."""

import pytest

from repro.obs.telemetry import (
    DEFAULT_BUCKETS,
    Histogram,
    NullTelemetry,
    Telemetry,
    merge_snapshots,
    new_run_id,
)
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import begin_observability


class TestInstruments:
    def test_counter_and_gauge(self):
        telemetry = Telemetry()
        counter = telemetry.counter("des.events")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        gauge = telemetry.gauge("des.heap")
        gauge.set(17)
        assert gauge.value == 17.0

    def test_labelled_series_are_distinct(self):
        telemetry = Telemetry()
        hit = telemetry.counter("memo", outcome="hit")
        miss = telemetry.counter("memo", outcome="miss")
        assert hit is not miss
        hit.inc()
        snapshot = telemetry.snapshot()
        assert snapshot["counters"]['memo{outcome="hit"}'] == 1
        assert snapshot["counters"]['memo{outcome="miss"}'] == 0

    def test_get_or_create_returns_same_handle(self):
        telemetry = Telemetry()
        assert telemetry.counter("x") is telemetry.counter("x")
        assert telemetry.histogram("h") is telemetry.histogram("h")

    def test_histogram_bucket_edges_inclusive(self):
        histogram = Histogram(edges=(1.0, 4.0, 16.0))
        # Prometheus `le` semantics: upper bounds are inclusive.
        for value in (0.5, 1.0):
            histogram.observe(value)
        histogram.observe(4.0)
        histogram.observe(4.1)
        histogram.observe(100.0)  # above the last edge -> +Inf bucket
        assert histogram.counts == [2, 1, 1, 1]
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(0.5 + 1.0 + 4.0 + 4.1 + 100.0)

    def test_histogram_observe_with_a_count_equals_repeated_observes(self):
        weighted = Histogram(edges=(1.0, 4.0, 16.0))
        repeated = Histogram(edges=(1.0, 4.0, 16.0))
        for value, count in ((0.3, 7), (4.0, 1), (4.1, 93), (100.0, 2)):
            weighted.observe(value, count)
            for _ in range(count):
                repeated.observe(value)
        assert weighted.counts == repeated.counts == [7, 1, 93, 2]
        assert weighted.count == repeated.count == 103
        assert weighted.sum == pytest.approx(repeated.sum, rel=1e-12)

    def test_histogram_default_buckets(self):
        histogram = Histogram()
        assert histogram.edges == DEFAULT_BUCKETS
        assert len(histogram.counts) == len(DEFAULT_BUCKETS) + 1

    def test_histogram_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Histogram(edges=())
        with pytest.raises(ValueError):
            Histogram(edges=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(edges=(1.0, 1.0))

    def test_timer_accumulates(self):
        telemetry = Telemetry()
        timer = telemetry.timer("section")
        with timer:
            pass
        with timer:
            pass
        assert timer.count == 2
        assert timer.seconds >= 0.0


class TestNullTelemetry:
    def test_shared_noops(self):
        null = NullTelemetry()
        assert null.counter("a") is null.counter("b")
        null.counter("a").inc(100)
        assert null.counter("a").value == 0.0
        null.gauge("g").set(5)
        assert null.gauge("g").value == 0.0
        null.histogram("h").observe(3)
        with null.timer("t"):
            pass
        assert null.snapshot() is None

    def test_disabled_flag(self):
        assert NullTelemetry.enabled is False
        assert Telemetry.enabled is True


class TestSnapshotMerge:
    def _snapshot(self, events, heap, rows):
        telemetry = Telemetry(run_id=new_run_id())
        telemetry.counter("events").inc(events)
        telemetry.gauge("heap").set(heap)
        histogram = telemetry.histogram("rows", buckets=(2.0, 8.0))
        for row in rows:
            histogram.observe(row)
        timer = telemetry.timer("run")
        timer.seconds += 1.5
        timer.count += 1
        return telemetry.snapshot()

    def test_merge_sums_counters_and_histograms(self):
        merged = merge_snapshots(
            [self._snapshot(10, 5, [1, 9]), self._snapshot(32, 3, [4])]
        )
        assert merged["counters"]["events"] == 42
        assert merged["gauges"]["heap"] == 5  # max, not sum
        assert merged["histograms"]["rows"]["counts"] == [1, 1, 1]
        assert merged["histograms"]["rows"]["count"] == 3
        assert merged["timers"]["run"]["seconds"] == pytest.approx(3.0)
        assert merged["timers"]["run"]["count"] == 2
        assert merged["run_id"].count("+") == 1

    def test_merge_keeps_all_negative_gauges(self):
        # max-merge must seed from the first contribution, not from an
        # implicit 0.0 — otherwise all-negative gauges collapse to 0.
        merged = merge_snapshots(
            [self._snapshot(1, -9.0, []), self._snapshot(1, -5.0, [])]
        )
        assert merged["gauges"]["heap"] == -5.0

    def test_merge_sums_histogram_buckets_elementwise(self):
        merged = merge_snapshots(
            [self._snapshot(0, 0, [1, 1, 9]), self._snapshot(0, 0, [1, 4])]
        )
        histogram = merged["histograms"]["rows"]
        assert histogram["counts"] == [3, 1, 1]
        assert histogram["count"] == 5
        assert histogram["sum"] == pytest.approx(16.0)

    def test_merge_skips_none(self):
        snapshot = self._snapshot(7, 1, [])
        merged = merge_snapshots([None, snapshot, None])
        assert merged["counters"]["events"] == 7
        assert merge_snapshots([None, None]) is None
        assert merge_snapshots([]) is None

    def test_merge_rejects_mismatched_buckets(self):
        telemetry = Telemetry()
        telemetry.histogram("rows", buckets=(1.0, 2.0)).observe(1)
        first = telemetry.snapshot()
        other = Telemetry()
        other.histogram("rows", buckets=(5.0, 10.0)).observe(1)
        with pytest.raises(ValueError):
            merge_snapshots([first, other.snapshot()])


class TestRunOwnership:
    def test_each_run_builds_its_own_registry(self):
        config = SimulationConfig(telemetry=True, run_id="abc")
        _, first, _ = begin_observability(config)
        _, second, _ = begin_observability(config)
        assert first.enabled and second.enabled
        assert first is not second
        assert first.run_id == "abc"
        first.counter("state.save").inc()
        assert second.snapshot()["counters"] == {}

    def test_disabled_config_gets_the_no_op_twin(self):
        _, telemetry, _ = begin_observability(SimulationConfig())
        assert isinstance(telemetry, NullTelemetry)

    def test_run_ids_unique(self):
        assert new_run_id() != new_run_id()
        assert len(new_run_id()) == 12
