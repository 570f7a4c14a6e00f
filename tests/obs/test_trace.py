"""Tests for the Chrome trace-event span collector."""

import json

import pytest

from repro.obs.trace import (
    NullTraceCollector,
    TraceCollector,
    merge_traces,
    span_names,
    write_trace,
)
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import begin_observability


class TestTraceCollector:
    def test_span_records_complete_event(self):
        tracer = TraceCollector(run_id="cafe", pid=2)
        with tracer.span("epoch.run", epoch=3):
            pass
        (event,) = tracer.events()
        assert event["name"] == "epoch.run"
        assert event["ph"] == "X"
        assert event["pid"] == 2
        assert event["dur"] >= 0
        assert event["args"] == {"epoch": 3, "run_id": "cafe"}

    def test_spans_nest_and_order_by_start(self):
        tracer = TraceCollector()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        # Inner exits first, so it is recorded first; ts still orders
        # outer before inner.
        names = [event["name"] for event in tracer.events()]
        assert names == ["inner", "outer"]
        inner, outer = tracer.events()
        assert outer["ts"] <= inner["ts"]

    def test_instant_marker(self):
        tracer = TraceCollector()
        tracer.instant("worker.start", index=1)
        (event,) = tracer.events()
        assert event["ph"] == "i"
        assert event["args"] == {"index": 1}

    def test_max_events_degrades_to_counted_drop(self):
        tracer = TraceCollector(max_events=2)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer.events()) == 2
        assert tracer.dropped == 3

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            TraceCollector(max_events=0)


class TestNullCollector:
    def test_null_records_nothing(self):
        tracer = NullTraceCollector()
        with tracer.span("anything", epoch=1):
            pass
        tracer.instant("marker")
        assert tracer.events() is None
        assert not tracer.enabled


class TestMergeTraces:
    def test_sorts_by_ts_then_pid(self):
        merged = merge_traces(
            [
                [{"ts": 2.0, "pid": 1}, {"ts": 5.0, "pid": 1}],
                [{"ts": 2.0, "pid": 0}, {"ts": 1.0, "pid": 0}],
            ]
        )
        assert [(event["ts"], event["pid"]) for event in merged] == [
            (1.0, 0),
            (2.0, 0),
            (2.0, 1),
            (5.0, 1),
        ]

    def test_skips_disabled_contributors(self):
        assert merge_traces([None, []]) is None
        merged = merge_traces([None, [{"ts": 1.0}]])
        assert merged == [{"ts": 1.0}]


class TestWriteTrace:
    def test_perfetto_envelope(self, tmp_path):
        tracer = TraceCollector(pid=0)
        with tracer.span("epoch.run"):
            pass
        target = write_trace(
            tmp_path / "trace.json",
            tracer.events(),
            process_names={0: "shard 0"},
        )
        payload = json.loads(target.read_text())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert events[0] == {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "args": {"name": "shard 0"},
        }
        assert events[1]["name"] == "epoch.run"

    def test_span_names_ignores_metadata(self):
        events = [
            {"name": "process_name", "ph": "M"},
            {"name": "a", "ph": "X"},
            {"name": "b", "ph": "X"},
            {"name": "marker", "ph": "i"},
        ]
        assert span_names(events) == {"a", "b"}
        assert span_names(None) == set()


class TestSelection:
    def test_disabled_by_default(self):
        _, _, tracer = begin_observability(SimulationConfig())
        assert isinstance(tracer, NullTraceCollector)

    def test_config_enables_one_collector_per_run(self):
        config = SimulationConfig(trace=True, run_id="cafe")
        _, _, tracer = begin_observability(config, shard=7)
        _, _, other = begin_observability(config, shard=7)
        assert isinstance(tracer, TraceCollector)
        assert tracer is not other
        assert tracer.pid == 7
        assert tracer.run_id == "cafe-s7"
