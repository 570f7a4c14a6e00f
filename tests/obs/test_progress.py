"""Tests for the heartbeat progress reporter."""

import io

import pytest

from repro.des import Engine
from repro.des.engine import OBSERVER_EVENTS
from repro.obs.progress import ProgressReporter

#: Enough events for the engine's observer to come round three times.
EVENTS = 3 * OBSERVER_EVENTS + 5


def _run_engine(engine, events=EVENTS):
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < events:
            engine.call_in(1.0, tick)

    engine.call_in(1.0, tick)
    return tick


class TestProgressReporter:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            ProgressReporter(Engine(), duration=100.0, interval=0.0)

    def test_emits_via_engine_heartbeat(self):
        engine = Engine()
        stream = io.StringIO()
        reporter = ProgressReporter(
            engine, duration=float(EVENTS), interval=1e-9,
            label="test", stream=stream,
        )
        _run_engine(engine)
        engine.run(observer=reporter.beat)
        reporter.final()
        output = stream.getvalue()
        assert reporter.beats == 4  # one per observer call plus the final
        assert "[test]" in output
        assert "events/s" in output
        assert "done:" in output

    def test_wall_throttling(self):
        engine = Engine()
        stream = io.StringIO()
        reporter = ProgressReporter(
            engine, duration=float(EVENTS), interval=3600.0, stream=stream,
        )
        _run_engine(engine)
        engine.run(observer=reporter.beat)
        # Interval far above the run's wall time: every beat throttled.
        assert reporter.beats == 0
        assert stream.getvalue() == ""
        reporter.final()
        assert reporter.beats == 1
        assert "done:" in stream.getvalue()

    def test_heartbeat_does_not_change_event_count(self):
        plain = Engine()
        _run_engine(plain)
        plain.run()
        observed = Engine()
        reporter = ProgressReporter(
            observed, duration=float(EVENTS), interval=1e-9,
            stream=io.StringIO(),
        )
        _run_engine(observed)
        observed.run(observer=reporter.beat)
        assert observed.events_processed == plain.events_processed
        assert observed.now == plain.now
