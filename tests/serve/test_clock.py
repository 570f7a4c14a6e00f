"""Unit tests for the stream clock abstraction."""

import time

import pytest

from repro.serve.clock import VirtualClock, WallClock


class FakeEngine:
    def __init__(self, now=0.0):
        self.now = now


class TestVirtualClock:
    def test_now_reads_the_engine(self):
        engine = FakeEngine(now=42.5)
        assert VirtualClock(engine).now() == 42.5

    def test_unstamped_events_are_refused(self):
        clock = VirtualClock(FakeEngine())
        with pytest.raises(ValueError, match="explicit timestamps"):
            clock.stamp(None)
        assert clock.stamp(3) == 3.0

    def test_regression_is_an_error_not_a_repair(self):
        clock = VirtualClock(FakeEngine())
        with pytest.raises(ValueError, match="precedes stream time"):
            clock.monotonic(5.0, 10.0)
        with pytest.raises(ValueError, match="timestamp nan"):
            clock.monotonic(float("nan"), 10.0)
        assert clock.monotonic(10.0, 10.0) == 10.0
        assert clock.monotonic(11.0, 10.0) == 11.0


class TestWallClock:
    def test_time_scale_must_be_positive(self):
        with pytest.raises(ValueError, match="time_scale"):
            WallClock(time_scale=0.0)
        with pytest.raises(ValueError, match="time_scale"):
            WallClock(time_scale=-2.0)

    def test_now_starts_at_the_origin_and_advances(self):
        clock = WallClock(origin=100.0)
        first = clock.now()
        assert first >= 100.0
        time.sleep(0.01)
        assert clock.now() > first

    def test_time_scale_stretches_stream_seconds(self):
        fast = WallClock(time_scale=1000.0)
        slow = WallClock(time_scale=0.001)
        time.sleep(0.01)
        assert fast.now() > slow.now()

    def test_stamp_fills_in_missing_timestamps(self):
        clock = WallClock(origin=50.0)
        assert clock.stamp(7.25) == 7.25
        assert clock.stamp(None) >= 50.0

    def test_monotonic_folds_racing_timestamps_forward(self):
        clock = WallClock()
        # A query stamped before an already-applied event decides
        # against current state instead of erroring.
        assert clock.monotonic(3.0, 8.0) == 8.0
        assert clock.monotonic(9.0, 8.0) == 9.0
