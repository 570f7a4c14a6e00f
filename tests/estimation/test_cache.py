"""Unit tests for the quadruplet cache: windows, weights, priority."""

import pytest

from repro.estimation.cache import (
    DAY_SECONDS,
    CacheConfig,
    QuadrupletCache,
)


def quad(event_time, prev=1, next_cell=2, sojourn=30.0):
    """The four values of one departure, in ``record``'s order."""
    return event_time, prev, next_cell, sojourn


class TestConfigValidation:
    def test_defaults_ok(self):
        config = CacheConfig()
        assert config.window_days == 1

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(interval=-1.0)

    def test_zero_max_per_pair_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(max_per_pair=0)

    def test_increasing_weights_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(weights=(0.5, 1.0))

    def test_w0_above_one_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(weights=(1.5,))

    def test_nonpositive_period_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(period=0.0)


class TestInfiniteInterval:
    """interval=None models the paper's stationary T_int = inf."""

    def test_all_quadruplets_active(self):
        cache = QuadrupletCache(CacheConfig(interval=None))
        for event_time in (10.0, 20.0, 30.0):
            cache.record(*quad(event_time))
        active = cache.active(now=100.0, prev=1)
        assert len(active[2]) == 3

    def test_weight_is_w0(self):
        cache = QuadrupletCache(CacheConfig(interval=None, weights=(0.8, 0.4)))
        cache.record(*quad(10.0))
        ((sojourn, weight),) = cache.active(now=50.0, prev=1)[2]
        assert (sojourn, weight) == (30.0, 0.8)

    def test_max_per_pair_keeps_most_recent(self):
        cache = QuadrupletCache(CacheConfig(interval=None, max_per_pair=2))
        cache.record(*quad(1.0, sojourn=11.0))
        cache.record(*quad(2.0, sojourn=12.0))
        cache.record(*quad(3.0, sojourn=13.0))
        active = cache.active(now=10.0, prev=1)[2]
        sojourns = sorted(sojourn for sojourn, _weight in active)
        assert sojourns == [12.0, 13.0]

    def test_eviction_bounds_memory(self):
        cache = QuadrupletCache(CacheConfig(interval=None, max_per_pair=5))
        for index in range(50):
            cache.record(*quad(float(index)))
        assert cache.size() == 5

    def test_pairs_are_separate(self):
        cache = QuadrupletCache(CacheConfig(interval=None))
        cache.record(*quad(1.0, prev=1, next_cell=2))
        cache.record(*quad(2.0, prev=3, next_cell=2))
        assert set(cache.pairs()) == {(1, 2), (3, 2)}
        assert 2 in cache.active(now=10.0, prev=1)
        assert 2 in cache.active(now=10.0, prev=3)

    def test_prev_none_is_its_own_class(self):
        cache = QuadrupletCache(CacheConfig(interval=None))
        cache.record(*quad(1.0, prev=None))
        assert cache.active(now=10.0, prev=None)
        assert not cache.active(now=10.0, prev=1)


class TestPeriodicWindows:
    def test_recent_event_in_window(self):
        cache = QuadrupletCache(CacheConfig(interval=3600.0))
        cache.record(*quad(1000.0))
        assert cache.active(now=2000.0, prev=1)

    def test_event_outside_window_excluded(self):
        cache = QuadrupletCache(CacheConfig(interval=3600.0))
        cache.record(*quad(1000.0))
        assert not cache.active(now=1000.0 + 3600.0 + 1.0, prev=1)

    def test_yesterday_same_time_in_window(self):
        cache = QuadrupletCache(CacheConfig(interval=3600.0))
        cache.record(*quad(10_000.0))
        now = 10_000.0 + DAY_SECONDS
        active = cache.active(now=now, prev=1)
        assert active and active[2] == [(30.0, 1.0)]

    def test_yesterday_slightly_ahead_in_window(self):
        # Figure 3: the n=1 window extends T_int *past* now - T_day.
        cache = QuadrupletCache(CacheConfig(interval=3600.0))
        cache.record(*quad(10_000.0))
        now = 10_000.0 + DAY_SECONDS - 1800.0  # event is "30 min ahead"
        assert cache.active(now=now, prev=1)

    def test_yesterday_weight_w1(self):
        cache = QuadrupletCache(
            CacheConfig(interval=3600.0, weights=(1.0, 0.5))
        )
        cache.record(*quad(10_000.0))
        active = cache.active(now=10_000.0 + DAY_SECONDS, prev=1)
        assert active[2] == [(30.0, 0.5)]

    def test_beyond_window_days_excluded(self):
        cache = QuadrupletCache(
            CacheConfig(interval=3600.0, weights=(1.0, 1.0))
        )
        cache.record(*quad(10_000.0))
        # Two days later with N_win-days = 1: out of every window.
        assert not cache.active(now=10_000.0 + 2 * DAY_SECONDS, prev=1)

    def test_priority_prefers_today(self):
        config = CacheConfig(interval=3600.0, max_per_pair=1)
        cache = QuadrupletCache(config)
        cache.record(*quad(1000.0, sojourn=99.0))  # yesterday
        now = 1000.0 + DAY_SECONDS + 100.0
        cache_today_time = now - 600.0
        # Recorded later, inside today's window.
        cache.record(*quad(cache_today_time, sojourn=11.0))
        active = cache.active(now=now, prev=1)[2]
        assert active == [(11.0, 1.0)]

    def test_priority_prefers_closer_within_same_day(self):
        config = CacheConfig(interval=3600.0, max_per_pair=1)
        cache = QuadrupletCache(config)
        now = 10_000.0
        cache.record(*quad(now - 3000.0, sojourn=1.0))  # farther
        cache.record(*quad(now - 100.0, sojourn=2.0))  # closer
        active = cache.active(now=now, prev=1)[2]
        assert active == [(2.0, 1.0)]

    def test_out_of_date_entries_evicted(self):
        config = CacheConfig(interval=3600.0, weights=(1.0, 1.0))
        cache = QuadrupletCache(config)
        cache.record(*quad(0.0))
        # Recording far in the future triggers time-based eviction.
        cache.record(*quad(3 * DAY_SECONDS))
        assert cache.size() == 1

    def test_weekly_period_supported(self):
        week = 7 * DAY_SECONDS
        cache = QuadrupletCache(
            CacheConfig(interval=3600.0, period=week, weights=(1.0, 0.9))
        )
        cache.record(*quad(50_000.0))
        assert cache.active(now=50_000.0 + week, prev=1)


class TestRecordingRules:
    def test_out_of_order_recording_rejected(self):
        cache = QuadrupletCache(CacheConfig(interval=None))
        cache.record(*quad(10.0))
        with pytest.raises(
            ValueError, match="quadruplets must be recorded in time order"
        ):
            cache.record(*quad(5.0))
        assert cache.total_recorded == 1

    def test_total_recorded_counts_everything(self):
        cache = QuadrupletCache(CacheConfig(interval=None, max_per_pair=1))
        cache.record(*quad(1.0))
        cache.record(*quad(2.0))
        assert cache.total_recorded == 2
        assert cache.size() == 1

    def test_negative_sojourn_rejected(self):
        cache = QuadrupletCache(CacheConfig(interval=None))
        with pytest.raises(ValueError, match="negative sojourn time -5.0"):
            cache.record(*quad(1.0, sojourn=-5.0))
        assert cache.total_recorded == 0 and not list(cache.pairs())

    def test_negative_event_time_allowed_for_imported_history(self):
        # Preloaded warm-up history is rebased so its records land at
        # t <= 0, keeping a shard's own records in time order.
        cache = QuadrupletCache(CacheConfig(interval=None))
        cache.record(*quad(-1.0, sojourn=5.0))
        cache.record(*quad(0.0, sojourn=6.0))
        assert cache.export_columns() == {(1, 2): ([-1.0, 0.0], [5.0, 6.0])}
