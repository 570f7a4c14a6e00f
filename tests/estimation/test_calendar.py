"""Unit tests for weekday/weekend pattern sets."""

import pytest

from repro.cellular.network import CellularNetwork
from repro.cellular.topology import LinearTopology
from repro.estimation.calendar import CalendarEstimator, WeekSchedule

DAY = 86_400.0


class TestWeekSchedule:
    def test_default_week(self):
        schedule = WeekSchedule()
        assert schedule.day_type(0.0) == "weekday"
        assert schedule.day_type(4 * DAY + 100.0) == "weekday"
        assert schedule.day_type(5 * DAY) == "weekend"
        assert schedule.day_type(6.9 * DAY) == "weekend"

    def test_wraps_weekly(self):
        schedule = WeekSchedule()
        assert schedule.day_type(7 * DAY) == "weekday"
        assert schedule.day_type(12 * DAY) == "weekend"

    def test_occurrences(self):
        schedule = WeekSchedule()
        assert schedule.occurrences_per_week("weekday") == 5
        assert schedule.occurrences_per_week("weekend") == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            WeekSchedule(pattern=())
        with pytest.raises(ValueError):
            WeekSchedule(day_seconds=0.0)

    def test_scaled_days(self):
        schedule = WeekSchedule(day_seconds=100.0)
        assert schedule.week_seconds == 700.0
        assert schedule.day_type(550.0) == "weekend"


class TestCalendarEstimator:
    def make(self):
        return CalendarEstimator(
            schedule=WeekSchedule(day_seconds=1000.0),
            interval=100.0,
        )

    def test_recordings_routed_by_day_type(self):
        estimator = self.make()
        # Weekday observation (day 0) vs weekend observation (day 5).
        estimator.record_departure(500.0, 1, 2, 10.0)
        estimator.record_departure(5_500.0, 1, 3, 50.0)
        weekday = estimator.estimator_for(500.0)
        weekend = estimator.estimator_for(5_500.0)
        assert weekday is not weekend
        assert weekday.cache.total_recorded == 1
        assert weekend.cache.total_recorded == 1

    def test_queries_use_matching_pattern_set(self):
        estimator = self.make()
        estimator.record_departure(500.0, 1, 2, 10.0)     # weekday
        estimator.record_departure(5_500.0, 1, 3, 10.0)   # weekend
        # One week later, same weekday time: only cell 2 mass visible.
        weekday_probabilities = estimator.handoff_probabilities(
            7_500.0, 1, 0.0, 100.0
        )
        assert set(weekday_probabilities) == {2}
        # Weekend query sees only the weekend history.
        weekend_probabilities = estimator.handoff_probabilities(
            12_500.0, 1, 0.0, 100.0
        )
        assert set(weekend_probabilities) == {3}

    def test_weekend_period_is_weekly(self):
        estimator = self.make()
        weekend = estimator.estimator_for(5_500.0)
        assert weekend.cache.config.period == 7_000.0

    def test_uniform_pattern_keeps_daily_period(self):
        estimator = CalendarEstimator(
            schedule=WeekSchedule(
                pattern=("day",) * 7, day_seconds=1000.0
            ),
            interval=100.0,
        )
        assert estimator.estimator_for(0.0).cache.config.period == 1000.0

    def test_aggregate_cache_view(self):
        estimator = self.make()
        estimator.record_departure(500.0, 1, 2, 10.0)
        estimator.record_departure(5_500.0, 1, 3, 10.0)
        assert estimator.cache.total_recorded == 2
        assert estimator.cache.size() == 2

    def test_max_sojourn_uses_active_pattern(self):
        estimator = self.make()
        estimator.record_departure(500.0, 1, 2, 10.0)
        estimator.record_departure(5_500.0, 1, 3, 99.0)
        assert estimator.max_sojourn(7_500.0) == 10.0
        assert estimator.max_sojourn(12_500.0) == 99.0

    def test_boundary_window_sees_both_sides_of_midnight(self):
        # Regression: a T_int half-width window wrapping a type-changing
        # midnight boundary must select quadruplets from both sides.
        estimator = CalendarEstimator(
            schedule=WeekSchedule(
                pattern=("weekday",) * 5 + ("weekend",) * 2,
                day_seconds=100.0,
            ),
            interval=30.0,
        )
        estimator.record_departure(490.0, 1, 2, 10.0)  # Fri 23:50-ish
        estimator.record_departure(505.0, 1, 3, 10.0)  # Sat 00:05-ish
        # A weekday query one week later at 23:50: its window
        # [460, 520] wraps into Saturday; both entries must be visible.
        function = estimator.function_for(1190.0, 1)
        assert function.sample_count_above(0.0) == 2
        assert set(function.next_cells()) == {2, 3}
        # And the mirror runs the other way: a weekend query just after
        # midnight sees Friday's tail too.
        weekend_function = estimator.function_for(1205.0, 1)
        assert weekend_function.sample_count_above(0.0) == 2

    def test_mid_day_recordings_are_not_mirrored(self):
        estimator = self.make()  # day_seconds=1000, interval=100
        estimator.record_departure(500.0, 1, 2, 10.0)
        assert estimator.estimator_for(500.0).cache.total_recorded == 1
        assert estimator.estimator_for(5_500.0).cache.total_recorded == 0

    def test_same_type_boundary_is_not_mirrored(self):
        estimator = self.make()
        # Day 0 -> day 1 are both weekdays: nothing to mirror even
        # within `interval` of the boundary.
        estimator.record_departure(995.0, 1, 2, 10.0)
        estimator.record_departure(1_005.0, 1, 2, 10.0)
        assert estimator.estimator_for(500.0).cache.total_recorded == 2
        assert estimator.estimator_for(5_500.0).cache.total_recorded == 0

    def test_infinite_interval_skips_mirroring(self):
        estimator = CalendarEstimator(
            schedule=WeekSchedule(day_seconds=1000.0), interval=None
        )
        estimator.record_departure(4_995.0, 1, 2, 10.0)  # end of Friday
        assert estimator.estimator_for(500.0).cache.total_recorded == 1
        assert estimator.estimator_for(5_500.0).cache.total_recorded == 0

    def test_plugs_into_network(self):
        network = CellularNetwork(
            LinearTopology(3),
            estimator_factory=lambda cell_id: CalendarEstimator(
                schedule=WeekSchedule(day_seconds=1000.0)
            ),
        )
        station = network.station(0)
        station.record_departure(100.0, prev=1, next_cell=2, entry_time=50.0)
        assert station.estimator.cache.total_recorded == 1
        # The Eq. 5/6 path works through the calendar wrapper.
        assert network.update_target_reservation(0, 200.0) >= 0.0
