"""Day-type pattern sets: weekday vs weekend histories (paper §3.1).

The paper notes that weekend/holiday mobility differs enough from
weekday mobility that *another set of quadruplets will be cached for
these special days*, with the estimation functions for weekends built
over a weekly period ``T_week`` instead of ``T_day``.

:class:`CalendarEstimator` implements exactly that: it owns one
:class:`~repro.estimation.estimator.MobilityEstimator` per *day type*
and routes every recording and query to the estimator of the day type
the timestamp falls in.  Day types are defined by a
:class:`WeekSchedule` (a 7-entry pattern like the classic 5 weekdays +
2 weekend days).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.estimation.cache import DAY_SECONDS, CacheConfig
from repro.estimation.estimator import MobilityEstimator


@dataclass(frozen=True)
class WeekSchedule:
    """Maps day-of-week to a day-type name.

    Attributes
    ----------
    pattern:
        One label per day of the simulated week; day 0 is the day that
        contains t = 0.
    day_seconds:
        Length of a day in simulated seconds (scaled scenarios shrink
        it together with everything else).
    """

    pattern: tuple[str, ...] = (
        "weekday", "weekday", "weekday", "weekday", "weekday",
        "weekend", "weekend",
    )
    day_seconds: float = DAY_SECONDS

    def __post_init__(self) -> None:
        if not self.pattern:
            raise ValueError("the week needs at least one day")
        if self.day_seconds <= 0:
            raise ValueError("day_seconds must be positive")

    @property
    def week_seconds(self) -> float:
        return len(self.pattern) * self.day_seconds

    def day_type(self, time_seconds: float) -> str:
        """Day-type label at an absolute simulated time."""
        day_index = int(time_seconds // self.day_seconds) % len(self.pattern)
        return self.pattern[day_index]

    def occurrences_per_week(self, day_type: str) -> int:
        return sum(1 for label in self.pattern if label == day_type)


@dataclass
class CalendarEstimator:
    """Routes mobility estimation through per-day-type pattern sets.

    Each day type gets its own quadruplet cache whose periodic window
    repeats weekly (``period = T_week``), so Tuesday 9 am is estimated
    from past Tuesdays-at-9-am... approximately: all days sharing a
    type share one estimator, so with the default schedule any weekday
    morning learns from every past weekday morning — which is the
    paper's intent (weekdays look alike; weekends do not).

    The interface mirrors :class:`MobilityEstimator`, so a
    ``CalendarEstimator`` drops into
    :class:`~repro.cellular.network.CellularNetwork` via
    ``estimator_factory``.
    """

    schedule: WeekSchedule = field(default_factory=WeekSchedule)
    interval: float = 3600.0
    max_per_pair: int = 100
    weights: tuple[float, ...] = (1.0, 1.0)

    def __post_init__(self) -> None:
        self._estimators: dict[str, MobilityEstimator] = {}
        for day_type in set(self.schedule.pattern):
            occurrences = self.schedule.occurrences_per_week(day_type)
            # A type occurring daily can keep the daily period; rarer
            # types repeat weekly (the paper's T_week).
            if occurrences == len(self.schedule.pattern):
                period = self.schedule.day_seconds
            else:
                period = self.schedule.week_seconds
            self._estimators[day_type] = MobilityEstimator(
                CacheConfig(
                    interval=self.interval,
                    max_per_pair=self.max_per_pair,
                    weights=self.weights,
                    period=period,
                )
            )

    # ------------------------------------------------------------------
    # MobilityEstimator interface
    # ------------------------------------------------------------------
    def estimator_for(self, now: float) -> MobilityEstimator:
        """The pattern set active at time ``now``."""
        return self._estimators[self.schedule.day_type(now)]

    def record_departure(
        self,
        event_time: float,
        prev: int | None,
        next_cell: int,
        sojourn: float,
    ) -> None:
        self.estimator_for(event_time).record_departure(
            event_time, prev, next_cell, sojourn
        )
        for day_type in self._boundary_neighbors(event_time):
            self._estimators[day_type].record_departure(
                event_time, prev, next_cell, sojourn
            )

    def _boundary_neighbors(self, event_time: float) -> list[str]:
        """Adjacent day types whose query windows can reach ``event_time``.

        A query at (say) Friday 23:55 selects quadruplets in the
        ``T_int`` half-width window around 23:55, which wraps past
        midnight into Saturday — a *different* day type whose estimator
        never saw Friday's entries.  To make such boundary windows see
        both sides, a departure recorded within ``interval`` of a
        type-changing day boundary is mirrored into the neighboring day
        type's estimator as well.  Mirrored entries inflate the
        aggregate ``total_recorded`` (one physical hand-off, two
        recordings); conservation checks must use the router's event
        count, not the cache union.  With ``interval = None`` every
        window is infinite and day types are meant to stay disjoint, so
        nothing is mirrored; likewise when ``interval >= day_seconds``
        (a window wider than a day overlaps *every* boundary — day
        typing itself is the misconfiguration there, not the routing).
        """
        pattern = self.schedule.pattern
        day_seconds = self.schedule.day_seconds
        if self.interval is None or self.interval >= day_seconds:
            return []
        day_index = int(event_time // day_seconds)
        offset = event_time - day_index * day_seconds
        here = pattern[day_index % len(pattern)]
        neighbors = []
        if offset < self.interval:
            before = pattern[(day_index - 1) % len(pattern)]
            if before != here:
                neighbors.append(before)
        if day_seconds - offset <= self.interval:
            after = pattern[(day_index + 1) % len(pattern)]
            if after != here and after not in neighbors:
                neighbors.append(after)
        return neighbors

    def handoff_probability(
        self,
        now: float,
        prev: int | None,
        extant_sojourn: float,
        next_cell: int,
        t_est: float,
    ) -> float:
        return self.estimator_for(now).handoff_probability(
            now, prev, extant_sojourn, next_cell, t_est
        )

    def handoff_probabilities(
        self,
        now: float,
        prev: int | None,
        extant_sojourn: float,
        t_est: float,
    ) -> dict[int, float]:
        return self.estimator_for(now).handoff_probabilities(
            now, prev, extant_sojourn, t_est
        )

    def expected_bandwidth(
        self,
        now: float,
        connections,
        target_cell: int,
        t_est: float,
    ) -> float:
        return self.estimator_for(now).expected_bandwidth(
            now, connections, target_cell, t_est
        )

    def is_stationary(
        self, now: float, prev: int | None, extant_sojourn: float
    ) -> bool:
        return self.estimator_for(now).is_stationary(
            now, prev, extant_sojourn
        )

    def max_sojourn(self, now: float) -> float:
        return self.estimator_for(now).max_sojourn(now)

    def function_for(self, now: float, prev: int | None):
        return self.estimator_for(now).function_for(now, prev)

    @property
    def cache(self):
        """Aggregate view used by conservation checks: total recordings."""
        return _AggregateCacheView(self._estimators)


class _AggregateCacheView:
    """Read-only union of the per-day-type caches."""

    def __init__(self, estimators: dict[str, MobilityEstimator]) -> None:
        self._estimators = estimators

    @property
    def total_recorded(self) -> int:
        return sum(
            estimator.cache.total_recorded
            for estimator in self._estimators.values()
        )

    def size(self) -> int:
        return sum(
            estimator.cache.size()
            for estimator in self._estimators.values()
        )
