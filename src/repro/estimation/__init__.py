"""Mobility estimation from aggregate hand-off histories (paper §3).

Public surface:

* :class:`CacheConfig` / :class:`QuadrupletCache` — the hand-off
  quadruplets as per-pair columns, with the paper's periodic windows,
  priority and eviction rules.
* :class:`HandoffEstimationFunction` — queryable ``F_HOE`` snapshot.
* :class:`MobilityEstimator` — Bayes hand-off probabilities (Eq. 4).
* :class:`KnownPathEstimator` — route-guidance variant (§7).
"""

from repro.estimation.calendar import CalendarEstimator, WeekSchedule
from repro.estimation.cache import (
    DAY_SECONDS,
    CacheConfig,
    QuadrupletCache,
)
from repro.estimation.estimator import KnownPathEstimator, MobilityEstimator
from repro.estimation.function import HandoffEstimationFunction

__all__ = [
    "DAY_SECONDS",
    "CacheConfig",
    "CalendarEstimator",
    "HandoffEstimationFunction",
    "KnownPathEstimator",
    "MobilityEstimator",
    "QuadrupletCache",
    "WeekSchedule",
]
