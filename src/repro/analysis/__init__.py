"""Analysis utilities: intervals and analytic models."""

from repro.analysis.guard_channel import (
    GuardChannelResult,
    analytic_static_baseline,
    road_model_rates,
    solve_guard_channel,
)
from repro.analysis.stats import ProportionEstimate, wilson_interval

__all__ = [
    "GuardChannelResult",
    "ProportionEstimate",
    "analytic_static_baseline",
    "road_model_rates",
    "solve_guard_channel",
    "wilson_interval",
]
