"""Traffic substrate (S4): classes, connections, arrivals, profiles."""

from repro.traffic.arrivals import (
    NO_RETRY,
    ModulatedPoissonArrivals,
    PoissonArrivals,
    RetryPolicy,
)
from repro.traffic.classes import (
    ADAPTIVE_VIDEO,
    VIDEO,
    VIDEO_BU,
    VOICE,
    VOICE_BU,
    AdaptiveTrafficClass,
    TrafficClass,
    TrafficMix,
)
from repro.traffic.connection import Connection, ConnectionState
from repro.traffic.profiles import (
    DayProfile,
    constant_profile,
    paper_load_profile,
    paper_speed_profile,
)

__all__ = [
    "ADAPTIVE_VIDEO",
    "AdaptiveTrafficClass",
    "NO_RETRY",
    "VIDEO",
    "VIDEO_BU",
    "VOICE",
    "VOICE_BU",
    "Connection",
    "ConnectionState",
    "DayProfile",
    "ModulatedPoissonArrivals",
    "PoissonArrivals",
    "RetryPolicy",
    "TrafficClass",
    "TrafficMix",
    "constant_profile",
    "paper_load_profile",
    "paper_speed_profile",
]
