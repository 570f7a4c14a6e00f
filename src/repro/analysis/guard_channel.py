"""Analytic guard-channel model (Hong & Rappaport 1986).

The paper's static baseline *is* the classic prioritized guard-channel
scheme: of ``C`` channels, new calls may only occupy ``C - G`` while
hand-offs may use all ``C``.  With Poisson new-call arrivals (rate
``lambda_n``), Poisson hand-off arrivals (``lambda_h``) and exponential
channel holding times (rate ``mu``), the channel occupancy is a
birth–death chain whose stationary distribution has a closed form:

* for ``k <= C - G``: ``p_k = p_0 * a^k / k!`` with
  ``a = (lambda_n + lambda_h) / mu``;
* for ``k > C - G``:  the birth rate drops to ``lambda_h``.

``P_CB = sum_{k >= C-G} p_k`` and ``P_HD = p_C``.

This module solves that chain and estimates the hand-off arrival rate
implied by the paper's road model, giving an independent cross-check of
the simulator (see ``tests/analysis/test_guard_channel.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class GuardChannelResult:
    """Stationary probabilities of the guard-channel birth-death chain."""

    blocking_probability: float
    dropping_probability: float
    occupancy: tuple[float, ...]


def solve_guard_channel(
    capacity: int,
    guard: int,
    new_call_rate: float,
    handoff_rate: float,
    mean_holding_time: float,
) -> GuardChannelResult:
    """Solve the prioritized guard-channel chain in closed form.

    Parameters
    ----------
    capacity:
        Total channels ``C`` (integer BUs; voice-only traffic).
    guard:
        Guard channels ``G`` reserved for hand-offs.
    new_call_rate:
        ``lambda_n`` — new call attempts per second in the cell.
    handoff_rate:
        ``lambda_h`` — hand-off arrivals per second into the cell.
    mean_holding_time:
        ``1 / mu`` — mean *channel* holding time in seconds (the call
        finishes or hands off away, whichever first).
    """
    if capacity < 1 or not 0 <= guard <= capacity:
        raise ValueError(f"invalid capacity/guard {capacity}/{guard}")
    if min(new_call_rate, handoff_rate) < 0 or mean_holding_time <= 0:
        raise ValueError("rates must be non-negative, holding time positive")
    mu = 1.0 / mean_holding_time
    threshold = capacity - guard
    # Unnormalised log-weights to stay stable for large C.
    log_weights = [0.0]
    for k in range(1, capacity + 1):
        birth = (
            new_call_rate + handoff_rate if k - 1 < threshold
            else handoff_rate
        )
        if birth <= 0.0:
            # Chain cannot reach state k (nor any above it).
            log_weights.append(-math.inf)
            continue
        log_weights.append(
            log_weights[-1] + math.log(birth) - math.log(k * mu)
        )
    peak = max(log_weights)
    weights = [
        math.exp(value - peak) if value > -math.inf else 0.0
        for value in log_weights
    ]
    total = sum(weights)
    occupancy = tuple(weight / total for weight in weights)
    blocking = sum(occupancy[threshold:])
    dropping = occupancy[capacity]
    return GuardChannelResult(blocking, dropping, occupancy)


@dataclass(frozen=True, slots=True)
class RoadModelRates:
    """Arrival/holding rates implied by the paper's road model (voice)."""

    new_call_rate: float
    handoff_rate: float
    mean_channel_holding: float


def road_model_rates(
    offered_load: float,
    mean_speed_kmh: float,
    cell_diameter_km: float = 1.0,
    mean_lifetime: float = 120.0,
    iterations: int = 50,
) -> RoadModelRates:
    """Estimate the guard-channel inputs for the paper's voice highway.

    A mobile's residual time in a cell is roughly
    ``cell_diameter / speed`` once in motion (uniform entry positions at
    call setup make the *first* sojourn half that on average; the
    fixed-point below uses the through-traffic value, which dominates).

    The hand-off arrival rate must be found as a fixed point: carried
    calls generate hand-offs, which are themselves carried calls.  We
    iterate ``lambda_h = (carried new + carried hand-offs) * P(move on)``
    ignoring blocking (an upper bound appropriate at moderate loads).
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    new_call_rate = offered_load / mean_lifetime  # E[b]=1 BU (voice)
    crossing_time = cell_diameter_km / (mean_speed_kmh / 3600.0)
    # Channel holding: min(lifetime, residence). Both ~exponential-ish;
    # approximate with rates adding.
    holding = 1.0 / (1.0 / mean_lifetime + 1.0 / crossing_time)
    # P(hand-off before completion) for a carried call.
    move_on = (1.0 / crossing_time) / (
        1.0 / crossing_time + 1.0 / mean_lifetime
    )
    handoff_rate = 0.0
    for _ in range(iterations):
        handoff_rate = (new_call_rate + handoff_rate) * move_on
    return RoadModelRates(new_call_rate, handoff_rate, holding)


def analytic_static_baseline(
    offered_load: float,
    guard: int = 10,
    capacity: int = 100,
    mean_speed_kmh: float = 100.0,
    cell_diameter_km: float = 1.0,
    mean_lifetime: float = 120.0,
    iterations: int = 200,
) -> GuardChannelResult:
    """End-to-end analytic P_CB / P_HD for the paper's static scheme.

    Solves the *coupled* fixed point: the hand-off arrival rate depends
    on how many calls are actually carried, which depends on the chain's
    blocking/dropping, which depends on the hand-off rate.  We iterate

        lambda_h <- (lambda_n (1 - P_CB) + lambda_h (1 - P_HD)) * P(move on)

    against the closed-form chain until convergence (damped).

    Only valid for voice-only traffic (``R_vo = 1``) where the BU chain
    is a true birth–death process.
    """
    new_call_rate = offered_load / mean_lifetime
    crossing_time = cell_diameter_km / (mean_speed_kmh / 3600.0)
    holding = 1.0 / (1.0 / mean_lifetime + 1.0 / crossing_time)
    move_on = (1.0 / crossing_time) / (
        1.0 / crossing_time + 1.0 / mean_lifetime
    )
    handoff_rate = new_call_rate * move_on
    result = solve_guard_channel(
        capacity, guard, new_call_rate, handoff_rate, holding
    )
    for _ in range(iterations):
        carried = (
            new_call_rate * (1.0 - result.blocking_probability)
            + handoff_rate * (1.0 - result.dropping_probability)
        )
        updated = carried * move_on
        # Damping keeps the iteration stable near saturation.
        handoff_rate = 0.5 * handoff_rate + 0.5 * updated
        result = solve_guard_channel(
            capacity, guard, new_call_rate, handoff_rate, holding
        )
    return result
