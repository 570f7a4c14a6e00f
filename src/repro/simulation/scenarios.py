"""Canned scenario builders for the paper's evaluation settings (§5)."""

from __future__ import annotations

from dataclasses import replace

from repro.mobility.models import TravelDirections
from repro.mobility.speed import HIGH_MOBILITY, LOW_MOBILITY
from repro.simulation.config import SimulationConfig
from repro.traffic.profiles import paper_load_profile, paper_speed_profile

#: Hours in two simulated days (the §5.3 run length).
TWO_DAYS = 2 * 86_400.0


def stationary(
    scheme: str,
    offered_load: float,
    voice_ratio: float = 1.0,
    high_mobility: bool = True,
    duration: float = 2000.0,
    warmup: float = 0.0,
    seed: int = 1,
    **overrides: object,
) -> SimulationConfig:
    """A §5.2 stationary run: fixed load and speed range, ring of 10.

    ``T_int`` is infinite (the paper uses ``T_int = inf`` when traffic
    does not vary within a run).
    """
    speed_range = HIGH_MOBILITY if high_mobility else LOW_MOBILITY
    config = SimulationConfig(
        scheme=scheme,
        offered_load=offered_load,
        voice_ratio=voice_ratio,
        speed_range=speed_range,
        t_int=None,
        duration=duration,
        warmup=warmup,
        seed=seed,
        label=(
            f"{scheme} L={offered_load:g} Rvo={voice_ratio:g} "
            f"{'high' if high_mobility else 'low'}-mobility"
        ),
    )
    return replace(config, **overrides) if overrides else config


def one_directional(
    scheme: str,
    offered_load: float = 300.0,
    voice_ratio: float = 1.0,
    duration: float = 2000.0,
    seed: int = 1,
    **overrides: object,
) -> SimulationConfig:
    """The Table 3 scenario: one-way flow on an *open* road.

    All mobiles drive from cell 0 toward cell ``n-1``; the border cells
    are disconnected, so cell 0 sees no incoming hand-offs and mobiles
    leaving the last cell exit the system.
    """
    config = SimulationConfig(
        scheme=scheme,
        offered_load=offered_load,
        voice_ratio=voice_ratio,
        speed_range=HIGH_MOBILITY,
        directions=TravelDirections.ONE_WAY,
        ring=False,
        duration=duration,
        seed=seed,
        label=f"{scheme} one-way L={offered_load:g}",
    )
    return replace(config, **overrides) if overrides else config


def time_varying(
    scheme: str,
    peak_load: float = 180.0,
    base_load: float = 20.0,
    days: float = 2.0,
    time_compression: float = 1.0,
    seed: int = 1,
    **overrides: object,
) -> SimulationConfig:
    """The §5.3 two-day scenario: rush-hour load/speed cycles + retries.

    ``T_int`` is one hour and yesterday's observations still count
    (``N_win-days = 1``, ``w_0 = w_1 = 1``), exactly the paper's
    parameters.

    Parameters
    ----------
    time_compression:
        Play a full "day" in ``86400 / time_compression`` simulated
        seconds.  The profile shapes, estimator period, ``T_int`` and
        hourly buckets are all scaled consistently, so the result keeps
        the paper's structure at a fraction of the compute (mobiles and
        connection lifetimes are *not* scaled — compression > ~8 makes
        peaks shorter than connection lifetimes and distorts shapes).
    """
    if time_compression < 1.0:
        raise ValueError("time_compression must be >= 1")
    day_seconds = 86_400.0 / time_compression
    config = SimulationConfig(
        scheme=scheme,
        load_profile=paper_load_profile(
            peak=peak_load, base=base_load, day_seconds=day_seconds
        ),
        speed_profile=paper_speed_profile(day_seconds=day_seconds),
        retry_enabled=True,
        t_int=day_seconds / 24.0,
        weights=(1.0, 1.0),
        day_seconds=day_seconds,
        duration=days * day_seconds,
        hourly_stats=True,
        sample_interval=60.0 / time_compression,
        seed=seed,
        label=f"{scheme} time-varying",
    )
    return replace(config, **overrides) if overrides else config


def _hex_distance(row_a: int, col_a: int, row_b: int, col_b: int) -> int:
    """Hex-grid distance between two odd-row offset coordinates."""
    x_a = col_a - (row_a - (row_a & 1)) // 2
    x_b = col_b - (row_b - (row_b & 1)) // 2
    dx = x_a - x_b
    dz = row_a - row_b
    return (abs(dx) + abs(dx + dz) + abs(dz)) // 2


def hotspot_weights(
    rows: int,
    cols: int,
    hotspots: tuple[tuple[float, ...], ...],
) -> tuple[float, ...]:
    """Per-cell load weights for a city with traffic hot spots.

    Each hot spot is ``(row, col, gain)`` or ``(row, col, gain, radius)``
    (default radius 2 cells): cells gain ``gain * exp(-d / radius)``
    extra weight with ``d`` the hex distance to the spot.  The result is
    normalised to mean 1.0, so the *network-wide* offered load of the
    scenario is unchanged — only its spatial distribution shifts.  This
    is the knob that makes the load-balanced shard plan
    (:func:`~repro.simulation.spatial.partition_hex`) differ from plain
    row counting.
    """
    from math import exp

    weights = []
    for row in range(rows):
        for col in range(cols):
            weight = 1.0
            for spot in hotspots:
                s_row, s_col, gain = int(spot[0]), int(spot[1]), float(spot[2])
                radius = float(spot[3]) if len(spot) > 3 else 2.0
                if radius <= 0:
                    raise ValueError("hotspot radius must be positive")
                distance = _hex_distance(row, col, s_row, s_col)
                weight += gain * exp(-distance / radius)
            weights.append(weight)
    mean = sum(weights) / len(weights)
    return tuple(weight / mean for weight in weights)


def hex_city(
    scheme: str,
    rows: int = 12,
    cols: int = 12,
    wrap: bool = True,
    offered_load: float = 100.0,
    voice_ratio: float = 1.0,
    duration: float = 600.0,
    warmup: float = 0.0,
    seed: int = 1,
    hotspots: tuple[tuple[float, ...], ...] = (),
    cell_weights: tuple[float, ...] | None = None,
    **overrides: object,
) -> SimulationConfig:
    """A 2-D hex-city scenario for the spatial sharding runner.

    The grid dimensions ride in ``config.extra`` (the config dataclass
    stays topology-agnostic); :func:`repro.simulation.spatial.run_spatial`
    reads them back.  ``T_int`` is infinite like the stationary runs —
    spatial mode refreshes ``B_r`` at epoch barriers instead of ticks.

    ``hotspots`` (``(row, col, gain[, radius])`` tuples, see
    :func:`hotspot_weights`) or an explicit per-cell ``cell_weights``
    vector make the offered load spatially non-uniform; the weights
    ride in ``config.extra["cell_weights"]`` and scale each cell's
    arrival rate (mean-1.0 normalised hot spots keep the network-wide
    load equal to ``offered_load``).
    """
    extra: dict = {"hex_rows": rows, "hex_cols": cols, "hex_wrap": wrap}
    if hotspots and cell_weights is not None:
        raise ValueError("pass hotspots or cell_weights, not both")
    if hotspots:
        cell_weights = hotspot_weights(rows, cols, hotspots)
    if cell_weights is not None:
        if len(cell_weights) != rows * cols:
            raise ValueError(
                f"cell_weights needs {rows * cols} entries,"
                f" got {len(cell_weights)}"
            )
        extra["cell_weights"] = tuple(float(w) for w in cell_weights)
    config = SimulationConfig(
        scheme=scheme,
        offered_load=offered_load,
        voice_ratio=voice_ratio,
        num_cells=rows * cols,
        t_int=None,
        duration=duration,
        warmup=warmup,
        seed=seed,
        label=f"{scheme} hex {rows}x{cols} L={offered_load:g}",
        extra=extra,
    )
    return replace(config, **overrides) if overrides else config
