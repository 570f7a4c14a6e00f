"""Simulation harness (S8): config, simulator, metrics, scenarios."""

from repro.simulation.config import SimulationConfig
from repro.simulation.metrics import (
    CellCounters,
    CellStatus,
    HourlyBucket,
    MetricsCollector,
    SimulationResult,
    TracePoint,
)
from repro.simulation.runner import (
    DEFAULT_LOAD_AXIS,
    run_sweep,
    sweep_offered_load,
)
from repro.simulation.scenarios import (
    TWO_DAYS,
    hex_city,
    one_directional,
    stationary,
    time_varying,
)
from repro.simulation.simulator import CellularSimulator, simulate
from repro.simulation.spatial import ShardPlan, partition_hex, run_spatial

__all__ = [
    "CellCounters",
    "CellStatus",
    "CellularSimulator",
    "DEFAULT_LOAD_AXIS",
    "HourlyBucket",
    "MetricsCollector",
    "ShardPlan",
    "SimulationConfig",
    "SimulationResult",
    "TWO_DAYS",
    "TracePoint",
    "hex_city",
    "one_directional",
    "partition_hex",
    "run_spatial",
    "run_sweep",
    "simulate",
    "stationary",
    "sweep_offered_load",
    "time_varying",
]
