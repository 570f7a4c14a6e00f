"""Mobility substrate (S3): mobiles, movement models, speed samplers."""

from repro.mobility.mobile import Mobile
from repro.mobility.models import (
    DEFAULT_HEX_POPULATION,
    HexMobilityModel,
    LinearMobilityModel,
    MobilityModel,
    PopulationClass,
    Transition,
    TravelDirections,
)
from repro.mobility.planar import (
    UNIT_CELL_RADIUS,
    HexGeometry,
    PlanarHexModel,
)
from repro.mobility.speed import (
    HIGH_MOBILITY,
    LOW_MOBILITY,
    ConstantSpeedSampler,
    ProfileSpeedSampler,
    SpeedSampler,
    UniformSpeedSampler,
)

__all__ = [
    "DEFAULT_HEX_POPULATION",
    "HIGH_MOBILITY",
    "LOW_MOBILITY",
    "ConstantSpeedSampler",
    "HexGeometry",
    "HexMobilityModel",
    "LinearMobilityModel",
    "Mobile",
    "MobilityModel",
    "PopulationClass",
    "PlanarHexModel",
    "ProfileSpeedSampler",
    "SpeedSampler",
    "Transition",
    "UNIT_CELL_RADIUS",
    "TravelDirections",
    "UniformSpeedSampler",
]
