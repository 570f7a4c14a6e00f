"""Mobility models: where mobiles appear and when they change cells.

A mobility model answers two questions for the simulator:

* :meth:`MobilityModel.spawn` — create the mobile for a new connection
  appearing in a given cell (uniform position within the cell, A2);
* :meth:`MobilityModel.next_transition` — when, and into which cell,
  the mobile will next cross a boundary (``None`` if never).

Implementations:

* :class:`LinearMobilityModel` — the paper's straight road (A1/A4):
  constant speed, fixed direction, deterministic 1-km traversals.
  Supports two-way traffic, one-way traffic (Table 3) and a fraction of
  stationary users.
* :class:`HexMobilityModel` — 2-D extension (§7 future work): mixed
  stationary/pedestrian/vehicular population on a hex grid with heading
  persistence, so the aggregate history has learnable structure.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Protocol

from repro.cellular.base_station import EXIT_CELL
from repro.cellular.topology import HexTopology, LinearTopology
from repro.mobility.mobile import Mobile
from repro.mobility.speed import SpeedSampler
from repro.record import Record


class Transition(Record):
    """A future boundary crossing: at ``time``, into ``next_cell``.

    ``next_cell`` is :data:`~repro.cellular.base_station.EXIT_CELL` when
    the mobile drives off an open road's end.
    """

    __slots__ = ("time", "next_cell")

    def __init__(self, time: float, next_cell: int) -> None:
        self.time = time
        self.next_cell = next_cell


class MobilityModel(Protocol):
    """What the simulator needs from a mobility model."""

    def spawn(self, cell_id: int, now: float, rng: random.Random) -> Mobile:
        ...

    def next_transition(
        self, mobile: Mobile, now: float, rng: random.Random
    ) -> Transition | None:
        ...


class TravelDirections(enum.Enum):
    """Direction mix on the 1-D road."""

    TWO_WAY = "two_way"      # A4: either direction with equal probability
    ONE_WAY = "one_way"      # Table 3: everyone drives cell 0 -> cell n-1


class LinearMobilityModel:
    """Constant-velocity mobiles on the paper's straight road.

    Parameters
    ----------
    topology:
        The road (provides geometry and ring/line behaviour).
    speed_sampler:
        Creation-time speed distribution.
    directions:
        Two-way (default, A4) or one-way (Table 3 scenario).
    stationary_fraction:
        Probability that a new mobile never moves (0 in the paper's 1-D
        runs; used by mixed-population scenarios).
    """

    def __init__(
        self,
        topology: LinearTopology,
        speed_sampler: SpeedSampler,
        directions: TravelDirections = TravelDirections.TWO_WAY,
        stationary_fraction: float = 0.0,
    ) -> None:
        if not 0.0 <= stationary_fraction <= 1.0:
            raise ValueError("stationary fraction must be in [0, 1]")
        self.topology = topology
        self.speed_sampler = speed_sampler
        self.directions = directions
        self.stationary_fraction = stationary_fraction
        #: The id :meth:`spawn` gives the next mobile (checkpoints carry it).
        self.next_mobile_id = 0

    def spawn(self, cell_id: int, now: float, rng: random.Random) -> Mobile:
        mobile_id = self.next_mobile_id
        self.next_mobile_id = mobile_id + 1
        low, high = self.topology.cell_span_km(cell_id)
        position = rng.uniform(low, high)
        if (
            self.stationary_fraction > 0.0
            and rng.random() < self.stationary_fraction
        ):
            speed, direction = 0.0, 0
        else:
            if self.directions is TravelDirections.ONE_WAY:
                direction = 1
            else:
                direction = 1 if rng.random() < 0.5 else -1
            speed = self.speed_sampler.sample(now, rng)
        return Mobile(
            position,
            speed,
            direction,
            cell_id,
            position_time=now,
            mobile_id=mobile_id,
        )

    def next_transition(
        self, mobile: Mobile, now: float, rng: random.Random | None = None
    ) -> Transition | None:
        if not mobile.is_moving:
            return None
        low, high = self.topology.cell_span_km(mobile.cell_id)
        if mobile.direction > 0:
            distance = high - mobile.position_km
        else:
            distance = mobile.position_km - low
        # A mobile pinned exactly on the boundary it just crossed must
        # traverse the full cell.
        if distance <= 0.0:
            distance = self.topology.cell_diameter_km
        delay = distance / mobile.speed_km_per_s
        next_cell = self._next_cell(mobile.cell_id, mobile.direction)
        return Transition(now + delay, next_cell)

    def crossing_position(self, mobile: Mobile) -> float:
        """Road coordinate of the boundary the mobile will cross next."""
        low, high = self.topology.cell_span_km(mobile.cell_id)
        boundary = high if mobile.direction > 0 else low
        return self.topology.wrap_position(boundary)

    def _next_cell(self, cell_id: int, direction: int) -> int:
        candidate = cell_id + direction
        if self.topology.ring:
            return candidate % self.topology.num_cells
        if 0 <= candidate < self.topology.num_cells:
            return candidate
        return EXIT_CELL


@dataclass(frozen=True, slots=True)
class PopulationClass:
    """One class of users on the hex grid (§7 mixed populations)."""

    name: str
    fraction: float
    mean_sojourn: float  # seconds per cell; <= 0 means stationary
    heading_persistence: float = 0.7  # P(keep going the same way)


DEFAULT_HEX_POPULATION = (
    PopulationClass("vehicular", 0.3, 45.0, heading_persistence=0.85),
    PopulationClass("pedestrian", 0.5, 400.0, heading_persistence=0.6),
    PopulationClass("stationary", 0.2, 0.0),
)


class HexMobilityModel:
    """Heading-persistent movement on a hexagonal grid.

    Sojourn times are exponential around the class mean; the next cell
    keeps the previous heading with probability ``heading_persistence``
    and otherwise deviates to one of the two adjacent headings — giving
    the (prev, next) correlation the estimator is designed to learn.
    """

    #: Minimum hand-off notice in seconds: sojourns are clamped so a
    #: mobile entering a cell never crosses again sooner than this.
    #: The spatial sharding layer relies on it as conservative
    #: lookahead — its epoch barrier interval must not exceed it.
    MIN_NOTICE = 1.0

    def __init__(
        self,
        topology: HexTopology,
        population: tuple[PopulationClass, ...] = DEFAULT_HEX_POPULATION,
    ) -> None:
        total = sum(member.fraction for member in population)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"population fractions sum to {total}, not 1")
        self.topology = topology
        self.population = population
        self._class_of: dict[int, PopulationClass] = {}
        #: The id :meth:`spawn` gives the next mobile.
        self.next_mobile_id = 0

    def spawn(self, cell_id: int, now: float, rng: random.Random) -> Mobile:
        mobile_id = self.next_mobile_id
        self.next_mobile_id = mobile_id + 1
        index, heading = draw_spawn(self.population, rng)
        chosen = self.population[index]
        # Encode "speed" so is_moving holds; sojourns are sampled
        # directly, so only positivity matters.
        speed = 1.0 if chosen.mean_sojourn > 0 else 0.0
        self._class_of[mobile_id] = chosen
        return Mobile(
            0.0,
            speed,
            heading,
            cell_id,
            position_time=now,
            mobile_id=mobile_id,
        )

    def next_transition(
        self, mobile: Mobile, now: float, rng: random.Random | None = None
    ) -> Transition | None:
        member = self._class_of.get(mobile.mobile_id)
        if member is None or member.mean_sojourn <= 0:
            return None
        neighbors = self.topology.neighbors(mobile.cell_id)
        if not neighbors:
            return None
        if rng is None:
            rng = random.Random(
                hash((mobile.mobile_id, round(now * 1000)))
            )
        sojourn, index = draw_hop(member, mobile.direction, rng)
        mobile.direction = index
        next_cell = neighbors[index % len(neighbors)]
        return Transition(now + sojourn, next_cell)

    def forget(self, mobile: Mobile) -> None:
        """Release per-mobile state once its connection ends."""
        self._class_of.pop(mobile.mobile_id, None)


# The hex movement rule's two draws, shared with the sharded runner's
# coordinate streams so every draw is made in one order in one place.


def draw_spawn(
    population: tuple[PopulationClass, ...], rng: random.Random
) -> tuple[int, int]:
    """A new mobile's ``(population index, heading)``.

    One ``rng.random()`` picks the class by cumulative fraction (the
    last class takes any rounding remainder); a moving class then draws
    its first heading with ``rng.randrange(6)``, a stationary one keeps
    heading 0.
    """
    draw = rng.random()
    cumulative = 0.0
    index = len(population) - 1
    for position, member in enumerate(population):
        cumulative += member.fraction
        if draw < cumulative:
            index = position
            break
    if population[index].mean_sojourn <= 0:
        return index, 0
    return index, rng.randrange(6)


def draw_hop(
    member: PopulationClass, heading: int, rng: random.Random
) -> tuple[float, int]:
    """A moving mobile's ``(sojourn, new heading)`` for its next hop.

    The sojourn is exponential around the class mean, clamped to
    :attr:`HexMobilityModel.MIN_NOTICE`; the heading is kept with
    probability ``heading_persistence`` and otherwise turns to one of
    the two adjacent headings.
    """
    sojourn = rng.expovariate(1.0 / member.mean_sojourn)
    heading %= 6
    if rng.random() >= member.heading_persistence:
        heading = (heading + rng.choice((-1, 1))) % 6
    return max(sojourn, HexMobilityModel.MIN_NOTICE), heading
