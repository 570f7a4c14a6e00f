"""Planar 2-D mobility on a hexagonally tiled plane (paper §7).

Unlike :class:`~repro.mobility.models.HexMobilityModel` (which samples
sojourns abstractly), this model gives mobiles real coordinates: each
travels in a straight line at constant speed (the planar analogue of
assumption A4), and cell boundaries are the Voronoi edges between hex
cell centers.  Crossings are computed in closed form — the first
perpendicular-bisector crossing toward any neighbour — so the hand-off
geometry is exact.

Straight-line travel creates exactly the (prev, next) structure §3's
estimator is built to learn: a mobile that entered from the west almost
surely leaves to the east.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.cellular.base_station import EXIT_CELL
from repro.cellular.topology import HexTopology
from repro.mobility.mobile import Mobile
from repro.mobility.models import Transition
from repro.mobility.speed import SpeedSampler

#: Circumradius giving hexagons 1 km across flats (neighbour centers
#: sqrt(3)*R = 1 km apart), matching the paper's 1 km cell diameter.
UNIT_CELL_RADIUS = 1.0 / math.sqrt(3.0)


class HexGeometry:
    """Pointy-top hexagonal lattice matching a :class:`HexTopology`.

    Parameters
    ----------
    topology:
        The grid (must be non-wrapped: a torus has no planar embedding
        with straight-line travel).
    cell_radius_km:
        Hexagon circumradius ``R``; neighbour centers sit
        ``sqrt(3) * R`` apart.
    """

    def __init__(
        self,
        topology: HexTopology,
        cell_radius_km: float = UNIT_CELL_RADIUS,
    ) -> None:
        if topology.wrap:
            raise ValueError("planar geometry needs a non-wrapped grid")
        if cell_radius_km <= 0:
            raise ValueError("cell radius must be positive")
        self.topology = topology
        self.radius = float(cell_radius_km)
        self._centers: list[tuple[float, float]] = []
        for cell_id in range(topology.num_cells):
            row, col = topology.coordinates(cell_id)
            x = (col + 0.5 * (row % 2)) * math.sqrt(3.0) * self.radius
            y = row * 1.5 * self.radius
            self._centers.append((x, y))

    def center(self, cell_id: int) -> tuple[float, float]:
        """Cartesian center of a cell (km)."""
        return self._centers[cell_id]

    def cell_of(self, x: float, y: float) -> int:
        """Cell whose center is nearest to ``(x, y)`` (Voronoi rule)."""
        best, best_distance = 0, float("inf")
        for cell_id, (cx, cy) in enumerate(self._centers):
            distance = (x - cx) ** 2 + (y - cy) ** 2
            if distance < best_distance:
                best, best_distance = cell_id, distance
        return best

    def neighbor_distance(self) -> float:
        """Distance between adjacent cell centers (km)."""
        return math.sqrt(3.0) * self.radius


@dataclass
class _Trajectory:
    """Birth state of a straight-line mobile; position is derived."""

    x0: float
    y0: float
    t0: float
    vx: float  # km/s
    vy: float

    def position(self, time: float) -> tuple[float, float]:
        dt = time - self.t0
        return self.x0 + self.vx * dt, self.y0 + self.vy * dt


class PlanarHexModel:
    """Straight-line mobiles on the hex plane.

    Parameters
    ----------
    geometry:
        The lattice (topology + cell size).
    speed_sampler:
        Creation-time speed distribution (km/h).
    stationary_fraction:
        Probability a new mobile never moves.
    """

    def __init__(
        self,
        geometry: HexGeometry,
        speed_sampler: SpeedSampler,
        stationary_fraction: float = 0.0,
    ) -> None:
        if not 0.0 <= stationary_fraction <= 1.0:
            raise ValueError("stationary fraction must be in [0, 1]")
        self.geometry = geometry
        self.topology = geometry.topology
        self.speed_sampler = speed_sampler
        self.stationary_fraction = stationary_fraction
        self._trajectories: dict[int, _Trajectory] = {}
        #: The id :meth:`spawn` gives the next mobile.
        self.next_mobile_id = 0

    # ------------------------------------------------------------------
    # MobilityModel interface
    # ------------------------------------------------------------------
    def spawn(self, cell_id: int, now: float, rng: random.Random) -> Mobile:
        mobile_id = self.next_mobile_id
        self.next_mobile_id = mobile_id + 1
        x, y = self._sample_point_in_cell(cell_id, rng)
        if (
            self.stationary_fraction > 0.0
            and rng.random() < self.stationary_fraction
        ):
            speed_kmh, vx, vy = 0.0, 0.0, 0.0
        else:
            speed_kmh = self.speed_sampler.sample(now, rng)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            speed = speed_kmh / 3600.0
            vx, vy = speed * math.cos(angle), speed * math.sin(angle)
        self._trajectories[mobile_id] = _Trajectory(x, y, now, vx, vy)
        return Mobile(
            0.0, speed_kmh, 0, cell_id, position_time=now, mobile_id=mobile_id
        )

    def next_transition(
        self, mobile: Mobile, now: float, rng: random.Random | None = None
    ) -> Transition | None:
        trajectory = self._trajectories.get(mobile.mobile_id)
        if trajectory is None or not mobile.is_moving:
            return None
        x, y = trajectory.position(now)
        cx, cy = self.geometry.center(mobile.cell_id)
        best_time, best_cell = None, EXIT_CELL
        for neighbor in self.topology.neighbors(mobile.cell_id):
            nx, ny = self.geometry.center(neighbor)
            dx, dy = nx - cx, ny - cy
            approach = trajectory.vx * dx + trajectory.vy * dy
            if approach <= 1e-15:
                continue  # moving parallel to or away from this border
            mx, my = (cx + nx) / 2.0, (cy + ny) / 2.0
            t = ((mx - x) * dx + (my - y) * dy) / approach
            if t <= 1e-9:
                continue
            if best_time is None or t < best_time:
                best_time, best_cell = t, neighbor
        if best_time is None:
            # Heading out of the lattice: report the exit when the
            # mobile is clearly beyond its own cell.
            exit_time = self._time_to_leave_cell(trajectory, now, (cx, cy))
            if exit_time is None:
                return None
            return Transition(now + exit_time, EXIT_CELL)
        return Transition(now + best_time, best_cell)

    def forget(self, mobile: Mobile) -> None:
        """Release a finished mobile's trajectory."""
        self._trajectories.pop(mobile.mobile_id, None)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def position_of(self, mobile: Mobile, now: float) -> tuple[float, float]:
        """Current coordinates of a tracked mobile (km)."""
        trajectory = self._trajectories[mobile.mobile_id]
        return trajectory.position(now)

    def _sample_point_in_cell(
        self, cell_id: int, rng: random.Random
    ) -> tuple[float, float]:
        """Uniform point in the cell's Voronoi hexagon (rejection)."""
        cx, cy = self.geometry.center(cell_id)
        radius = self.geometry.radius
        for _ in range(200):
            x = cx + rng.uniform(-radius, radius)
            y = cy + rng.uniform(-radius, radius)
            if self.geometry.cell_of(x, y) == cell_id:
                return x, y
        return cx, cy  # pathological RNG: fall back to the center

    def _time_to_leave_cell(
        self,
        trajectory: _Trajectory,
        now: float,
        center: tuple[float, float],
    ) -> float | None:
        """Seconds until the mobile is ``2R`` from its cell center."""
        speed = math.hypot(trajectory.vx, trajectory.vy)
        if speed <= 0.0:
            return None
        x, y = trajectory.position(now)
        cx, cy = center
        # Solve |p + t v - c| = 2R for the positive root.
        px, py = x - cx, y - cy
        target = 2.0 * self.geometry.radius
        a = speed * speed
        b = 2.0 * (px * trajectory.vx + py * trajectory.vy)
        c = px * px + py * py - target * target
        discriminant = b * b - 4.0 * a * c
        if discriminant < 0.0:
            return None
        t = (-b + math.sqrt(discriminant)) / (2.0 * a)
        return t if t > 1e-9 else None
