"""The mobile terminal: position and velocity state.

Positions are road coordinates in km for the 1-D model; the 2-D hex
model tracks only the current cell and a heading.  A mobile's kinematic
state is set at creation and, per paper assumption A4, never changes
(constant speed, never turns around).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class Mobile:
    """One mobile terminal (slotted — one live instance per connection).

    Attributes
    ----------
    position_km:
        Road coordinate (1-D model) at ``position_time``; unused by the
        hex model.
    speed_kmh:
        Travel speed; 0 for stationary users.
    direction:
        +1 / -1 along the road (1-D), or a hex heading index 0–5 (2-D);
        ignored when stationary.
    cell_id:
        Cell currently containing the mobile (kept explicitly so exact
        boundary positions are unambiguous).
    mobile_id:
        Keyword only.  Unique within one run: the mobility model that
        spawns the mobile numbers it.
    """

    position_km: float
    speed_kmh: float
    direction: int
    cell_id: int
    position_time: float = 0.0
    mobile_id: int = field(kw_only=True)

    def __post_init__(self) -> None:
        if self.speed_kmh < 0:
            raise ValueError(f"speed cannot be negative: {self.speed_kmh}")

    @property
    def speed_km_per_s(self) -> float:
        """Speed converted to km/second."""
        return self.speed_kmh / 3600.0

    @property
    def is_moving(self) -> bool:
        return self.speed_kmh > 0.0

    def place(self, position_km: float, cell_id: int, now: float) -> None:
        """Pin the mobile at an exact position (e.g. a cell boundary)."""
        self.position_km = position_km
        self.cell_id = cell_id
        self.position_time = now
