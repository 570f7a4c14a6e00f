"""Connection state: one mobile's communication session.

The paper assumes one connection per active mobile (§2), so the
connection record doubles as the mobile's session state: which cell it
is in, which cell it came from (``prev``), and when it entered — the
inputs of the Bayes estimator (Eq. 4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.traffic.classes import TrafficClass

if TYPE_CHECKING:  # pragma: no cover
    from repro.mobility.mobile import Mobile


class ConnectionState(enum.Enum):
    """Lifecycle of a connection."""

    ACTIVE = "active"
    COMPLETED = "completed"  # lifetime expired normally
    DROPPED = "dropped"      # hand-off failed for lack of bandwidth
    EXITED = "exited"        # mobile drove off an open road's end


@dataclass(slots=True)
class Connection:
    """One admitted connection and its per-cell session state.

    Slotted: a loaded run carries thousands of live connections and the
    Eq. 5 kernels read their fields in tight loops.

    Attributes
    ----------
    traffic_class:
        Voice or video (fixed bandwidth).
    start_time:
        Admission time of the connection.
    cell_id:
        Cell currently carrying the connection.
    prev_cell:
        Cell the mobile resided in before the current one; ``None``
        while the connection is still in its birth cell (the paper's
        ``prev = 0``).
    cell_entry_time:
        When the mobile entered the current cell — start time for the
        birth cell, last hand-off time afterwards.
    mobile:
        The moving terminal (``None`` for strictly stationary users).
    connection_id:
        Keyword only.  Unique within one run: the simulator that admits
        the connection issues it (checkpoint restore passes the saved
        one back).
    """

    traffic_class: TrafficClass
    start_time: float
    cell_id: int
    mobile: "Mobile | None" = None
    prev_cell: int | None = None
    cell_entry_time: float = 0.0
    connection_id: int = field(kw_only=True)
    state: ConnectionState = ConnectionState.ACTIVE
    end_time: float | None = None
    handoff_count: int = 0
    #: Currently allocated bandwidth; ``None`` means the class's full
    #: rate.  Only adaptive classes ever deviate (QoS degradation).
    allocated_bandwidth: float | None = None
    #: When the lifetime drawn at admission runs out (``None`` until a
    #: driver draws one); ``end_time`` is when the connection actually
    #: ended, which a drop or a road exit can bring forward.
    planned_end: float | None = None

    @property
    def bandwidth(self) -> float:
        """Bandwidth currently allocated to the connection, in BUs."""
        if self.allocated_bandwidth is not None:
            return self.allocated_bandwidth
        return self.traffic_class.bandwidth

    @property
    def full_bandwidth(self) -> float:
        """The class's preferred (undegraded) rate."""
        return self.traffic_class.bandwidth

    @property
    def min_bandwidth(self) -> float:
        """Degradation floor (equals the full rate for rigid classes)."""
        return getattr(
            self.traffic_class, "min_bandwidth", self.traffic_class.bandwidth
        )

    @property
    def reservation_basis(self) -> float:
        """Bandwidth Eq. 5 should reserve for this connection's hand-off.

        Paper §1: with adaptive QoS, reservation is made on the basis of
        the *minimum* QoS; rigid connections reserve their full rate.
        """
        return self.min_bandwidth

    @property
    def is_degraded(self) -> bool:
        return self.bandwidth < self.full_bandwidth

    @property
    def is_active(self) -> bool:
        return self.state is ConnectionState.ACTIVE

    def extant_sojourn(self, now: float) -> float:
        """``T_ext-soj`` — seconds spent in the current cell so far."""
        return now - self.cell_entry_time

    def move_to(self, new_cell: int, now: float) -> None:
        """Update session state after a successful hand-off."""
        self.prev_cell = self.cell_id
        self.cell_id = new_cell
        self.cell_entry_time = now
        self.handoff_count += 1

    def finish(self, state: ConnectionState, now: float) -> None:
        """Terminate the connection (idempotence is an error)."""
        if not self.is_active:
            raise RuntimeError(
                f"connection {self.connection_id} already {self.state.value}"
            )
        self.state = state
        self.end_time = now
