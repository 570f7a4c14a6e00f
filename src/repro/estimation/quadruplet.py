"""The hand-off event quadruplet (paper §3.1).

Whenever a mobile departs a cell, that cell's base station caches
``(T_event, prev, next, T_soj)``: departure time, the cell the mobile
came from (``None`` if the connection was born in this cell — the
paper's ``prev = 0``), the cell it entered, and its sojourn time here.

Quadruplets are created on every hand-off and held by the thousands in
:class:`repro.estimation.cache.QuadrupletCache`, so the class is a
:class:`~repro.record.Record` rather than a dataclass: no instance
``__dict__``, and construction skips the frozen-dataclass
``object.__setattr__`` detour.
"""

from __future__ import annotations

from repro.record import Record


class HandoffQuadruplet(Record):
    """One observed hand-off departure.

    Attributes
    ----------
    event_time:
        ``T_event`` — virtual time (seconds) when the mobile left.
        Negative for history imported from a prior warm-up run (the
        replication runner rebases that history before the shard's
        t=0, keeping the cache's record-in-time-order invariant).
    prev:
        Global id of the previously-resided cell, or ``None`` when the
        connection started in the observing cell.
    next:
        Global id of the cell the mobile moved into.
    sojourn:
        ``T_soj`` — seconds between entering and leaving the observing
        cell.
    """

    __slots__ = ("event_time", "prev", "next", "sojourn")

    def __init__(
        self,
        event_time: float,
        prev: int | None,
        next: int,
        sojourn: float,
    ) -> None:
        if sojourn < 0:
            raise ValueError(f"negative sojourn time {sojourn}")
        self.event_time = event_time
        self.prev = prev
        self.next = next
        self.sojourn = sojourn
