"""Event ordering for the discrete-event simulation kernel.

An event is the heap entry ``(time, priority, sequence, callback,
args)`` that :meth:`repro.des.engine.Engine.call_at` pushes; this module
names the priorities that order simultaneous events.
"""

from __future__ import annotations

import enum


class EventPriority(enum.IntEnum):
    """Tie-break priority for events scheduled at the same instant.

    Lower values fire first.  Departures are processed before arrivals
    at the same instant so that bandwidth freed by an ending connection
    is visible to an admission test occurring at the same time.
    """

    DEPARTURE = 0
    HANDOFF = 1
    ARRIVAL = 2
    CONTROL = 3
    DEFAULT = 5
    MONITOR = 9
