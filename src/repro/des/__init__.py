"""Discrete-event simulation kernel (substrate S1).

Public surface:

* :class:`Engine` — a binary heap of events and a virtual clock.
* :class:`EventPriority` — the order of simultaneous events.
* :class:`RandomStreams` — named deterministic random streams.
"""

from repro.des.engine import Engine, SimulationError
from repro.des.events import EventPriority
from repro.des.random import RandomStreams, exponential

__all__ = [
    "Engine",
    "EventPriority",
    "RandomStreams",
    "SimulationError",
    "exponential",
]
