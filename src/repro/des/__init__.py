"""Discrete-event simulation kernel (substrate S1).

Public surface:

* :class:`Engine` — a binary heap of events and a virtual clock.
* :class:`EventPriority` — the order of simultaneous events.
* :class:`RandomStreams` — named deterministic random streams.
* :mod:`repro.des.process` — optional generator-process layer.
"""

from repro.des.engine import Engine, SimulationError
from repro.des.events import EventPriority
from repro.des.random import RandomStreams, exponential
from repro.des.resources import Container, Resource, Store

__all__ = [
    "Container",
    "Engine",
    "EventPriority",
    "RandomStreams",
    "Resource",
    "SimulationError",
    "Store",
    "exponential",
]
