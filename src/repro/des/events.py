"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` couples a firing time with a callback.  Events are
totally ordered by ``(time, priority, sequence)`` so that simultaneous
events fire in a deterministic order: first by explicit priority, then
by scheduling order.  Events may be cancelled; cancelled events stay in
the heap but are skipped by the engine (lazy deletion).

``Event`` is the single most-allocated object of a simulation run, so
it is a hand-rolled ``__slots__`` class: no instance ``__dict__``, a
plain ``__init__`` (no dataclass machinery), and a ``__lt__`` that
compares only the ordering triple instead of a generated full-field
tuple comparison.
"""

from __future__ import annotations

import enum
from typing import Any, Callable


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


class Event:
    """A scheduled callback in virtual time.

    Instances are created via :meth:`repro.des.engine.Engine.call_at`;
    user code normally only keeps them around to :meth:`cancel` them.
    """

    __slots__ = (
        "time",
        "priority",
        "sequence",
        "callback",
        "args",
        "cancelled",
        "_cancel_hook",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
        cancelled: bool = False,
        _cancel_hook: Callable[[], None] | None = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = cancelled
        #: Owner notification (engine bookkeeping of dead heap entries);
        #: invoked at most once, on the first :meth:`cancel`.
        self._cancel_hook = _cancel_hook

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.sequence < other.sequence

    def cancel(self) -> None:
        """Prevent this event from firing.

        Cancelling an already-fired or already-cancelled event is a
        harmless no-op; the engine skips cancelled entries lazily.
        """
        if self.cancelled:
            return
        self.cancelled = True
        hook = self._cancel_hook
        if hook is not None:
            self._cancel_hook = None
            hook()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(time={self.time!r}, priority={self.priority!r},"
            f" sequence={self.sequence!r}, cancelled={self.cancelled!r})"
        )
