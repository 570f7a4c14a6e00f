"""The discrete-event simulation engine: a binary heap and a clock.

An event *is* its heap entry — the tuple ``(time, priority, sequence,
callback, args)``.  Entries are totally ordered by their first three
fields, so simultaneous events fire in a deterministic order: first by
explicit priority, then by scheduling order.  Nothing is ever removed
from the heap except by firing: the call life-cycle gives a connection
exactly one possible next event, so no caller has anything to cancel.

An engine may have an *owner* — the simulator or shard that drives it —
which holds the engine and schedules its own handler *functions*
(``CellularSimulator._on_arrival``, not a bound method).  The engine
holds the owner only through a weak reference, and :meth:`Engine.run`
binds the owner's handlers once per call into a table that lives as
long as that call.  So no pending event points back out of the run: a
dropped simulator is freed by reference counting, with its queue,
network and caches, instead of waiting for the cycle collector.  A
callback that is not one of the owner's handlers is called as it is,
which is all an ownerless ``Engine()`` ever does.

Example
-------
>>> from repro.des import Engine
>>> eng = Engine()
>>> fired = []
>>> eng.call_at(3.0, lambda: fired.append(eng.now))
>>> eng.call_in(1.0, lambda: fired.append(eng.now))
>>> eng.run()
>>> fired
[1.0, 3.0]
"""

from __future__ import annotations

import heapq
import weakref
from typing import Any, Callable, Iterable, Iterator

from repro.des.events import EventPriority

#: Fired events between two calls of :meth:`Engine.run`'s observer.
#: Both consumers (the time-series sampler, whose rows are also the
#: progress lines, and the checkpointer) throttle themselves further on
#: virtual or wall time; this only bounds hook-call overhead.
OBSERVER_EVENTS = 512


class SimulationError(RuntimeError):
    """Raised on engine misuse (e.g. scheduling in the past)."""


class Engine:
    """A single-threaded discrete-event simulation engine.

    Parameters
    ----------
    start_time:
        Initial value of the virtual clock (seconds).
    owner:
        The object that drives this engine, held weakly.
    handlers:
        The owner's event handlers, as plain functions: what the owner
        schedules, and what each :meth:`run` binds to it.
    """

    def __init__(
        self,
        start_time: float = 0.0,
        owner: object = None,
        handlers: Iterable[Callable[..., None]] = (),
    ) -> None:
        self._now = float(start_time)
        self._owner = None if owner is None else weakref.ref(owner)
        self._handlers = tuple(handlers)
        #: Binary heap of ``(time, priority, sequence, callback, args)``.
        #: ``sequence`` is unique, so a comparison is decided in C by the
        #: first three fields and never reaches the callback.
        self._queue: list[tuple[float, int, int, Callable[..., None], tuple]] = []
        self._sequence = 0
        self._running = False
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def sequence(self) -> int:
        """Next scheduling order stamp to be issued.

        Stamps are monotonic per engine and break (time, priority) ties,
        so the checkpoint store records each pending event's stamp and
        re-schedules in stamp order on restore — relative order (and
        therefore the exact firing sequence) is preserved even though
        the absolute numbering restarts.
        """
        return self._sequence

    @property
    def pending(self) -> int:
        """Number of events still in the queue."""
        return len(self._queue)

    def queued(self) -> Iterator[tuple]:
        """The pending ``(time, priority, sequence, callback, args)``
        entries, in heap order — the one place the entry layout is read
        from outside (checkpoint capture, tests).  An owned event's
        ``callback`` is the unbound handler function."""
        return iter(self._queue)

    def _bound_handlers(self) -> dict:
        """This run's ``handler -> callable`` table: each handler bound
        to the living owner, or, once the owner is gone, to a refusal."""
        if self._owner is None:
            return {}
        owner = self._owner()
        if owner is None:
            return {handler: _orphaned(handler) for handler in self._handlers}
        return {handler: handler.__get__(owner) for handler in self._handlers}

    def call_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = EventPriority.DEFAULT,
    ) -> None:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        # Written so that NaN fails it: a NaN clock would make every
        # later ``time < now`` test false and let time run backwards.
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        heapq.heappush(
            self._queue, (time, int(priority), sequence, callback, args)
        )

    def call_in(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = EventPriority.DEFAULT,
    ) -> None:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.call_at(self._now + delay, callback, *args, priority=priority)

    def advance_to(self, time: float) -> int:
        """Drive the clock to ``time`` from an *external* source.

        This is the streaming-mode entry point (:mod:`repro.serve`): a
        wall-clock driver injects timestamped events with
        :meth:`call_at` and then advances the engine to each event's
        timestamp, firing everything due on the way — internal events
        (monitor samples, retries) interleave with the injected ones in
        exactly the order a virtual-time :meth:`run` would have fired
        them, because both paths drain the same heap with the same
        ``(time, priority, sequence)`` ordering.  Returns the number of
        events fired.

        Unlike :meth:`run`, a ``time`` in the past (or NaN) is an error
        rather than a no-op: an external clock must be monotonic, and
        silently reordering its timestamps would desynchronise the
        streamed decisions from their DES replay.
        """
        if not time >= self._now:
            raise SimulationError(
                f"external clock went backwards: t={time} < now={self._now}"
            )
        before = self.events_processed
        self.run(until=time)
        return self.events_processed - before

    def run(
        self,
        until: float | None = None,
        observer: Callable[[], None] | None = None,
    ) -> None:
        """Run until the queue drains or ``until`` is reached.

        Parameters
        ----------
        until:
            Horizon in virtual seconds.  Events scheduled strictly after
            the horizon are left in the queue and the clock is advanced
            to exactly ``until``.
        observer:
            Optional hook invoked every :data:`OBSERVER_EVENTS` fired
            events (sampling, progress, checkpoints).  It observes the
            engine and must not schedule, so a run with an observer
            fires exactly the events it would without one.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        bound = self._bound_handlers().get
        self._running = True
        queue = self._queue
        heappop = heapq.heappop
        countdown = OBSERVER_EVENTS
        try:
            # Events are dispatched in same-timestamp *runs*: the outer
            # loop advances the clock and checks the horizon once per
            # distinct timestamp, the inner loop then drains every
            # event at exactly that time (coalesced admission tests
            # schedule bursts of equal-time events, so runs of 2+ are
            # the common case, not the exception).  Events scheduled
            # *during* the run at the same time join it — the inner
            # loop re-reads the heap head after each fire, preserving
            # the exact one-at-a-time firing order.
            while queue:
                time = queue[0][0]
                if until is not None and time > until:
                    break
                if time < self._now:
                    raise SimulationError(
                        "event queue corrupted: time went backwards"
                    )
                self._now = time
                while True:
                    _, _, _, callback, args = heappop(queue)
                    self.events_processed += 1
                    bound(callback, callback)(*args)
                    if observer is not None:
                        countdown -= 1
                        if not countdown:
                            observer()
                            countdown = OBSERVER_EVENTS
                    if not queue or queue[0][0] != time:
                        break
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False


def _orphaned(handler: Callable[..., None]) -> Callable[..., None]:
    """A stand-in for ``handler`` whose owner was freed: it refuses
    rather than call the plain function without its ``self``."""

    def refuse(*args: Any) -> None:
        raise SimulationError(
            f"cannot fire {handler.__qualname__}: the engine's owner is gone"
        )

    return refuse
