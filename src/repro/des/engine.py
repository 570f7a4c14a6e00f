"""The discrete-event simulation engine: a binary heap and a clock.

An event *is* its heap entry — the tuple ``(time, priority, sequence,
callback, args)``.  Entries are totally ordered by their first three
fields, so simultaneous events fire in a deterministic order: first by
explicit priority, then by scheduling order.  Nothing is ever removed
from the heap except by firing: the call life-cycle gives a connection
exactly one possible next event, so no caller has anything to cancel.

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
from typing import Any, Callable, Iterator

from repro.des.events import EventPriority

#: Fired events between two calls of :meth:`Engine.run`'s observer.
#: Every consumer (time-series sampler, progress reporter,
#: checkpointer) throttles itself further on virtual or wall time; this
#: only bounds hook-call overhead.
OBSERVER_EVENTS = 512


class SimulationError(RuntimeError):
    """Raised on engine misuse (e.g. scheduling in the past)."""


class Engine:
    """A single-threaded discrete-event simulation engine.

    Parameters
    ----------
    start_time:
        Initial value of the virtual clock (seconds).
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
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
        from outside (checkpoint capture, tests)."""
        return iter(self._queue)

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
                    callback(*args)
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
