"""The discrete-event simulation engine.

The engine owns a binary-heap event queue and a virtual clock.  It is
deliberately minimal: callbacks scheduled at absolute or relative times,
lazy cancellation, and stop conditions (horizon time, event budget, or an
explicit :meth:`Engine.stop`).  Generator-based processes are layered on
top in :mod:`repro.des.process`.

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
from typing import Any, Callable

from repro.des.events import Event, EventPriority


class SimulationError(RuntimeError):
    """Raised on engine misuse (e.g. scheduling in the past)."""


#: Cancelled heap entries tolerated before a compaction is considered.
_COMPACT_MIN = 256


class Engine:
    """A single-threaded discrete-event simulation engine.

    Parameters
    ----------
    start_time:
        Initial value of the virtual clock (seconds).
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        #: Binary heap of ``(time, priority, sequence, event)`` entries.
        #: Tuples keep every heap comparison in C — sequence is unique,
        #: so a comparison never reaches the event object itself (which
        #: would fall back to a Python-level ``__lt__``).
        self._queue: list[tuple[float, int, int, Event]] = []
        self._sequence = 0
        self._running = False
        self._stopped = False
        self._cancelled_pending = 0
        self.events_processed = 0
        # Observability counters (plain ints: harvested into the
        # telemetry registry at end of run, ~free on the hot path).
        #: Queued events cancelled before firing.
        self.events_cancelled = 0
        #: Lazy-deletion heap compactions performed.
        self.heap_compactions = 0

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
        """Number of live (uncancelled) events still in the queue.

        Cancelled entries awaiting lazy deletion are not counted; the
        engine tracks them separately and compacts the heap when they
        start to dominate.
        """
        return len(self._queue) - self._cancelled_pending

    @property
    def queue_len(self) -> int:
        """Raw heap length, cancelled corpses included (a telemetry gauge)."""
        return len(self._queue)

    def _note_cancellation(self) -> None:
        """Called (via the event's cancel hook) when a queued event dies.

        A caller that cancels en masse would otherwise leave every
        corpse in the heap until its firing time, growing the queue —
        and every push/pop — without bound.  (The bundled drivers keep
        one pending event per connection and cancel nothing.)
        """
        self._cancelled_pending += 1
        self.events_cancelled += 1
        if (
            self._cancelled_pending > _COMPACT_MIN
            and self._cancelled_pending * 2 > len(self._queue)
        ):
            self._queue = [
                entry for entry in self._queue if not entry[3].cancelled
            ]
            heapq.heapify(self._queue)
            self._cancelled_pending = 0
            self.heap_compactions += 1

    def call_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = EventPriority.DEFAULT,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        sequence = self._sequence
        priority = int(priority)
        event = Event(
            time,
            priority,
            sequence,
            callback,
            args,
            False,
            self._note_cancellation,
        )
        self._sequence = sequence + 1
        heapq.heappush(self._queue, (time, priority, sequence, event))
        return event

    def call_in(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = EventPriority.DEFAULT,
    ) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self._now + delay, callback, *args, priority=priority)

    def stop(self) -> None:
        """Stop the run loop after the current event returns."""
        self._stopped = True

    def peek(self) -> float | None:
        """Time of the next live event, or ``None`` if the queue is drained."""
        while self._queue and self._queue[0][3].cancelled:
            heapq.heappop(self._queue)
            self._cancelled_pending -= 1
        if not self._queue:
            return None
        return self._queue[0][0]

    def queued_events(self):
        """The queued :class:`Event` objects, heap order, corpses included.

        Checkpoint capture filters cancelled entries itself; nothing
        else should rely on the raw heap layout.
        """
        for entry in self._queue:
            yield entry[3]

    def step(self) -> bool:
        """Fire the next live event.  Returns ``False`` if none remained."""
        while self._queue:
            time, _, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                self._cancelled_pending -= 1
                continue
            if time < self._now:
                raise SimulationError("event queue corrupted: time went backwards")
            # The event left the heap: marked cancelled, a holder's
            # late cancel() is a no-op and never counts a dead entry.
            event.cancelled = True
            self._now = time
            self.events_processed += 1
            event.callback(*event.args)
            return True
        return False

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

        Unlike :meth:`run`, a ``time`` in the past is an error rather
        than a no-op: an external clock must be monotonic, and silently
        reordering its timestamps would desynchronise the streamed
        decisions from their DES replay.
        """
        if time < self._now:
            raise SimulationError(
                f"external clock went backwards: t={time} < now={self._now}"
            )
        before = self.events_processed
        self.run(until=time)
        return self.events_processed - before

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
        heartbeat: Callable[[], None] | None = None,
        heartbeat_events: int = 4096,
        observer: Callable[[], None] | None = None,
        observer_events: int = 512,
    ) -> None:
        """Run until the queue drains, ``until`` is reached, or ``stop()``.

        Parameters
        ----------
        until:
            Horizon in virtual seconds.  Events scheduled strictly after
            the horizon are left in the queue and the clock is advanced
            to exactly ``until``.
        max_events:
            Safety budget on the number of events fired in this call.
        heartbeat:
            Optional hook invoked every ``heartbeat_events`` fired
            events (progress reporting).  The hook observes the engine;
            it must not schedule or cancel events, so a run with a
            heartbeat fires exactly the events it would without one.
        heartbeat_events:
            Firing cadence of ``heartbeat`` (the hook throttles itself
            further on wall time; this only bounds hook-call overhead).
        observer:
            Optional finer-cadence hook invoked every ``observer_events``
            fired events (time-series sampling).  Same contract as
            ``heartbeat`` — pure observation, must not schedule or
            cancel events.
        observer_events:
            Firing cadence of ``observer`` (the sampler throttles
            itself further on virtual/wall intervals; this only bounds
            hook-call overhead).
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        if heartbeat_events < 1:
            raise SimulationError("heartbeat_events must be >= 1")
        if observer_events < 1:
            raise SimulationError("observer_events must be >= 1")
        self._running = True
        self._stopped = False
        fired = 0
        next_beat = heartbeat_events if heartbeat is not None else None
        next_obs = observer_events if observer is not None else None
        heappop = heapq.heappop
        try:
            # Inlined peek()+step(): one heap access per event instead of
            # a peek/pop pair.  ``self._queue`` must be re-read after
            # every fire — firing an event can cancel others and trigger
            # a compaction, which REBINDS the queue to a new list.
            #
            # Events are dispatched in same-timestamp *runs*: the outer
            # loop advances the clock and checks the horizon once per
            # distinct timestamp, the inner loop then drains every live
            # event at exactly that time (coalesced admission tests
            # schedule bursts of equal-time events, so runs of 2+ are
            # the common case, not the exception).  Events scheduled
            # *during* the run at the same time join it — the inner
            # loop re-reads the heap head after each fire, preserving
            # the exact one-at-a-time firing order.
            while not self._stopped:
                queue = self._queue
                while queue and queue[0][3].cancelled:
                    heappop(queue)
                    self._cancelled_pending -= 1
                if not queue:
                    break
                head = queue[0][3]
                time = head.time
                if until is not None and time > until:
                    break
                if max_events is not None and fired >= max_events:
                    break
                if time < self._now:
                    raise SimulationError(
                        "event queue corrupted: time went backwards"
                    )
                self._now = time
                while True:
                    heappop(queue)
                    head.cancelled = True  # left the heap: see step()
                    self.events_processed += 1
                    head.callback(*head.args)
                    fired += 1
                    if next_obs is not None and fired >= next_obs:
                        observer()
                        next_obs = fired + observer_events
                    if next_beat is not None and fired >= next_beat:
                        heartbeat()
                        next_beat = fired + heartbeat_events
                    if self._stopped:
                        break
                    if max_events is not None and fired >= max_events:
                        break
                    queue = self._queue
                    while queue and queue[0][3].cancelled:
                        heappop(queue)
                        self._cancelled_pending -= 1
                    if not queue:
                        break
                    if queue[0][0] != time:
                        break
                    head = queue[0][3]
            if until is not None and not self._stopped and self._now < until:
                self._now = until
        finally:
            self._running = False
