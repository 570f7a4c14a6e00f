"""The clock abstraction: one engine core, two time sources.

The DES engine's clock only ever moves when someone tells it to — in
virtual-time mode the heap's next event does, in streaming mode the
outside world does (``Engine.advance_to``).  A :class:`StreamClock`
names that contract:

* :meth:`StreamClock.stamp` — assign a stream timestamp to an event
  that arrived without one;
* :meth:`StreamClock.monotonic` — clamp/validate an externally
  supplied timestamp against the stream's high-water mark.

:class:`VirtualClock` is the degenerate DES case (time is whatever the
engine says; external stamps are refused — virtual runs own their
timeline).  :class:`WallClock` maps ``perf_counter`` onto stream
seconds, optionally scaled (``time_scale=60`` replays a simulated
minute per wall second) and offset (warm starts resume mid-timeline).
"""

from __future__ import annotations

from time import perf_counter

__all__ = ["StreamClock", "VirtualClock", "WallClock"]


class StreamClock:
    """Base contract: where do event timestamps come from?"""

    def now(self) -> float:
        """Current stream time in seconds."""
        raise NotImplementedError

    def stamp(self, t: float | None) -> float:
        """Timestamp for an event (``t=None`` means "stamp it for me")."""
        raise NotImplementedError

    def monotonic(self, t: float, floor: float) -> float:
        """Reconcile an external timestamp with the stream's high-water
        mark ``floor`` (the engine's current time)."""
        raise NotImplementedError


class VirtualClock(StreamClock):
    """DES mode: the event heap is the only legitimate time source.

    Replay (the parity path) uses this clock: every event carries its
    recorded timestamp and a regression below the engine's clock is an
    error, never silently repaired — the replayed decision stream must
    match the DES run event for event.
    """

    def __init__(self, engine) -> None:
        self.engine = engine

    def now(self) -> float:
        return self.engine.now

    def stamp(self, t: float | None) -> float:
        if t is None:
            raise ValueError(
                "virtual-clock events must carry explicit timestamps"
            )
        return float(t)

    def monotonic(self, t: float, floor: float) -> float:
        if not t >= floor:  # NaN fails it too
            raise ValueError(
                f"event timestamp {t} precedes stream time {floor}"
            )
        return t


class WallClock(StreamClock):
    """Live mode: stream seconds derived from ``perf_counter``.

    Parameters
    ----------
    time_scale:
        Stream seconds per wall second (1.0 = real time; larger values
        replay faster — useful when driving the service from a recorded
        trace at speed).
    origin:
        Stream time at construction (warm restarts resume where the
        checkpointed timeline left off).
    """

    def __init__(self, time_scale: float = 1.0, origin: float = 0.0) -> None:
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        self.time_scale = float(time_scale)
        self.origin = float(origin)
        self._started = perf_counter()

    def now(self) -> float:
        return self.origin + (perf_counter() - self._started) * self.time_scale

    def stamp(self, t: float | None) -> float:
        return self.now() if t is None else float(t)

    def monotonic(self, t: float, floor: float) -> float:
        # Live clients race: a query stamped before an already-applied
        # event is folded forward to the stream's high-water mark (the
        # decision is made against current state — the only state a
        # live service has).
        return t if t >= floor else floor
