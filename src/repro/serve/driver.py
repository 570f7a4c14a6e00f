"""The synchronous streaming core: DES decisions from external events.

A :class:`StreamDriver` builds the exact substrate a
:class:`~repro.simulation.simulator.CellularSimulator` would build —
same network, same admission policy, same coalesced-tick flush path,
same metrics collector, same (optional) warm start — but never runs the
simulator's random processes.  Instead, timestamped
:class:`~repro.serve.events.StreamEvent`\\ s are injected into the DES
heap with the priorities their simulated counterparts carry
(``DEPARTURE < HANDOFF < ARRIVAL < ... < MONITOR``) and the engine is
advanced to each frontier (:meth:`~repro.des.Engine.advance_to`).
Internal events — the periodic monitor samples — therefore interleave
with the stream in exactly the order a virtual-time run fires them,
which is what makes replay parity *exact* rather than approximate: each
stream event is applied through the simulator's own life-cycle
transition (``admit_request`` / ``probe_handoff`` + ``resolve_handoff`` /
``exit_road`` / ``complete``), so policy, accounting, recorder and
backbone hooks run exactly as in a DES run — the stream only supplies
what the RNG used to decide.
"""

from __future__ import annotations

from time import perf_counter

from repro.des.events import EventPriority
from repro.record import Record
from repro.serve.clock import StreamClock, VirtualClock
from repro.serve.events import ARRIVAL, COMPLETE, EXIT, HANDOFF, StreamEvent
from repro.traffic.classes import VOICE
from repro.traffic.connection import Connection

__all__ = ["Decision", "DecisionSlot", "StreamDriver", "comparable_counters", "warm_start"]


class Decision(Record):
    """Outcome of one streamed admission/hand-off query.

    ``reserved``/``used`` snapshot the decided cell *after* the
    decision was applied — the live answer to "how much is set aside
    for hand-offs here right now".
    """

    __slots__ = ("t", "kind", "cell", "admitted", "conn", "reserved", "used")

    def __init__(
        self,
        t: float,
        kind: str,
        cell: int,
        admitted: bool,
        conn: int | None,
        reserved: float,
        used: float,
    ) -> None:
        self.t = t
        self.kind = kind
        self.cell = cell
        self.admitted = admitted
        self.conn = conn
        self.reserved = reserved
        self.used = used

    def to_json(self) -> dict:
        return {
            "t": round(self.t, 6),
            "kind": self.kind,
            "cell": self.cell,
            "admitted": self.admitted,
            "conn": self.conn,
            "reserved": round(self.reserved, 6),
            "used": round(self.used, 6),
        }


class DecisionSlot:
    """Filled when the submitted event fires (after :meth:`flush`)."""

    __slots__ = ("decision",)

    def __init__(self) -> None:
        self.decision: Decision | None = None


#: Heap priority of each stream event kind — identical to the priority
#: the simulator schedules the corresponding internal event with, so
#: same-timestamp ties resolve the same way on both paths.
_PRIORITY = {
    ARRIVAL: EventPriority.ARRIVAL,
    HANDOFF: EventPriority.HANDOFF,
    COMPLETE: EventPriority.DEPARTURE,
    EXIT: EventPriority.HANDOFF,
}


class StreamDriver:
    """Applies a timestamped event stream to a live admission core.

    Parameters
    ----------
    config:
        The scenario (capacity, scheme, estimator windows, warm state).
        ``retry_enabled`` and ``soft_handoff_window`` must be off: both
        are DES-internal random processes with no stream counterpart.
    clock:
        Time source (default: a strict :class:`VirtualClock` — replay
        mode).  Live services pass a :class:`~repro.serve.clock.WallClock`,
        which stamps unstamped events and folds racing timestamps
        forward instead of erroring.
    horizon:
        Stream time :meth:`finish` advances to (firing the trailing
        monitor samples).  Defaults to ``config.duration`` (replay
        parity); pass ``None`` for an open-ended live service.
    """

    def __init__(
        self,
        config,
        *,
        clock: StreamClock | None = None,
        horizon: float | object = "config",
    ) -> None:
        if config.retry_enabled:
            raise ValueError(
                "streaming mode cannot replay retry draws; disable"
                " retry_enabled (blocked clients re-query instead)"
            )
        if config.soft_handoff_window > 0:
            raise ValueError(
                "streaming mode resolves hand-offs at their event time;"
                " soft_handoff_window must be 0"
            )
        from repro.simulation.simulator import CellularSimulator

        # Construction only: the simulator wires kernel selection,
        # telemetry, network, policy, metrics and warm-state hydration
        # exactly as a DES run would.  Its random processes are never
        # started — run() is not called.
        self.sim = CellularSimulator(config)
        self.config = config
        self.engine = self.sim.engine
        self.network = self.sim.network
        self.metrics = self.sim.metrics
        self.clock = clock if clock is not None else VirtualClock(self.engine)
        self.horizon = config.duration if horizon == "config" else horizon
        self._traffic = {VOICE.name: VOICE}
        video = self.sim.mix.video_class
        self._traffic[video.name] = video
        #: Live connections keyed by *stream* id (decoupled from the
        #: process-global connection-id counter).
        self._connections: dict[int, Connection] = {}
        #: Stream ids of submitted arrivals that have not fired yet.
        self._queued_ids: set[int] = set()
        self._next_conn = 0
        self._frontier = self.engine.now
        self._started = perf_counter()
        self.decisions = 0
        #: Events naming an unknown/finished connection (live clients
        #: race departures; replay streams never hit this).
        self.ignored = 0
        self._dispatch = {
            ARRIVAL: self._fire_arrival,
            HANDOFF: self._fire_handoff,
            COMPLETE: self._fire_complete,
            EXIT: self._fire_exit,
        }
        if config.sample_interval > 0:
            # The simulator's own monitor loop: it re-queues itself.
            self.engine.call_at(
                config.sample_interval,
                CellularSimulator._on_sample,
                priority=EventPriority.MONITOR,
            )

    # -- stream ingestion ----------------------------------------------
    def submit(self, event: StreamEvent) -> DecisionSlot:
        """Queue one event; its decision lands in the returned slot
        when :meth:`flush` advances the engine past it."""
        if event.kind == ARRIVAL:
            if event.traffic not in self._traffic:
                raise ValueError(
                    f"unknown traffic class {event.traffic!r}"
                    f" (have: {', '.join(sorted(self._traffic))})"
                )
            if not 0 <= event.cell < self.network.topology.num_cells:
                raise ValueError(f"no such cell {event.cell}")
            if event.conn in self._connections or event.conn in self._queued_ids:
                # Filing a second connection under a live id would
                # orphan the first: no stream event could release it.
                raise ValueError(f"connection id {event.conn} is in use")
        elif event.kind == HANDOFF:
            if not 0 <= event.cell < self.network.topology.num_cells:
                raise ValueError(f"no such cell {event.cell}")
        t = self.clock.stamp(event.t)
        limit = self.config.day_seconds
        if t - self._frontier > limit and t - self.clock.now() > limit:
            # Flushing to ``t`` fires every monitor sample on the way
            # and drags the shared clock there for every later client.
            raise ValueError(
                f"event timestamp {t} is more than one estimator period"
                f" ({limit:g} s) ahead of the stream"
            )
        t = self.clock.monotonic(t, self.engine.now)
        if event.kind == ARRIVAL and event.conn >= 0:
            self._queued_ids.add(event.conn)
            # Driver-allocated ids stay clear of every id a sender chose.
            self._next_conn = max(self._next_conn, event.conn + 1)
        slot = DecisionSlot()
        self.engine.call_at(
            t, self._dispatch[event.kind], event, slot,
            priority=_PRIORITY[event.kind],
        )
        if t > self._frontier:
            self._frontier = t
        return slot

    def flush(self) -> int:
        """Advance the engine to the submitted frontier, firing every
        queued event (stream and internal) in heap order.  Returns the
        number of events fired."""
        return self.engine.advance_to(self._frontier)

    def apply(self, event: StreamEvent) -> Decision | None:
        """Submit + flush one event (replay convenience)."""
        slot = self.submit(event)
        self.flush()
        return slot.decision

    def replay(self, events) -> list[Decision]:
        """Apply a recorded stream; returns the decision per query
        event (arrivals and hand-offs, in stream order)."""
        out = []
        for event in events:
            decision = self.apply(event)
            if event.kind in (ARRIVAL, HANDOFF):
                out.append(decision)
        return out

    def finish(self) -> None:
        """Advance to the horizon (fires trailing monitor samples)."""
        if self.horizon is not None and self.horizon > self.engine.now:
            self.engine.advance_to(self.horizon)

    # -- event handlers: stream id -> simulator transition -> slot ------
    def _decision(self, kind, cell_id, admitted, conn):
        cell = self.network.cell(cell_id)
        self.decisions += 1
        return Decision(
            t=self.engine.now,
            kind=kind,
            cell=cell_id,
            admitted=admitted,
            conn=conn,
            reserved=cell.reserved_target,
            used=cell.used_bandwidth,
        )

    def _live(self, conn_id: int) -> Connection | None:
        """The live connection filed under ``conn_id``, else count the
        event as ignored."""
        connection = self._connections.get(conn_id)
        if connection is None:
            self.ignored += 1
        return connection

    def _fire_arrival(self, event: StreamEvent, slot: DecisionSlot) -> None:
        self._queued_ids.discard(event.conn)
        connection = self.sim.admit_request(
            event.cell, self._traffic[event.traffic], spawn_mobile=False
        )
        conn_id = None
        if connection is not None:
            conn_id = event.conn
            if conn_id < 0:
                conn_id = self._next_conn
                self._next_conn += 1
            self._connections[conn_id] = connection
        slot.decision = self._decision(
            ARRIVAL, event.cell, connection is not None, conn_id
        )

    def _fire_handoff(self, event: StreamEvent, slot: DecisionSlot) -> None:
        connection = self._live(event.conn)
        if connection is None:
            return
        admitted = self.sim.resolve_handoff(
            connection,
            event.cell,
            self.sim.probe_handoff(connection, event.cell),
        )
        if not admitted:
            del self._connections[event.conn]
        slot.decision = self._decision(
            HANDOFF, event.cell, admitted, event.conn
        )

    def _fire_exit(self, event: StreamEvent, slot: DecisionSlot) -> None:
        connection = self._live(event.conn)
        if connection is not None:
            self.sim.exit_road(connection)
            del self._connections[event.conn]

    def _fire_complete(self, event: StreamEvent, slot: DecisionSlot) -> None:
        connection = self._live(event.conn)
        if connection is not None:
            self.sim.complete(connection)
            del self._connections[event.conn]

    # -- state & results -----------------------------------------------
    @property
    def active_connections(self) -> int:
        return len(self._connections)

    @property
    def traffic_classes(self) -> tuple[str, ...]:
        """Admissible traffic-class names for this scenario's mix."""
        return tuple(self._traffic)

    def result(self):
        """The run's :class:`SimulationResult`, built the simulator's way."""
        self.sim._finished = True
        return self.sim._build_result(perf_counter() - self._started)

    def save_state(self, path):
        """Write a durable checkpoint of the live state."""
        from repro.state import save_checkpoint

        return save_checkpoint(self.sim, path)


def comparable_counters(result) -> dict:
    """A :meth:`metrics_key`-comparable view of a run's counters.

    ``events_processed`` is dropped: the DES path fires its random
    processes (Poisson renewals, lifetime draws, crossings) as engine
    events while the streaming path receives them from outside, so the
    raw event count is mode-dependent even when every decision and
    counter matches.
    """
    key = result.metrics_key()
    key.pop("events_processed", None)
    return key


def warm_start(path):
    """Warm-start handle for ``repro serve --load-state``.

    Rebases the checkpoint's estimator history by its own final clock,
    so a service starting its stream at ``t = 0`` sees the learned
    quadruplets just in the past — the same shift the multi-day
    campaign applies between simulated days.
    """
    from repro.state import CheckpointWarmStart
    from repro.state.format import load_manifest

    clock = float(load_manifest(path)["clock"])
    return CheckpointWarmStart(path, rebase_seconds=clock)
