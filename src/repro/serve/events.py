"""The replayable event-stream format and the DES-side recorder.

A live admission service and a virtual-time simulation are "the same
run" exactly when they see the same *semantic* event stream: new
connection requests, hand-off resolutions, completions and road exits,
each with a timestamp.  :class:`StreamEvent` is that wire format (one
JSON object per line when serialized); :class:`RunRecorder` hooks into
:class:`~repro.simulation.simulator.CellularSimulator` and captures the
stream a DES run *would have sent* to a service — including the
decision the simulator actually made, so a replay can be checked
decision-for-decision (the parity proof in ``tests/serve``).

The recorded stream is the run's one journal of the call life-cycle:
``repro run --trace-jsonl`` writes it, :func:`lifecycle_violations`
checks it, and :class:`~repro.serve.driver.StreamDriver` (hence
``repro serve``) replays it.
"""

from __future__ import annotations

import json
import math
from typing import TextIO

from repro.record import Record

__all__ = [
    "ARRIVAL",
    "COMPLETE",
    "EXIT",
    "HANDOFF",
    "RunRecorder",
    "StreamEvent",
    "checked_event",
    "decode_event",
    "encode_event",
    "lifecycle_violations",
    "read_events",
    "record_run",
    "write_events",
]

ARRIVAL = "arrival"
HANDOFF = "handoff"
COMPLETE = "complete"
EXIT = "exit"

_KINDS = frozenset({ARRIVAL, HANDOFF, COMPLETE, EXIT})


class StreamEvent(Record):
    """One timestamped event of a live (or recorded) session stream.

    Attributes
    ----------
    t:
        Stream timestamp in seconds (``None`` on live queries means
        "stamp it on arrival" — see :mod:`repro.serve.clock`).
    kind:
        ``arrival`` (a new connection request in ``cell``),
        ``handoff`` (connection ``conn`` reached the boundary into
        ``cell``), ``complete`` (lifetime expired) or ``exit`` (the
        mobile left the network).
    cell:
        Birth cell for arrivals, target cell for hand-offs; unused
        (``-1``) otherwise.
    conn:
        Stream connection id.  For arrivals this is the id the sender
        wants the admitted connection filed under (``-1`` lets the
        driver allocate one); for the other kinds it names the
        connection the event belongs to.
    traffic:
        Traffic class name for arrivals (``voice``/``video``/...).
    admitted:
        The *recorded* decision, carried only by recorder output so a
        replay can be compared against it.  Never an input: the replay
        makes its own decision.
    """

    __slots__ = ("t", "kind", "cell", "conn", "traffic", "admitted")

    def __init__(
        self,
        t: float | None,
        kind: str,
        cell: int = -1,
        conn: int = -1,
        traffic: str = "voice",
        admitted: bool | None = None,
    ) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown stream event kind {kind!r}")
        self.t = t
        self.kind = kind
        self.cell = cell
        self.conn = conn
        self.traffic = traffic
        self.admitted = admitted


def encode_event(event: StreamEvent) -> str:
    """Serialize one event as a compact JSON object."""
    payload: dict = {"t": event.t, "kind": event.kind}
    if event.kind in (ARRIVAL, HANDOFF):
        payload["cell"] = event.cell
    if event.conn >= 0:
        payload["conn"] = event.conn
    if event.kind == ARRIVAL:
        payload["traffic"] = event.traffic
    if event.admitted is not None:
        payload["admitted"] = event.admitted
    return json.dumps(payload, sort_keys=True)


def checked_event(
    kind, t, cell=-1, conn=-1, traffic="voice", admitted=None
) -> StreamEvent:
    """A :class:`StreamEvent` from untrusted field values, each checked.

    The one validator of the stream format, shared by
    :func:`decode_event` and the WebSocket front.  An id is a JSON
    integer: ``1.9`` or ``true`` names nothing, and coercing it would
    apply the event to an object the sender never named.  ``t`` is
    ``None`` (stamp on arrival) or a finite number, ``traffic`` a string
    and ``admitted`` a boolean or ``None``.  Anything else raises
    ``ValueError`` — the engine that applies the event must never meet a
    value it cannot compare or hash.
    """
    if type(cell) is not int:
        raise ValueError(f"cell must be an integer, got {cell!r}")
    if type(conn) is not int:
        raise ValueError(f"conn must be an integer, got {conn!r}")
    if t is not None:
        if type(t) is not float:
            if type(t) is not int:
                raise ValueError(f"t must be a number, got {t!r}")
            try:
                t = float(t)
            except OverflowError:  # an integer beyond the float range
                t = math.inf
        if not math.isfinite(t):
            raise ValueError(f"t must be finite, got {t!r}")
    if not isinstance(traffic, str):
        raise ValueError(f"traffic must be a string, got {traffic!r}")
    if admitted is not None and type(admitted) is not bool:
        raise ValueError(f"admitted must be a boolean, got {admitted!r}")
    return StreamEvent(
        t=t, kind=kind, cell=cell, conn=conn, traffic=traffic, admitted=admitted
    )


def decode_event(text: str | dict) -> StreamEvent:
    """Parse one event from JSON text (or an already-parsed object)."""
    raw = json.loads(text) if isinstance(text, str) else text
    if not isinstance(raw, dict):
        raise ValueError(f"stream event must be a JSON object, got {raw!r}")
    try:
        kind = raw["kind"]
    except KeyError:
        raise ValueError(f"stream event without a kind: {raw!r}") from None
    return checked_event(
        kind,
        raw.get("t"),
        raw.get("cell", -1),
        raw.get("conn", -1),
        raw.get("traffic", "voice"),
        raw.get("admitted"),
    )


def write_events(handle: TextIO, events) -> int:
    """Write events as JSON lines; returns the number written."""
    count = 0
    for event in events:
        handle.write(encode_event(event) + "\n")
        count += 1
    return count


def read_events(handle: TextIO) -> list[StreamEvent]:
    """Read a JSONL event stream (blank lines skipped)."""
    events = []
    for line in handle:
        line = line.strip()
        if line:
            events.append(decode_event(line))
    return events


def lifecycle_violations(events) -> list[str]:
    """Check every connection's life-cycle in a recorded stream.

    A blocked arrival names no connection.  Per ``conn`` a valid stream
    reads::

        arrival  handoff*  (dropped handoff | complete | exit)?

    where the arrival and each ``handoff`` before the last event were
    admitted.  A connection still live when the stream ends has no
    terminal event, and an id whose life has ended may be admitted
    again (the driver frees it).  Timestamps never decrease.  Returns
    one line per violation, ``[]`` for a valid stream.
    """
    problems: list[str] = []
    live: set[int] = set()
    ended: set[int] = set()
    last = -math.inf
    for index, event in enumerate(events):
        where = f"event {index} ({event.kind} conn {event.conn} t={event.t!r})"
        if event.t is None or event.t < last:
            problems.append(f"{where}: t before the previous event's {last!r}")
        else:
            last = event.t
        conn = event.conn
        if event.kind == ARRIVAL:
            if event.admitted is False or conn < 0:
                continue
            if conn in live:
                problems.append(f"{where}: second arrival of a live connection")
            live.add(conn)
            ended.discard(conn)
        elif conn not in live:
            problems.append(
                f"{where}: after its terminal event"
                if conn in ended
                else f"{where}: before its arrival"
            )
        elif event.kind != HANDOFF or event.admitted is False:
            live.remove(conn)
            ended.add(conn)
    return problems


class RunRecorder:
    """Captures a DES run's semantic event stream for later replay.

    Attach via ``simulator.recorder = RunRecorder()`` before calling
    :meth:`~repro.simulation.simulator.CellularSimulator.run`.  Pure
    observation: the simulator invokes the hooks *after* each decision
    or departure is fully applied, so recording can never perturb the
    run.
    """

    def __init__(self) -> None:
        self.events: list[StreamEvent] = []

    def on_arrival(
        self,
        t: float,
        cell: int,
        traffic: str,
        admitted: bool,
        conn: int | None,
    ) -> None:
        self.events.append(
            StreamEvent(
                t=t,
                kind=ARRIVAL,
                cell=cell,
                conn=-1 if conn is None else conn,
                traffic=traffic,
                admitted=admitted,
            )
        )

    def on_handoff(self, t: float, conn: int, cell: int, admitted: bool) -> None:
        self.events.append(
            StreamEvent(t=t, kind=HANDOFF, cell=cell, conn=conn, admitted=admitted)
        )

    def on_complete(self, t: float, conn: int) -> None:
        self.events.append(StreamEvent(t=t, kind=COMPLETE, conn=conn))

    def on_exit(self, t: float, conn: int) -> None:
        self.events.append(StreamEvent(t=t, kind=EXIT, conn=conn))


def record_run(config, **simulator_kwargs):
    """Run a DES simulation while recording its event stream.

    Returns ``(events, result)``: the replayable stream and the run's
    :class:`~repro.simulation.metrics.SimulationResult`.
    """
    from repro.simulation.simulator import CellularSimulator

    simulator = CellularSimulator(config, **simulator_kwargs)
    recorder = RunRecorder()
    simulator.recorder = recorder
    result = simulator.run()
    return recorder.events, result
