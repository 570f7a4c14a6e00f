"""Lightweight span tracing: Chrome trace-event JSON for Perfetto.

A :class:`TraceCollector` records named wall-clock spans — the 3-phase
epoch-barrier protocol of a spatial run, one coalesced FlushBatch tick,
a checkpoint publish — as Chrome trace-event ``"ph": "X"`` complete
events.  :func:`write_trace` wraps them in the ``{"traceEvents": [...]}``
envelope that https://ui.perfetto.dev (or ``chrome://tracing``) loads
directly, so a barrier stall or a straggler shard shows up as a gap in
the timeline instead of a number in a log.

Like the telemetry registry, a collector belongs to one run (or
shard), which builds it from ``SimulationConfig.trace`` (the
``--trace-out`` flag) — a :class:`NullTraceCollector` when tracing is
off — and hands it to what records spans.  The same hard rule holds:
spans only read the wall clock, never the engine, so a traced run fires
exactly the events an untraced one would (``metrics_key()`` parity is
enforced by tests).

Timestamps come from :func:`time.perf_counter`, which is
``CLOCK_MONOTONIC`` on Linux: forked shard workers share its epoch, so
per-shard span streams merged by :func:`merge_traces` line up on one
timeline without clock translation.  Each collector stamps its events
with a ``pid`` lane (the shard index in spatial runs) for Perfetto's
per-process tracks.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from typing import Iterable, Sequence

__all__ = [
    "NullTraceCollector",
    "TraceCollector",
    "merge_traces",
    "write_trace",
]

#: Per-collector event cap: a runaway instrumentation loop degrades to
#: a counted drop instead of unbounded memory growth.
DEFAULT_MAX_EVENTS = 200_000


class _Span:
    """One in-flight span (context manager)."""

    __slots__ = ("_collector", "_name", "_args", "_started")

    def __init__(self, collector: "TraceCollector", name: str, args: dict):
        self._collector = collector
        self._name = name
        self._args = args
        self._started = 0.0

    def __enter__(self) -> "_Span":
        self._started = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._collector._complete(
            self._name, self._args, self._started, perf_counter()
        )


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class TraceCollector:
    """The live span recorder of one run (or one shard of a run)."""

    enabled = True

    def __init__(
        self,
        run_id: str = "",
        pid: int = 0,
        tid: int = 0,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.run_id = run_id
        self.pid = int(pid)
        self.tid = int(tid)
        self.max_events = int(max_events)
        self.dropped = 0
        self._events: list[dict] = []

    # -- recording -----------------------------------------------------
    def span(self, name: str, **args) -> _Span:
        """Open a named span; labels become trace-event ``args``."""
        return _Span(self, name, args)

    def instant(self, name: str, **args) -> None:
        """Record a zero-duration marker event."""
        if len(self._events) >= self.max_events:
            self.dropped += 1
            return
        event = {
            "name": name,
            "ph": "i",
            "s": "p",
            "cat": "repro",
            "ts": round(perf_counter() * 1e6, 1),
            "pid": self.pid,
            "tid": self.tid,
        }
        if args or self.run_id:
            if self.run_id:
                args.setdefault("run_id", self.run_id)
            event["args"] = args
        self._events.append(event)

    def _complete(
        self, name: str, args: dict, started: float, ended: float
    ) -> None:
        if len(self._events) >= self.max_events:
            self.dropped += 1
            return
        event = {
            "name": name,
            "ph": "X",
            "cat": "repro",
            "ts": round(started * 1e6, 1),
            "dur": round((ended - started) * 1e6, 1),
            "pid": self.pid,
            "tid": self.tid,
        }
        if args or self.run_id:
            if self.run_id:
                args.setdefault("run_id", self.run_id)
            event["args"] = args
        self._events.append(event)

    # -- export --------------------------------------------------------
    def events(self) -> list[dict]:
        """The recorded events as plain JSON-able dicts (picklable)."""
        return list(self._events)


class NullTraceCollector:
    """Disabled recorder: spans are shared no-ops, nothing is kept."""

    enabled = False
    run_id = ""
    pid = 0
    tid = 0
    dropped = 0

    def span(self, name: str, **args) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, **args) -> None:
        pass

    def events(self) -> None:
        return None


# ----------------------------------------------------------------------
# merging + file output
# ----------------------------------------------------------------------
def merge_traces(
    traces: Iterable[Sequence[dict] | None],
) -> list[dict] | None:
    """Merge per-shard/per-worker event lists into one sorted timeline.

    ``None``/empty entries (tracing-off contributors) are skipped;
    returns ``None`` when nothing contributed.  Events sort by
    ``(ts, pid, tid)`` — deterministic for fixed inputs, and exactly the
    order Perfetto renders.
    """
    merged: list[dict] = []
    contributed = False
    for events in traces:
        if not events:
            continue
        contributed = True
        merged.extend(events)
    if not contributed:
        return None
    merged.sort(
        key=lambda event: (
            event.get("ts", 0.0),
            event.get("pid", 0),
            event.get("tid", 0),
        )
    )
    return merged


def write_trace(
    path: str | Path,
    events: Sequence[dict],
    process_names: dict[int, str] | None = None,
) -> Path:
    """Write events as a Perfetto-loadable Chrome trace JSON file.

    ``process_names`` optionally maps ``pid`` lanes to display names
    (rendered via ``process_name`` metadata events).
    """
    path = Path(path)
    payload: list[dict] = []
    if process_names:
        for pid in sorted(process_names):
            payload.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "args": {"name": process_names[pid]},
                }
            )
    payload.extend(events)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {"traceEvents": payload, "displayTimeUnit": "ms"},
            separators=(",", ":"),
        ),
        encoding="utf-8",
    )
    return path


def span_names(events: Iterable[dict] | None) -> set[str]:
    """Distinct complete-span names in an event list (CI assertions)."""
    if not events:
        return set()
    return {
        event["name"] for event in events if event.get("ph") == "X"
    }
