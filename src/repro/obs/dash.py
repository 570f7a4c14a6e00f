"""``repro dash`` — a stdlib ANSI terminal dashboard for live runs.

Tails the append-only JSONL time-series stream a running simulation
writes (``repro run --series-out live.jsonl ...``, including multi-shard
spatial runs where every shard process appends its own tagged rows) and
redraws a compact per-shard table a few times a second:

* virtual time and fraction of the horizon per shard,
* instantaneous events/s (with a sparkline of the recent rate),
* heap depth,
* running P_CB / P_HD and bandwidth utilization,
* barrier-wait fraction and event-count imbalance (this shard over the
  mean of all shard lanes) for spatial shards.

Everything is pure stdlib: ANSI cursor-home + clear-to-end redraws, no
curses.  ``render`` is a pure function of the accumulated rows so the
tests exercise the exact strings the terminal shows; ``run_dash`` owns
the tail-follow loop.  Reading from a pipe (``-``) renders on every
batch of rows instead of polling.
"""

from __future__ import annotations

import sys
import time
from collections import deque
from pathlib import Path
from typing import Mapping, Sequence, TextIO

from repro.obs.timeseries import iter_series

__all__ = ["DashState", "render", "run_dash"]

_SPARK_CHARS = "▁▂▃▄▅▆▇█"
_SPARK_WIDTH = 16
_CLEAR = "\x1b[H\x1b[J"


def _sparkline(values: Sequence[float], width: int = _SPARK_WIDTH) -> str:
    values = list(values)[-width:]
    if not values:
        return ""
    top = max(values)
    if top <= 0:
        return _SPARK_CHARS[0] * len(values)
    scale = len(_SPARK_CHARS) - 1
    return "".join(
        _SPARK_CHARS[min(scale, int(value / top * scale))] for value in values
    )


def _fmt_rate(rate: float) -> str:
    if rate >= 1_000_000:
        return f"{rate / 1_000_000:.1f}M"
    if rate >= 1_000:
        return f"{rate / 1_000:.1f}k"
    return f"{rate:.0f}"


def _lane(row: Mapping) -> str:
    shard = row.get("shard")
    if shard is not None:
        return f"s{shard}"
    return str(row.get("label") or row.get("run_id") or "run")


class DashState:
    """Accumulated view of a stream: latest row + rate history per lane."""

    def __init__(self, history: int = _SPARK_WIDTH) -> None:
        self.latest: dict[str, dict] = {}
        self.rates: dict[str, deque] = {}
        self.rows_seen = 0
        self._history = history

    def feed(self, rows: Sequence[Mapping]) -> None:
        for row in rows:
            lane = _lane(row)
            self.latest[lane] = dict(row)
            self.rates.setdefault(lane, deque(maxlen=self._history)).append(
                float(row.get("events_per_s") or 0.0)
            )
            self.rows_seen += 1


def render(state: DashState, width: int = 100) -> str:
    """Render the dashboard frame for the current state (pure)."""
    header = (
        f"{'lane':<8} {'t':>9} {'events':>12} {'ev/s':>8} "
        f"{'heap':>8} {'P_CB':>7} {'P_HD':>7} {'util':>6} "
        f"{'barrier':>8} {'imbal':>6}  rate"
    )
    lines = [header, "-" * min(width, len(header) + _SPARK_WIDTH)]
    total_events = 0
    total_rate = 0.0
    # Per-shard imbalance: this shard's event count over the mean of
    # all shard lanes (1.00 = perfectly balanced plan).  Non-shard
    # lanes (plain runs, replication workers) show no value.
    shard_events = [
        int(row.get("events") or 0)
        for row in state.latest.values()
        if row.get("shard") is not None
    ]
    shard_mean = (
        sum(shard_events) / len(shard_events) if len(shard_events) > 1
        else 0.0
    )
    for lane in sorted(state.latest):
        row = state.latest[lane]
        rate = float(row.get("events_per_s") or 0.0)
        events = int(row.get("events") or 0)
        total_events += events
        total_rate += rate
        barrier = row.get("barrier_wait_frac")
        p_cb = row.get("p_cb")
        p_hd = row.get("p_hd")
        util = row.get("util")
        imbalance = (
            events / shard_mean
            if shard_mean > 0 and row.get("shard") is not None
            else None
        )
        shown = lane if len(lane) <= 8 else lane[:7] + "…"
        lines.append(
            f"{shown:<8} {row.get('t', 0.0):>9.1f} {events:>12,} "
            f"{_fmt_rate(rate):>8} {int(row.get('heap') or 0):>8,} "
            f"{'-' if p_cb is None else format(p_cb, '.4f'):>7} "
            f"{'-' if p_hd is None else format(p_hd, '.4f'):>7} "
            f"{'-' if util is None else format(util, '.0%'):>6} "
            f"{'-' if barrier is None else format(barrier, '.0%'):>8} "
            f"{'-' if imbalance is None else format(imbalance, '.2f'):>6}  "
            f"{_sparkline(state.rates.get(lane, ()))}"
        )
    lines.append("-" * min(width, len(header) + _SPARK_WIDTH))
    lines.append(
        f"{len(state.latest)} lane(s), {state.rows_seen} samples,"
        f" {total_events:,} events, {_fmt_rate(total_rate)} ev/s aggregate"
    )
    return "\n".join(lines)


def run_dash(
    path: str,
    *,
    refresh: float = 1.0,
    follow: bool = True,
    timeout: float | None = None,
    out: TextIO | None = None,
    clear: bool | None = None,
) -> int:
    """Tail a JSONL time-series stream and redraw the dashboard.

    ``path`` may be ``-`` for stdin (pipe mode: render per batch), a
    ``ws://host:port`` URL (subscribe to a live ``repro serve``
    endpoint and render its streamed rows), or a JSONL file to tail.
    ``follow=False`` renders the current file contents once and exits
    (the ``--once`` flag).  ``timeout`` bounds the follow loop in wall
    seconds (tests and unattended use); ``None`` runs until EOF-on-pipe
    or KeyboardInterrupt.  Returns a process exit code.
    """
    out = out if out is not None else sys.stdout
    if clear is None:
        clear = follow and out.isatty()
    state = DashState()

    def emit() -> None:
        frame = render(state)
        if clear:
            out.write(_CLEAR + frame + "\n")
        else:
            out.write(frame + "\n")
        out.flush()

    if path.startswith("ws://"):
        return _run_ws_dash(
            path, state, emit, refresh=refresh, timeout=timeout
        )

    if path == "-":
        batch: list[dict] = []
        for row in iter_series(sys.stdin):
            batch.append(row)
            if len(batch) >= 8:
                state.feed(batch)
                batch.clear()
                emit()
        if batch:
            state.feed(batch)
        emit()
        return 0

    target = Path(path)
    started = time.monotonic()
    position = 0
    while True:
        if target.exists():
            with target.open("r", encoding="utf-8") as handle:
                handle.seek(position)
                fresh = list(iter_series(handle))
                position = handle.tell()
            if fresh:
                state.feed(fresh)
        if not follow:
            if not target.exists():
                print(f"error: no such stream: {path}", file=sys.stderr)
                return 2
            emit()
            return 0
        emit()
        if timeout is not None and time.monotonic() - started >= timeout:
            return 0
        try:
            time.sleep(refresh)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            return 0


def _run_ws_dash(url, state, emit, *, refresh, timeout) -> int:
    """Dashboard over a live ``repro serve`` WebSocket stream.

    Subscribes and feeds every streamed series row (frames without an
    ``op`` key — op-carrying frames are protocol replies) into the
    same render loop the file tail uses.  The socket read timeout
    doubles as the redraw cadence when the stream is quiet.
    """
    import json

    from repro.serve.ws import SyncWsClient

    try:
        client = SyncWsClient(url, timeout=max(refresh, 0.05))
    except (OSError, ConnectionError, ValueError) as error:
        print(f"error: cannot subscribe to {url}: {error}", file=sys.stderr)
        return 2
    client.send_json({"op": "subscribe"})
    started = time.monotonic()
    try:
        while True:
            try:
                text = client.recv_text()
            except TimeoutError:
                text = ""
            except ConnectionError:
                emit()
                return 0
            if text is None:  # server closed the stream
                emit()
                return 0
            if text:
                try:
                    row = json.loads(text)
                except ValueError:
                    row = None
                if isinstance(row, dict) and "op" not in row:
                    state.feed([row])
            emit()
            if timeout is not None and time.monotonic() - started >= timeout:
                return 0
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0
    finally:
        client.close()
