"""In-run time-series sampling: the run's trajectory, not just its end.

The telemetry registry (:mod:`repro.obs.telemetry`) harvests one
snapshot at the end of a run.  A :class:`TimeSeriesSampler` adds the
*time dimension*: driven by the DES engine's observer hook (a plain
callback fired every few hundred events — it never schedules anything,
so sampling cannot perturb the run), it periodically records

* engine progress — virtual time, fired events, instantaneous events/s
  (delta rate over the sampling window), heap depth;
* running scheme outcomes — P_CB / P_HD over the post-warm-up counters
  so far, and network bandwidth utilization;
* deltas of every live telemetry counter plus current gauge values and
  histogram-count deltas, when a registry is attached;
* free-form per-sample labels (spatial shards tag ``epoch`` and their
  barrier-wait fraction).

Samples land in a bounded ring buffer (oldest evicted first) and —
optionally — stream to an append-only JSONL file as they are taken, so
``repro dash`` can tail a run that is still in flight.  Per-shard and
per-replication series ride home on the result objects and are folded
by :func:`merge_series` into one deterministic ordering (sorted by
``(t, shard, wall)``), the same way telemetry snapshots merge.

Cadence is dual: ``interval`` is *virtual* seconds between samples
(deterministic spacing along the simulated timeline), ``wall_interval``
is *wall* seconds (steady feed for a live dashboard even when virtual
time crawls).  Either or both may be active; a sample taken for one
cadence resets both.

The run's progress heartbeat (``--progress SECONDS``) is a rendering of
these rows, not a second observer: :func:`progress_renderer` turns each
row handed to :attr:`TimeSeriesSampler.on_row` into a throttled
``t/duration, events/s, wall, ETA`` line, and the final row into the
``done`` line.
"""

from __future__ import annotations

import json
import logging
import sys
from collections import deque
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Mapping, Sequence, TextIO

from repro.obs.logs import get_logger

__all__ = [
    "TimeSeriesSampler",
    "iter_series",
    "merge_series",
    "progress_renderer",
    "read_series",
    "series_summary",
    "write_series",
]

_INF = float("inf")

#: Default ring-buffer depth (per sampler).
DEFAULT_MAX_SAMPLES = 4096


class TimeSeriesSampler:
    """Periodic sampler of one engine's run, ring-buffered + streamed.

    Parameters
    ----------
    engine:
        The DES engine being observed (read-only: ``now``,
        ``events_processed``, ``pending``).
    metrics:
        Optional :class:`repro.simulation.metrics.MetricsCollector`;
        when present each sample carries running ``p_cb``/``p_hd``.
    stations:
        Optional station list (or owned subset); with ``capacity`` set,
        each sample carries bandwidth ``util`` over those cells.
    capacity:
        Per-cell capacity in BUs for the utilization read.
    interval:
        Virtual seconds between samples (0 disables this cadence).
    wall_interval:
        Wall seconds between samples (0 disables this cadence).
    max_samples:
        Ring-buffer depth; older samples are evicted (the JSONL stream,
        when configured, keeps everything).
    stream:
        Append-only JSONL destination — a path or an open text handle.
        Rows are written (and flushed) as samples are taken, so a
        concurrent reader sees the run live.
    shard_id:
        Spatial shard index stamped into every row (``None`` for
        unsharded runs).
    run_id / label:
        Provenance stamped into every row when non-empty.
    telemetry:
        Optional :class:`repro.obs.telemetry.Telemetry` registry; when
        enabled, each sample carries counter/histogram-count deltas and
        current gauge values for every live instrument.
    """

    def __init__(
        self,
        engine,
        *,
        metrics=None,
        stations: Sequence | None = None,
        capacity: float = 0.0,
        interval: float = 0.0,
        wall_interval: float = 0.0,
        max_samples: int = DEFAULT_MAX_SAMPLES,
        stream: str | Path | TextIO | None = None,
        shard_id: int | None = None,
        run_id: str = "",
        label: str = "",
        telemetry=None,
    ) -> None:
        if interval < 0 or wall_interval < 0:
            raise ValueError("sampling intervals cannot be negative")
        if interval == 0 and wall_interval == 0:
            raise ValueError(
                "need at least one cadence: interval (virtual seconds)"
                " or wall_interval (wall seconds)"
            )
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.engine = engine
        self.metrics = metrics
        self.stations = list(stations) if stations is not None else None
        self.capacity = float(capacity)
        self.interval = float(interval)
        self.wall_interval = float(wall_interval)
        self.shard_id = shard_id
        self.run_id = run_id
        self.label = label
        self.telemetry = (
            telemetry if telemetry is not None and telemetry.enabled else None
        )
        self.total_samples = 0
        self._samples: deque[dict] = deque(maxlen=max_samples)
        self._started = perf_counter()
        self._last_wall = self._started
        self._last_events = engine.events_processed
        self._next_t = self.interval if self.interval > 0 else _INF
        self._next_wall = (
            self._started + self.wall_interval
            if self.wall_interval > 0
            else _INF
        )
        self._last_counters: dict[str, float] = {}
        self._last_hist_counts: dict[str, int] = {}
        #: Called with every row as it is taken (after the stream write);
        #: the runners set it to a :func:`progress_renderer`.
        self.on_row: Callable[[dict], None] | None = None
        self._owns_stream = False
        self._stream: TextIO | None = None
        if stream is not None:
            if hasattr(stream, "write"):
                self._stream = stream  # type: ignore[assignment]
            else:
                path = Path(stream)
                path.parent.mkdir(parents=True, exist_ok=True)
                self._stream = path.open("a", encoding="utf-8")
                self._owns_stream = True

    # -- engine observer hook ------------------------------------------
    def maybe_sample(self) -> None:
        """Observer hook: sample if either cadence came due.

        Pure observation — reads the engine, never schedules on it.
        The virtual-cadence check is one float compare, so the hook is
        ~free between samples.
        """
        now = self.engine.now
        if now >= self._next_t:
            self._take(now, perf_counter())
            return
        if self._next_wall is not _INF and perf_counter() >= self._next_wall:
            self._take(now, perf_counter())

    def due(self, now: float | None = None) -> bool:
        """Whether either cadence has come due (reads only, no sample).

        Spatial shards use this to gate their epoch-boundary samples on
        the configured cadence instead of flooding one row per epoch.
        """
        if now is None:
            now = self.engine.now
        if now >= self._next_t:
            return True
        return self._next_wall is not _INF and perf_counter() >= self._next_wall

    def sample(self, **extra) -> dict:
        """Take one sample unconditionally, with free-form extra labels.

        Spatial shards call this at epoch boundaries with ``epoch`` and
        ``barrier_wait_frac`` labels; :meth:`final` uses it for the
        end-of-run row.
        """
        return self._take(self.engine.now, perf_counter(), extra)

    def final(self) -> None:
        """Take the closing sample and release the stream (if owned)."""
        self._take(self.engine.now, perf_counter(), {"final": True})
        self.close()

    def close(self) -> None:
        if self._stream is not None and self._owns_stream:
            self._stream.close()
        self._stream = None

    # -- internals -----------------------------------------------------
    def _take(self, now: float, wall: float, extra: Mapping | None = None):
        engine = self.engine
        events = engine.events_processed
        window = wall - self._last_wall
        rate = (events - self._last_events) / window if window > 0 else 0.0
        row: dict = {
            "t": round(now, 6),
            "wall": round(wall - self._started, 6),
            "shard": self.shard_id,
            "events": events,
            "events_per_s": round(rate, 1),
            "heap": engine.pending,
        }
        if self.run_id:
            row["run_id"] = self.run_id
        if self.label:
            row["label"] = self.label
        metrics = self.metrics
        if metrics is not None:
            requests = blocked = attempts = drops = 0
            for cell in metrics.cells:
                requests += cell.new_requests
                blocked += cell.blocked
                attempts += cell.handoff_attempts
                drops += cell.handoff_drops
            row["p_cb"] = round(blocked / requests, 6) if requests else 0.0
            row["p_hd"] = round(drops / attempts, 6) if attempts else 0.0
        stations = self.stations
        if stations and self.capacity > 0:
            used = 0.0
            for station in stations:
                used += station.cell.used_bandwidth
            row["util"] = round(used / (len(stations) * self.capacity), 6)
        telemetry = self.telemetry
        if telemetry is not None:
            self._fold_registry(row, telemetry)
        if extra:
            row.update(extra)
        # Advance both cadences past *now* so a burst of observer calls
        # at one timestamp yields one sample, not a pile.
        if self.interval > 0:
            next_t = self._next_t
            if next_t is _INF or next_t <= now:
                next_t = now + self.interval
            self._next_t = next_t
        if self.wall_interval > 0:
            self._next_wall = wall + self.wall_interval
        self._last_wall = wall
        self._last_events = events
        self.total_samples += 1
        self._samples.append(row)
        stream = self._stream
        if stream is not None:
            stream.write(json.dumps(row, sort_keys=True) + "\n")
            stream.flush()
        if self.on_row is not None:
            self.on_row(row)
        return row

    def _fold_registry(self, row: dict, telemetry) -> None:
        """Delta live counters/histograms and read gauges into ``row``."""
        counters: dict[str, float] = {}
        last = self._last_counters
        for key, counter in telemetry._counters.items():
            value = counter.value
            delta = value - last.get(key, 0.0)
            last[key] = value
            if delta:
                counters[key] = delta
        if counters:
            row["counters"] = counters
        gauges = {
            key: gauge.value for key, gauge in telemetry._gauges.items()
        }
        if gauges:
            row["gauges"] = gauges
        hist_counts: dict[str, int] = {}
        last_hist = self._last_hist_counts
        for key, histogram in telemetry._histograms.items():
            count = histogram.count
            delta = count - last_hist.get(key, 0)
            last_hist[key] = count
            if delta:
                hist_counts[key] = delta
        if hist_counts:
            row["hist_counts"] = hist_counts

    # -- export --------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Samples evicted from the ring buffer (stream kept them)."""
        return self.total_samples - len(self._samples)

    def series(self) -> list[dict]:
        """The retained samples, oldest first (plain JSON-able rows)."""
        return list(self._samples)


# ----------------------------------------------------------------------
# progress heartbeat: sampler rows rendered as lines
# ----------------------------------------------------------------------
def progress_renderer(
    duration: float, interval: float, stream: TextIO | None = None
) -> Callable[[Mapping], None]:
    """A :attr:`TimeSeriesSampler.on_row` hook printing heartbeat lines.

    A row is rendered when ``interval`` wall seconds (by the rows' own
    ``wall`` field) have passed since the last rendered row; the final
    row always is, as the ``done`` line.  The line goes through the
    ``repro.progress`` logger, with the row's fields plus ``fraction``
    and ``eta_s`` as extras, when that logger is enabled for INFO (so
    ``--log-json`` yields machine-readable heartbeats); otherwise it is
    one plain line on ``stream`` (default: the current ``sys.stderr``).
    A shard's lines are tagged ``s<index>``, as ``repro dash`` tags its
    lanes.
    """
    if interval <= 0:
        raise ValueError("progress interval must be positive")
    logger = get_logger("progress")
    last_wall = 0.0

    def render(row: Mapping) -> None:
        nonlocal last_wall
        final = bool(row.get("final"))
        wall = row["wall"]
        # Rows carry ``wall`` rounded to 1 µs: allow that much slack so
        # a row taken on a wall cadence of ``interval`` is not skipped.
        if not final and wall - last_wall + 1e-6 < interval:
            return
        last_wall = wall
        t = row["t"]
        fraction = min(t / duration, 1.0) if duration > 0 else 1.0
        if final or fraction >= 1.0:
            eta = 0.0
        elif t > 0:
            eta = wall * (duration - t) / t
        else:
            eta = _INF
        if logger.isEnabledFor(logging.INFO):
            logger.info(
                "run complete" if final else "progress",
                extra={
                    **row,
                    "fraction": round(fraction, 4),
                    "eta_s": None if eta == _INF else round(eta, 1),
                },
            )
            return
        tag = row.get("label", "")
        if row.get("shard") is not None:
            tag = f"{tag} s{row['shard']}".strip()
        prefix = f"[{tag}] " if tag else ""
        events = row["events"]
        if final:
            overall = events / wall if wall > 0 else 0.0
            line = (
                f"{prefix}done: t={t:.0f}s in {wall:.1f}s wall,"
                f" {events:,} events ({overall:,.0f} events/s overall)"
            )
        else:
            eta_text = "?" if eta == _INF else f"{eta:.0f}s"
            line = (
                f"{prefix}t={t:.0f}/{duration:.0f}s ({fraction:.0%})"
                f"  {row['events_per_s']:,.0f} events/s"
                f"  wall={wall:.1f}s  eta={eta_text}"
            )
        # One write per line: process shards share the inherited stderr.
        out = stream or sys.stderr
        out.write(line + "\n")
        out.flush()

    return render


# ----------------------------------------------------------------------
# series plumbing: merge / files / summaries
# ----------------------------------------------------------------------
def _sort_key(row: Mapping) -> tuple:
    shard = row.get("shard")
    return (
        row.get("t", 0.0),
        -1 if shard is None else shard,
        row.get("wall", 0.0),
        row.get("label", ""),
    )


def merge_series(
    series: Iterable[Sequence[Mapping] | None],
) -> list[dict] | None:
    """Merge per-shard/per-replication series into one sorted stream.

    ``None``/empty contributions are skipped; returns ``None`` when
    nothing contributed.  Rows sort by ``(t, shard, wall, label)`` —
    deterministic for fixed inputs regardless of which worker finished
    first, mirroring :func:`repro.obs.telemetry.merge_snapshots`.
    """
    merged: list[dict] = []
    contributed = False
    for rows in series:
        if not rows:
            continue
        contributed = True
        merged.extend(dict(row) for row in rows)
    if not contributed:
        return None
    merged.sort(key=_sort_key)
    return merged


def write_series(path: str | Path, rows: Iterable[Mapping]) -> Path:
    """Write rows as a JSONL time-series file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    return path


def iter_series(handle: TextIO) -> Iterable[dict]:
    """Parse JSONL rows from an open handle, skipping torn lines.

    A live stream's last line may be mid-write (shards append
    concurrently); malformed lines are dropped rather than fatal, so a
    tailing dashboard never dies on a partial row.
    """
    for line in handle:
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(row, dict):
            yield row


def read_series(path: str | Path) -> list[dict]:
    """Read a JSONL time-series file (tolerant of torn last lines)."""
    with Path(path).open("r", encoding="utf-8") as handle:
        return list(iter_series(handle))


def series_summary(rows: Sequence[Mapping] | None) -> dict | None:
    """Condense a series for `repro state inspect`-style reports."""
    if not rows:
        return None
    shards = sorted(
        {row.get("shard") for row in rows if row.get("shard") is not None}
    )
    times = [row["t"] for row in rows if "t" in row]
    rates = [
        row["events_per_s"] for row in rows if row.get("events_per_s")
    ]
    last = max(rows, key=_sort_key)
    return {
        "samples": len(rows),
        "shards": shards,
        "t_first": min(times) if times else 0.0,
        "t_last": max(times) if times else 0.0,
        "peak_events_per_s": max(rates) if rates else 0.0,
        "last_p_cb": last.get("p_cb"),
        "last_p_hd": last.get("p_hd"),
        "last_util": last.get("util"),
    }
