"""Heartbeat progress reporting for long simulation runs.

A :class:`ProgressReporter` is driven by the DES engine's observer
hook (:meth:`repro.des.engine.Engine.run` calls it every few hundred
fired events) and emits a line at most every ``interval`` wall seconds:
virtual time vs wall time, instantaneous events/s, and an ETA
extrapolated from the virtual-time rate.  Because it piggybacks on
events the simulation was going to fire anyway — it never schedules
anything — progress reporting cannot perturb the run, and it works
unchanged inside ``run_sweep(workers=N)`` pool workers (each worker's
reporter writes to its own inherited stderr).

Lines go through the ``repro.progress`` structured logger when that
logger is enabled for INFO (so ``--log-json`` yields machine-readable
heartbeats), and fall back to a plain stderr line otherwise.
"""

from __future__ import annotations

import logging
import sys
from time import perf_counter
from typing import TextIO

from repro.obs.logs import get_logger

__all__ = ["ProgressReporter"]


class ProgressReporter:
    """Emits throttled progress heartbeats for one engine run.

    Parameters
    ----------
    engine:
        The engine being driven (read-only: ``now``/``events_processed``).
    duration:
        The run's virtual horizon, for percentages and the ETA.
    interval:
        Minimum wall seconds between heartbeats.
    label:
        Scenario label included in every line.
    stream:
        Fallback destination when the ``repro.progress`` logger is not
        configured (default ``sys.stderr``).
    """

    def __init__(
        self,
        engine,
        duration: float,
        interval: float = 5.0,
        label: str = "",
        stream: TextIO | None = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("progress interval must be positive")
        self.engine = engine
        self.duration = float(duration)
        self.interval = float(interval)
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.logger = get_logger("progress")
        self.started = perf_counter()
        self._last_wall = self.started
        self._last_events = 0
        self.beats = 0

    # ------------------------------------------------------------------
    def beat(self) -> None:
        """Engine observer hook: emit if the wall interval elapsed."""
        now_wall = perf_counter()
        if now_wall - self._last_wall < self.interval:
            return
        self._emit(now_wall, final=False)

    def final(self) -> None:
        """Emit the end-of-run summary line (always)."""
        self._emit(perf_counter(), final=True)

    # ------------------------------------------------------------------
    def _emit(self, now_wall: float, final: bool) -> None:
        events = self.engine.events_processed
        window = now_wall - self._last_wall
        rate = (events - self._last_events) / window if window > 0 else 0.0
        elapsed = now_wall - self.started
        virtual = self.engine.now
        fraction = (
            min(virtual / self.duration, 1.0) if self.duration > 0 else 1.0
        )
        if final or fraction >= 1.0:
            eta = 0.0
        elif virtual > 0:
            eta = elapsed * (self.duration - virtual) / virtual
        else:
            eta = float("inf")
        self._last_wall = now_wall
        self._last_events = events
        self.beats += 1
        if self.logger.isEnabledFor(logging.INFO):
            self.logger.info(
                "run complete" if final else "progress",
                extra={
                    "label": self.label,
                    "virtual_time": round(virtual, 3),
                    "fraction": round(fraction, 4),
                    "wall_seconds": round(elapsed, 3),
                    "events": events,
                    "events_per_sec": round(rate, 1),
                    "eta_seconds": round(eta, 1) if eta != float("inf") else -1,
                },
            )
            return
        prefix = f"[{self.label}] " if self.label else ""
        if final:
            line = (
                f"{prefix}done: t={virtual:.0f}s in {elapsed:.1f}s wall,"
                f" {events:,} events"
                f" ({events / elapsed:,.0f} events/s overall)"
            )
        else:
            eta_text = "?" if eta == float("inf") else f"{eta:.0f}s"
            line = (
                f"{prefix}t={virtual:.0f}/{self.duration:.0f}s"
                f" ({fraction:.0%})  {rate:,.0f} events/s"
                f"  wall={elapsed:.1f}s  eta={eta_text}"
            )
        print(line, file=self.stream, flush=True)
