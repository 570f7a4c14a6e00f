""":class:`AdmissionService` — the live façade over the stream core.

Queries (``admit``) and notifications (hand-off / completion / exit)
arrive in groups — a WebSocket connection's read, a pipelining client's
batch — and :meth:`AdmissionService.apply_many` applies a group with
one plain call: every event injected into the DES heap, the engine
advanced once.  So the queries of a group ride the same coalesced
reservation tick the simulator batches same-timestamp admission tests
through, and per-decision cost amortizes exactly like the DES hot loop.
No queue and no worker task stand between a caller and the engine; the
coroutines (``submit``, ``submit_many``, ``admit``) are that call plus
one yield.  Every group's compute time feeds a telemetry histogram
(``serve.decision_latency_ms``), so ``--prom-out`` and the JSON
telemetry export work for the service with no new plumbing.

State streaming reuses :class:`~repro.obs.timeseries.TimeSeriesSampler`
verbatim: the sampler's ``stream`` duck-type (anything with ``write``)
is satisfied by :class:`BroadcastStream`, which fans each JSONL row out
to subscribed WebSocket clients — the rows are byte-identical to what
``repro run --series-out`` writes, which is why ``repro dash`` works
against a live service unchanged.
"""

from __future__ import annotations

import asyncio
import shutil
from collections import deque
from itertools import repeat
from pathlib import Path
from time import perf_counter

from repro.obs.timeseries import TimeSeriesSampler
from repro.serve.clock import WallClock
from repro.serve.driver import Decision, StreamDriver
from repro.serve.events import ARRIVAL, StreamEvent

__all__ = ["AdmissionService", "BroadcastStream", "ServiceFailed"]

#: Decision-latency histogram edges in milliseconds.  Batched decisions
#: land well under a millisecond; the tail buckets catch checkpoint or
#: GC pauses.
LATENCY_BUCKETS_MS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0
)


class ServiceFailed(RuntimeError):
    """The engine advance or a checkpoint write raised.

    Raised from the group that met the failure and from every later
    one: a half-advanced engine must not keep answering.
    """


class BroadcastStream:
    """A write-only "file" that fans rows out to live subscribers.

    Passed as the sampler's ``stream``; each subscriber is a plain
    callable receiving the JSONL line (no trailing newline handling —
    lines arrive exactly as written).  Subscribers are called on the
    event loop thread; the WebSocket gateway writes each row to its
    connection from the callback.
    """

    def __init__(self, backlog: int = 64) -> None:
        self._subscribers: list = []
        #: Recent rows kept so a late subscriber can catch up.
        self.backlog: deque[str] = deque(maxlen=backlog)

    def write(self, text: str) -> int:
        line = text.rstrip("\n")
        if line:
            self.backlog.append(line)
            for subscriber in list(self._subscribers):
                subscriber(line)
        return len(text)

    def flush(self) -> None:  # sampler protocol
        pass

    def subscribe(self, callback) -> None:
        self._subscribers.append(callback)

    def unsubscribe(self, callback) -> None:
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    @property
    def subscribers(self) -> int:
        return len(self._subscribers)


class AdmissionService:
    """Live admission control over one :class:`StreamDriver`.

    Parameters
    ----------
    config:
        Scenario config (pass ``warm_state=repro.serve.warm_start(path)``
        to resume a checkpointed estimator history).
    clock:
        Stream time source; default :class:`WallClock` (real time).
    budget_ms:
        Wall-time budget for applying one group; the decisions of a
        group over it count into ``serve.budget_miss`` (the SLO is
        observable, not enforced — an admission answer is useful even
        when late).
    checkpoint_every:
        Wall seconds between periodic checkpoints (0 disables).
    checkpoint_dir / checkpoint_keep:
        Where periodic checkpoints land and how many to retain.
    series_interval / series_wall_interval:
        Sampling cadences (stream seconds / wall seconds) of the
        broadcast time series.
    """

    def __init__(
        self,
        config,
        *,
        clock=None,
        budget_ms: float = 5.0,
        checkpoint_every: float = 0.0,
        checkpoint_dir: str | Path = "serve-state",
        checkpoint_keep: int = 2,
        series_interval: float = 0.0,
        series_wall_interval: float = 1.0,
    ) -> None:
        if budget_ms <= 0:
            raise ValueError(f"budget_ms must be positive, got {budget_ms}")
        self.driver = StreamDriver(
            config, clock=clock if clock is not None else WallClock(),
            horizon=None,
        )
        self.config = config
        self.budget_ms = float(budget_ms)
        self.broadcast = BroadcastStream()
        self.sampler = None
        if series_interval > 0 or series_wall_interval > 0:
            self.sampler = TimeSeriesSampler(
                self.driver.engine,
                metrics=self.driver.metrics,
                stations=self.driver.network.stations,
                capacity=config.capacity,
                interval=series_interval,
                wall_interval=series_wall_interval,
                stream=self.broadcast,
                run_id=self.driver.sim.run_id,
                label=config.label or f"serve:{config.scheme}",
                telemetry=self.driver.sim.telemetry,
            )
        self.checkpoint_every = float(checkpoint_every)
        self.checkpoint_dir = Path(checkpoint_dir)
        self.checkpoint_keep = max(1, int(checkpoint_keep))
        self.checkpoints_written = 0
        self._last_checkpoint = perf_counter()
        telemetry = self.driver.sim.telemetry
        self._hist = telemetry.histogram(
            "serve.decision_latency_ms", buckets=LATENCY_BUCKETS_MS
        )
        self._budget_misses = telemetry.counter("serve.budget_miss")
        self._decision_counter = telemetry.counter
        self._running = False
        self._failed: ServiceFailed | None = None
        self._started = perf_counter()
        self.decisions = 0
        #: Exact recent latencies (ms) for the stats percentiles; the
        #: histogram keeps the full-run distribution.
        self._latencies: deque[float] = deque(maxlen=65536)

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        if self._running:
            raise RuntimeError("service already started")
        self._running = True
        self._started = perf_counter()
        self._last_checkpoint = self._started

    async def stop(self) -> None:
        """Stop answering; re-raises what made the service fail, if
        anything did."""
        if not self._running:
            return
        self._running = False
        if self.sampler is not None:
            self.sampler.sample(final=True)
        if self._failed is not None:
            raise self._failed.__cause__

    # -- client API ----------------------------------------------------
    def apply_many(self, events) -> list[Decision | Exception | None]:
        """Apply one group of stream events: every event submitted, the
        engine advanced once, the group accounted for.

        A plain call — the WebSocket gateway makes it from its read
        callback, the coroutines below from theirs.  Results align with
        ``events``: a :class:`~repro.serve.driver.Decision` per query,
        ``None`` for notifications, and the exception *instance* (a
        :class:`ValueError`, or whatever a mistyped field raised) for a
        malformed event (the valid rest of the group is still applied).
        """
        if self._failed is not None:
            raise self._failed
        if not self._running:
            raise RuntimeError("service is not running")
        started = perf_counter()
        driver = self.driver
        slots = []
        for event in events:
            try:
                slots.append(driver.submit(event))
            except Exception as error:
                slots.append(error)
        try:
            driver.flush()
        except Exception as error:
            raise self._fail(error) from error
        done = perf_counter()
        # One latency per group, so the accounting is per group too:
        # tally while the results are laid out, then touch each
        # instrument once.
        results = []
        tally: dict = {}
        for slot in slots:
            if isinstance(slot, Exception):
                results.append(slot)
                continue
            decision = slot.decision
            results.append(decision)
            if decision is not None:
                label = (decision.kind, decision.admitted)
                tally[label] = tally.get(label, 0) + 1
        if tally:
            latency_ms = (done - started) * 1000.0
            decided = sum(tally.values())
            self.decisions += decided
            self._latencies.extend(repeat(latency_ms, decided))
            self._hist.observe(latency_ms, decided)
            if latency_ms > self.budget_ms:
                self._budget_misses.inc(decided)
            for (kind, admitted), count in tally.items():
                self._decision_counter(
                    "serve.decisions",
                    kind=kind,
                    outcome="accepted" if admitted else "rejected",
                ).inc(count)
        sampler = self.sampler
        if sampler is not None and sampler.due():
            sampler.sample(decisions=self.decisions)
        if self.checkpoint_every > 0 and (
            done - self._last_checkpoint >= self.checkpoint_every
        ):
            try:
                self._checkpoint()
            except Exception as error:
                raise self._fail(error) from error
            self._last_checkpoint = perf_counter()
        return results

    async def submit_many(self, events) -> list[Decision | Exception | None]:
        """:meth:`apply_many`, then one yield to the event loop so
        in-process clients interleave group by group."""
        results = self.apply_many(events)
        await asyncio.sleep(0)
        return results

    async def submit(self, event: StreamEvent) -> Decision | None:
        """Apply one stream event; returns its decision (``None`` for
        notifications that carry no decision)."""
        results = await self.submit_many((event,))
        result = results[0]
        if isinstance(result, Exception):
            raise result
        return result

    async def admit(
        self,
        cell: int,
        traffic: str = "voice",
        t: float | None = None,
        conn: int = -1,
    ) -> Decision:
        """Admission query: may connection ``traffic`` enter ``cell``?"""
        decision = await self.submit(
            StreamEvent(t=t, kind=ARRIVAL, cell=cell, conn=conn, traffic=traffic)
        )
        assert decision is not None  # arrivals always decide
        return decision

    def stats(self) -> dict:
        """Service-side counters: decisions/s and latency percentiles."""
        elapsed = perf_counter() - self._started
        latencies = sorted(self._latencies)

        def pct(fraction: float) -> float:
            if not latencies:
                return 0.0
            index = min(
                len(latencies) - 1, int(fraction * (len(latencies) - 1))
            )
            return latencies[index]

        return {
            "decisions": self.decisions,
            "decisions_per_s": self.decisions / elapsed if elapsed > 0 else 0.0,
            "p50_ms": round(pct(0.50), 4),
            "p99_ms": round(pct(0.99), 4),
            "active_connections": self.driver.active_connections,
            "ignored_events": self.driver.ignored,
            "stream_t": round(self.driver.engine.now, 6),
            "checkpoints": self.checkpoints_written,
        }

    def _fail(self, error: Exception) -> ServiceFailed:
        self._failed = ServiceFailed(f"admission service failed: {error!r}")
        return self._failed

    def _checkpoint(self) -> None:
        index = self.checkpoints_written
        path = self.checkpoint_dir / f"serve_{index:06d}"
        self.driver.save_state(path)
        self.checkpoints_written = index + 1
        stale = sorted(self.checkpoint_dir.glob("serve_*"))
        for old in stale[: -self.checkpoint_keep]:
            shutil.rmtree(old, ignore_errors=True)
