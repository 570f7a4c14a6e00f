""":class:`AdmissionService` — the asyncio façade over the stream core.

Queries (``admit``) and notifications (hand-off / completion / exit)
land on one :class:`asyncio.Queue`.  A single worker coroutine drains
whatever has accumulated, injects the batch into the DES heap and
advances the engine once — so concurrent queries ride the same
coalesced reservation tick the simulator batches same-timestamp
admission tests through, and per-decision cost amortizes exactly like
the DES hot loop.  Every decision's wall latency feeds a telemetry
histogram (``serve.decision_latency_ms``) next to a queue-depth gauge,
so ``--prom-out`` and the JSON telemetry export work for the service
with no new plumbing.

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

__all__ = ["AdmissionService", "BroadcastStream", "WorkerDied"]

#: Decision-latency histogram edges in milliseconds.  Batched decisions
#: land well under a millisecond; the tail buckets catch checkpoint or
#: GC pauses.
LATENCY_BUCKETS_MS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0
)


class WorkerDied(RuntimeError):
    """The service's worker task ended abnormally.

    Raised from every request that was pending then and from every
    later one: a dead worker resolves nothing, so the alternative is a
    caller waiting forever.
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


class _Pending:
    """One queue entry: a group of events resolved by a single future.

    Interactive clients submit groups of one; pipelining clients
    (the load generator, batched WebSocket ops) submit many per group
    so the per-decision task wake-up amortizes away.
    """

    __slots__ = ("events", "future", "submitted")

    def __init__(self, events, future, submitted) -> None:
        self.events = events
        self.future = future
        self.submitted = submitted


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
        Per-decision wall-latency budget; decisions over it count into
        ``serve.budget_miss`` (the SLO is observable, not enforced —
        an admission answer is useful even when late).
    max_batch:
        Cap on queries drained per engine advance.
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
        max_batch: int = 512,
        checkpoint_every: float = 0.0,
        checkpoint_dir: str | Path = "serve-state",
        checkpoint_keep: int = 2,
        series_interval: float = 0.0,
        series_wall_interval: float = 1.0,
    ) -> None:
        if budget_ms <= 0:
            raise ValueError(f"budget_ms must be positive, got {budget_ms}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.driver = StreamDriver(
            config, clock=clock if clock is not None else WallClock(),
            horizon=None,
        )
        self.config = config
        self.budget_ms = float(budget_ms)
        self.max_batch = int(max_batch)
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
        self._depth = telemetry.gauge("serve.queue_depth")
        self._budget_misses = telemetry.counter("serve.budget_miss")
        self._decision_counter = telemetry.counter
        self._queue: asyncio.Queue = asyncio.Queue()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._task: asyncio.Task | None = None
        self._running = False
        self._died: WorkerDied | None = None
        #: The group of requests the worker holds outside the queue.
        self._inflight: list[_Pending] = []
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
        self._task = asyncio.create_task(self._worker(), name="serve-worker")

    async def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        await self._queue.put(None)
        if self._task is not None:
            await self._task
            self._task = None
        if self.sampler is not None:
            self.sampler.sample(final=True)

    # -- client API ----------------------------------------------------
    async def submit(self, event: StreamEvent) -> Decision | None:
        """Queue one stream event; resolves with its decision (``None``
        for notifications that carry no decision)."""
        results = await self.submit_many((event,))
        result = results[0]
        if isinstance(result, Exception):
            raise result
        return result

    async def submit_many(self, events) -> list[Decision | None]:
        """Pipelined ingestion: queue a group of events, resolve once.

        The whole group rides one engine advance and one task wake-up,
        so a client pipelining K events pays 1/K of the per-decision
        asyncio overhead.  Results align with ``events``: a
        :class:`~repro.serve.driver.Decision` per query, ``None`` for
        notifications, and the exception *instance* (a
        :class:`ValueError`, or whatever a mistyped field raised) for a
        malformed event (the valid rest of the group is still applied).
        """
        if self._died is not None:
            raise self._died
        if not self._running:
            raise RuntimeError("service is not running")
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
        future = self._loop.create_future()
        self._queue.put_nowait(_Pending(tuple(events), future, perf_counter()))
        return await future

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
            "queue_depth": self._queue.qsize(),
            "active_connections": self.driver.active_connections,
            "ignored_events": self.driver.ignored,
            "stream_t": round(self.driver.engine.now, 6),
            "checkpoints": self.checkpoints_written,
        }

    # -- worker --------------------------------------------------------
    async def _worker(self) -> None:
        try:
            await self._serve()
        except BaseException as error:
            # Nobody is left to resolve anything: fail what is pending
            # and everything later by name instead of letting it hang.
            self._died = WorkerDied(f"serve worker ended: {error!r}")
            self._died.__cause__ = error
            stranded = self._inflight
            while not self._queue.empty():
                stranded.append(self._queue.get_nowait())
            for pending in stranded:
                if pending is not None and not pending.future.done():
                    pending.future.set_exception(self._died)
            raise

    async def _serve(self) -> None:
        queue = self._queue
        driver = self.driver
        while True:
            item = await queue.get()
            if item is None:
                break
            batch = self._inflight = [item]
            while len(batch) < self.max_batch:
                try:
                    extra = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is None:
                    queue.put_nowait(None)  # re-deliver the stop signal
                    break
                batch.append(extra)
            self._depth.set(queue.qsize())
            groups = []
            for pending in batch:
                slots = []
                for event in pending.events:
                    try:
                        slots.append(driver.submit(event))
                    except Exception as error:
                        slots.append(error)
                groups.append((pending, slots))
            driver.flush()
            done = perf_counter()
            for pending, slots in groups:
                # One latency per group, so the accounting is per group
                # too: tally while the results are laid out, then touch
                # each instrument once.
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
                    latency_ms = (done - pending.submitted) * 1000.0
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
                if not pending.future.done():
                    pending.future.set_result(results)
            sampler = self.sampler
            if sampler is not None and sampler.due():
                sampler.sample(
                    queue_depth=queue.qsize(), decisions=self.decisions
                )
            if self.checkpoint_every > 0 and (
                done - self._last_checkpoint >= self.checkpoint_every
            ):
                self._checkpoint()
                self._last_checkpoint = perf_counter()
            # One scheduling point per batch: lets producers refill the
            # queue (and WebSocket tasks send replies) between engine
            # advances without a per-decision context switch.
            await asyncio.sleep(0)

    def _checkpoint(self) -> None:
        index = self.checkpoints_written
        path = self.checkpoint_dir / f"serve_{index:06d}"
        self.driver.save_state(path)
        self.checkpoints_written = index + 1
        stale = sorted(self.checkpoint_dir.glob("serve_*"))
        for old in stale[: -self.checkpoint_keep]:
            shutil.rmtree(old, ignore_errors=True)
