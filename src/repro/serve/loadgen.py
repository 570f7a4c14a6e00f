"""Closed-loop load generator for the live admission service.

A pool of asyncio workers takes turns submitting groups of requests to
one :class:`~repro.serve.service.AdmissionService`.
Each worker plays a caller population: it admits new connections,
hands live ones off to random cells, and completes them, with the mix
controlled by weights — so the service sees the same event shapes a
real client would send (including racing hand-offs against completes,
which the driver absorbs as ignored events).

This is a *benchmark* workload: throughput-shaped, not paper-shaped.
The scenario's offered load and mobility live in the DES; here the
only goal is to saturate the decision path and measure it
(``repro serve-bench`` and ``scripts/serve_smoke.py`` both drive
through :func:`run_load`).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from time import perf_counter

from repro.serve.events import ARRIVAL, COMPLETE, HANDOFF, StreamEvent

__all__ = ["LoadReport", "run_load"]


@dataclass(frozen=True, slots=True)
class LoadReport:
    """What the generator observed across one run."""

    decisions: int
    elapsed_s: float
    decisions_per_s: float
    admitted: int
    rejected: int
    handoffs: int
    completes: int
    ignored: int
    p50_ms: float
    p99_ms: float

    @property
    def admitted_fraction(self) -> float:
        queries = self.admitted + self.rejected
        return self.admitted / queries if queries else 0.0

    def to_json(self) -> dict:
        return {
            "decisions": self.decisions,
            "elapsed_s": round(self.elapsed_s, 4),
            "decisions_per_s": round(self.decisions_per_s, 1),
            "admitted": self.admitted,
            "rejected": self.rejected,
            "admitted_fraction": round(self.admitted_fraction, 4),
            "handoffs": self.handoffs,
            "completes": self.completes,
            "ignored": self.ignored,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
        }


async def run_load(
    service,
    *,
    decisions: int = 10_000,
    concurrency: int = 64,
    pipeline: int = 32,
    seed: int = 7,
    handoff_weight: float = 0.3,
    complete_weight: float = 0.3,
    video_fraction: float = 0.2,
) -> LoadReport:
    """Drive ``decisions`` admission decisions through ``service``.

    ``concurrency`` workers each submit groups of ``pipeline`` events
    through :meth:`~repro.serve.service.AdmissionService.submit_many`
    (set ``pipeline=1`` for a strict request/response workload) and
    take turns group by group: a group is applied by the call itself,
    and the workers alternate at the one yield after it.
    ``handoff_weight``/``complete_weight`` set the probability that a
    worker's next move touches one of its live connections instead of
    admitting a new one (hand-offs count as decisions; completes do
    not — they are notifications).  Returns a :class:`LoadReport`;
    its latency percentiles are the service's own measurement — the
    wall time a group took to apply, weighted by its decisions.
    Nothing queues in the process, so they do not grow with
    ``concurrency × pipeline`` (no Little's law), and they are not a
    round trip either.
    """
    if decisions < 1:
        raise ValueError(f"decisions must be >= 1, got {decisions}")
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    if pipeline < 1:
        raise ValueError(f"pipeline must be >= 1, got {pipeline}")
    num_cells = service.driver.network.topology.num_cells
    traffic = service.driver.traffic_classes
    video = [name for name in traffic if name != "voice"]
    counters = {
        "decided": 0,
        "admitted": 0,
        "rejected": 0,
        "handoffs": 0,
        "completes": 0,
        "ignored": 0,
    }

    async def worker(worker_id: int) -> None:
        rng = random.Random((seed << 8) ^ worker_id)
        # Worker-local population: each worker only hands off /
        # completes connections it admitted, so the workload stays
        # race-free without cross-task locking (swap-pop keeps the
        # random removals O(1)).
        live: list[int] = []
        while counters["decided"] < decisions:
            batch = []
            pending_handoffs = {}
            for slot in range(pipeline):
                roll = rng.random()
                if live and roll < handoff_weight:
                    conn = live[rng.randrange(len(live))]
                    pending_handoffs[len(batch)] = conn
                    batch.append(
                        StreamEvent(
                            t=None,
                            kind=HANDOFF,
                            cell=rng.randrange(num_cells),
                            conn=conn,
                        )
                    )
                elif live and roll < handoff_weight + complete_weight:
                    index = rng.randrange(len(live))
                    conn = live[index]
                    live[index] = live[-1]
                    live.pop()
                    batch.append(StreamEvent(t=None, kind=COMPLETE, conn=conn))
                else:
                    name = (
                        rng.choice(video)
                        if video and rng.random() < video_fraction
                        else "voice"
                    )
                    batch.append(
                        StreamEvent(
                            t=None,
                            kind=ARRIVAL,
                            cell=rng.randrange(num_cells),
                            traffic=name,
                        )
                    )
            results = await service.submit_many(batch)
            dead = set()
            for position, (event, decision) in enumerate(zip(batch, results)):
                if event.kind == ARRIVAL:
                    counters["decided"] += 1
                    if decision.admitted:
                        counters["admitted"] += 1
                        live.append(decision.conn)
                    else:
                        counters["rejected"] += 1
                elif event.kind == HANDOFF:
                    if decision is None:
                        counters["ignored"] += 1
                        dead.add(pending_handoffs[position])
                    else:
                        counters["decided"] += 1
                        counters["handoffs"] += 1
                        if not decision.admitted:
                            dead.add(pending_handoffs[position])
                else:
                    counters["completes"] += 1
            if dead:  # connections dropped at hand-off this batch
                live[:] = [conn for conn in live if conn not in dead]

    started = perf_counter()
    await asyncio.gather(
        *(worker(index) for index in range(concurrency))
    )
    elapsed = perf_counter() - started
    stats = service.stats()
    total = counters["decided"]
    return LoadReport(
        decisions=total,
        elapsed_s=elapsed,
        decisions_per_s=total / elapsed if elapsed > 0 else 0.0,
        admitted=counters["admitted"],
        rejected=counters["rejected"],
        handoffs=counters["handoffs"],
        completes=counters["completes"],
        ignored=counters["ignored"],
        p50_ms=stats["p50_ms"],
        p99_ms=stats["p99_ms"],
    )
