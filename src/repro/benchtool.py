"""Persisted benchmark harness: time the hot paths and record a JSON report.

Complements the pytest micro-benchmarks (``benchmarks/``) with a
dependency-free runner that can be executed anywhere the package is
importable and leaves an artifact behind::

    python scripts/bench.py            # full run, writes BENCH_<date>.json
    python scripts/bench.py --smoke    # CI-sized sanity run
    repro-bench --output out.json      # installed console entry point
    repro-bench --kernel python        # force the pure-Python kernel
    repro-bench --profile              # cProfile the run, print the top-N
    repro-bench --compare BENCH_x.json # per-bench speedups vs a baseline
    repro-bench --history              # markdown trend over BENCH_*.json

The report covers:

* micro-benchmarks — cold Eq. 6 reservation update, scalar Eq. 4
  hand-off probability query, and the raw event loop (ops/sec each);
* one representative AC3 simulation — wall time, events/sec, and the
  paper's complexity metrics (``N_calc`` per admission test, average
  inter-BS messages);
* ``state_io`` — durable checkpoint write/read throughput (MB/s and
  wall time) against an L=200 warm state, plus the state's size;
* ``sampling`` — the streaming time-series sampler's throughput cost
  (events/s with sampling on vs off), gated at 5% by ``--compare``;
* ``serve_latency`` — the live admission service under the bundled
  load generator: decisions/s with P50/P99 decision latency for a
  ``static`` (service-layer, floor-gated at 10k decisions/s) and an
  ``ac3`` (full adaptive scheme) variant.

``--compare`` prints the per-bench throughput delta against a previous
report and exits non-zero when any bench regressed by more than the
``--regression-threshold`` (20% by default) — the CI gate
(``scripts/ci.sh``) runs it against the newest committed baseline.

Per-benchmark measuring time defaults to ``REPRO_BENCH_DURATION``
seconds (0.5 if unset), so CI can shrink it without flag plumbing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import time
from dataclasses import replace
from datetime import date
from pathlib import Path
from typing import Callable, Sequence

from repro._kernel import KERNELS, kernel_name, set_kernel
from repro.cellular.network import CellularNetwork
from repro.obs import configure_logging, ensure_configured
from repro.cellular.topology import LinearTopology
from repro.des import Engine
from repro.estimation.cache import CacheConfig
from repro.estimation.estimator import MobilityEstimator
from repro.simulation.scenarios import stationary
from repro.simulation.simulator import CellularSimulator
from repro.traffic.classes import VOICE
from repro.traffic.connection import Connection

def _measure(
    operation: Callable[[], object], duration: float, repeats: int = 5
) -> dict:
    """Time ``operation`` for about ``duration`` seconds; best-of-N.

    The budget is split into ``repeats`` slices and the *fastest* slice
    is reported: transient interference (other tenants, frequency
    scaling) only ever slows a slice down, so the minimum mean is the
    most reproducible estimate — which is what the ``--compare``
    regression gate needs.
    """
    # Warm up and calibrate a batch size so the clock is read far less
    # often than the operation runs.
    operation()
    started = time.perf_counter()
    operation()
    single = time.perf_counter() - started
    batch = max(1, int(0.01 / single) if single > 0 else 1000)
    slice_duration = duration / repeats
    best_mean = float("inf")
    total_calls = 0
    for _ in range(repeats):
        calls = 0
        started = time.perf_counter()
        while True:
            for _ in range(batch):
                operation()
            calls += batch
            elapsed = time.perf_counter() - started
            if elapsed >= slice_duration:
                break
        total_calls += calls
        mean = elapsed / calls
        if mean < best_mean:
            best_mean = mean
    return {
        "calls": total_calls,
        "mean_us": best_mean * 1e6,
        "ops_per_sec": 1.0 / best_mean if best_mean > 0 else float("inf"),
    }


# ----------------------------------------------------------------------
# micro-benchmark setups (mirroring benchmarks/test_microbench.py)
# ----------------------------------------------------------------------
def _reservation_update_station():
    network = CellularNetwork(
        LinearTopology(10),
        cache_config=CacheConfig(interval=None),
    )
    rng = random.Random(1)
    for neighbor in (1, 9):
        station = network.station(neighbor)
        for index in range(100):
            station.estimator.record_departure(
                float(index), None, 0, rng.uniform(10.0, 60.0)
            )
        for _ in range(80):
            connection = Connection(
                VOICE, 0.0, neighbor, cell_entry_time=rng.uniform(0, 90)
            )
            network.cell(neighbor).attach(connection)
    station = network.station(0)
    station.window.t_est = 10.0
    return station


def bench_reservation_update(duration: float) -> dict:
    """Cold Eq. 6 update: 2 contributing neighbours, 80 conns each.

    Every call is the literal §4.1 sequence over the scalar Eq. 5
    walk (``update_target_reservation``) — the reference path, not the
    tick the policies run.
    """
    station = _reservation_update_station()
    return _measure(
        lambda: station.update_target_reservation(100.0), duration
    )


def _warm_estimator() -> MobilityEstimator:
    estimator = MobilityEstimator(CacheConfig(interval=None))
    rng = random.Random(0)
    for index in range(100):
        estimator.record_departure(
            float(index), 1, rng.choice((0, 2)), rng.uniform(10.0, 60.0)
        )
    estimator.function_for(1000.0, 1)
    return estimator


def bench_handoff_probability_scalar(duration: float) -> dict:
    """One Eq. 4 query against a warm 100-quadruplet snapshot."""
    estimator = _warm_estimator()
    return _measure(
        lambda: estimator.handoff_probability(1000.0, 1, 20.0, 2, 15.0),
        duration,
    )


def bench_event_loop(duration: float) -> dict:
    """10k self-rescheduling events through a fresh engine per call."""

    def run_10k_events():
        engine = Engine()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10_000:
                engine.call_in(1.0, tick)

        engine.call_in(1.0, tick)
        engine.run()

    report = _measure(run_10k_events, max(duration, 0.2))
    report["events_per_sec"] = report["ops_per_sec"] * 10_000
    return report


# ----------------------------------------------------------------------
# representative simulation
# ----------------------------------------------------------------------
def bench_ac3_run(smoke: bool) -> dict:
    """One AC3 run at L=200: wall time plus the paper's cost metrics."""
    config = stationary(
        "AC3",
        offered_load=200.0,
        voice_ratio=0.8,
        high_mobility=True,
        duration=200.0 if smoke else 1000.0,
        seed=3,
    )
    # Best of two runs: the simulation is deterministic, so both produce
    # identical metrics and only wall time differs with machine noise.
    result = CellularSimulator(config).run()
    rerun = CellularSimulator(config).run()
    if rerun.wall_seconds < result.wall_seconds:
        result = rerun
    return {
        "duration": config.duration,
        "offered_load": config.offered_load,
        "wall_seconds": result.wall_seconds,
        "events_processed": result.events_processed,
        "events_per_sec": (
            result.events_processed / result.wall_seconds
            if result.wall_seconds > 0
            else float("inf")
        ),
        "n_calc": result.average_calculations,
        "avg_messages": result.average_messages,
        "p_cb": result.blocking_probability,
        "p_hd": result.dropping_probability,
    }


def bench_ac3_replicated(
    smoke: bool,
    workers: int | None = None,
    replications: int | None = None,
    ci_level: float = 0.95,
) -> dict:
    """Sharded replication runner vs one sequential long run (AC3).

    Runs the same scenario twice: once as a single long run whose
    hourly buckets feed a sequential batch-means interval, once through
    :func:`repro.simulation.replication.run_replicated` on the
    persistent warm pool.  Reports both wall clocks, the speedup, and
    whether the merged shard estimate lands inside the sequential CI.
    The speedup is bounded by physical cores — ``cpu_count`` is
    recorded, the default worker count is capped at it, and an
    explicitly oversubscribed pool is annotated in the report so a
    reader never mistakes scheduler thrash for sharding overhead.
    """
    from repro.analysis.stats import batch_means_from_hourly
    from repro.simulation.replication import run_replicated
    from repro.simulation.runner import shared_pool

    cpu_count = os.cpu_count() or 1
    requested_workers = workers
    if workers is None:
        # Default widths clamp to the machine: an oversubscribed pool
        # measures scheduler thrash, not sharding (BENCH_2026-08-06
        # recorded a 0.57x "speedup" from 8 workers on one core).
        # Explicit --workers above cpu_count still runs, but is
        # annotated and excluded from the regression gate.
        requested_workers = 2 if smoke else 8
        workers = min(requested_workers, cpu_count)
    if replications is None:
        replications = 4 if smoke else 8
    batch = 100.0 if smoke else 200.0
    config = stationary(
        "AC3",
        offered_load=200.0,
        voice_ratio=0.8,
        high_mobility=True,
        duration=batch + batch * replications,
        warmup=batch,
        seed=3,
    )
    # Sequential reference: same measured interval in one process, with
    # hourly buckets sized to one batch each (bucket 0 = the warm-up).
    sequential = CellularSimulator(
        replace(config, hourly_stats=True, day_seconds=24.0 * batch)
    ).run()
    seq_blocking, seq_dropping = batch_means_from_hourly(
        sequential, ci_level, skip_buckets=1
    )
    # Warm the persistent pool before timing: in steady state (sweeps,
    # repeated replication calls) the workers already exist, and fork
    # cost is a constant, not part of the sharding speedup.
    pool = shared_pool(min(workers, replications))
    pool.warm()
    replicated = run_replicated(
        config,
        replications=replications,
        ci_level=ci_level,
        pool=pool,
    )
    # The merged metrics must not depend on how the shards were
    # scheduled across workers.  Always re-run and verify — a silent
    # scheduling dependence would invalidate every replicated result —
    # and fail the whole benchmark loudly on a mismatch instead of
    # recording ``null``.
    recheck = run_replicated(
        config, replications=replications, ci_level=ci_level
    )
    deterministic = recheck.metrics_key() == replicated.metrics_key()
    if not deterministic:
        raise RuntimeError(
            "replicated merge is not deterministic: two runs of the"
            " same sharded scenario produced different merged metrics"
        )
    return {
        "workers": workers,
        "requested_workers": requested_workers,
        "replications": replications,
        "cpu_count": cpu_count,
        "oversubscribed": workers > cpu_count,
        "measured_seconds": config.duration - config.warmup,
        "sequential": {
            "wall_seconds": sequential.wall_seconds,
            "p_cb": sequential.blocking_probability,
            "p_hd": sequential.dropping_probability,
            "p_cb_half_width": seq_blocking.half_width,
            "p_hd_half_width": seq_dropping.half_width,
        },
        "replicated": {
            "wall_seconds": replicated.wall_seconds,
            "warm_seconds": replicated.warm_seconds,
            "shared_bytes": replicated.shared_bytes,
            "events_processed": replicated.events_processed,
            "p_cb": replicated.blocking_probability,
            "p_hd": replicated.dropping_probability,
            "p_cb_half_width": replicated.blocking_ci.half_width,
            "p_hd_half_width": replicated.dropping_ci.half_width,
        },
        "speedup": (
            sequential.wall_seconds / replicated.wall_seconds
            if replicated.wall_seconds > 0
            else float("inf")
        ),
        "merged_within_sequential_ci": bool(
            seq_blocking.covers(replicated.blocking_probability)
            and seq_dropping.covers(replicated.dropping_probability)
        ),
        "merge_deterministic": deterministic,
    }


def _shard_imbalance(shard_events) -> float:
    """Peak-to-mean ratio of per-shard event counts (1.0 = perfect)."""
    if not shard_events:
        return 1.0
    mean = sum(shard_events) / len(shard_events)
    return max(shard_events) / mean if mean > 0 else 1.0


def _spatial_oversubscribed(shards: int, cpu_count: int) -> bool:
    """True when a spatial leg cannot get a core per process.

    A multi-shard leg runs ``shards`` worker processes *plus* the
    coordinating parent, so it needs ``shards + 1`` cores before the
    epoch barrier stops timeslicing; a single-shard leg runs
    in-process.  Oversubscribed legs are still measured (they show
    where the scaling curve flattens) but excluded from the regression
    gate — their wall time tracks scheduler contention, not the
    runner, and swings far beyond the gate threshold with host load.
    """
    return shards > 1 and shards + 1 > cpu_count


@contextlib.contextmanager
def _quiet_gc():
    """Silence the cyclic collector around a timed leg.

    By the time the spatial benches run, the report process has built
    and dropped several whole simulations; every gen-2 collection
    during a timed run rescans that accumulated heap, depressing the
    measured events/s by 30-40% versus the same call in a fresh
    process.  Collect once up front, then let pure refcounting carry
    the leg — the DES hot path allocates no cycles.
    """
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def bench_ac3_spatial(smoke: bool) -> dict:
    """Spatially sharded hex city: events/s versus shard count (AC3).

    Runs the same city once per shard count.  Every run must merge to
    the same ``metrics_key()`` — shard-count independence is the
    spatial runner's core invariant, so a mismatch fails the whole
    benchmark loudly.  Legs whose processes (workers plus the
    coordinating parent) exceed the core count still run (they show
    where the scaling curve flattens) but are annotated
    ``oversubscribed`` and excluded from the regression gate.
    """
    from repro.simulation.scenarios import hex_city
    from repro.simulation.spatial import run_spatial

    cpu_count = os.cpu_count() or 1
    if smoke:
        rows = cols = 6
        duration, load = 40.0, 150.0
        shard_counts = (1, 2)
    else:
        # Heavy per-epoch work (cells x load) is what the barrier cost
        # amortises against; a lightly loaded city measures sync, not
        # scaling.
        rows = cols = 30
        duration, load = 20.0, 700.0
        shard_counts = (1, 2, 4, 8)
    config = hex_city(
        "AC3",
        rows=rows,
        cols=cols,
        offered_load=load,
        voice_ratio=0.8,
        duration=duration,
        seed=5,
    )
    runs = []
    reference_key = None
    # Best-of-3 per leg (best-of-1 in smoke): a single 4-6 s run on a
    # shared box is too noisy for the 20% --compare gate; the minimum
    # wall time estimates the undisturbed cost, and every repeat must
    # merge to the same metrics_key().
    repeats = 1 if smoke else 3
    for shards in shard_counts:
        result = None
        for _ in range(repeats):
            with _quiet_gc():
                attempt = run_spatial(config, shards, processes=shards > 1)
            key = attempt.metrics_key()
            if reference_key is None:
                reference_key = key
            elif key != reference_key:
                raise RuntimeError(
                    f"spatial merge is not shard-independent: {shards}"
                    " shards produced different merged metrics than 1 shard"
                )
            if result is None or attempt.wall_seconds < result.wall_seconds:
                result = attempt
        shard_events = list(result.shard_events or ())
        runs.append({
            "shards": shards,
            "wall_seconds": result.wall_seconds,
            "events_processed": result.events_processed,
            "events_per_sec": (
                result.events_processed / result.wall_seconds
                if result.wall_seconds > 0
                else 0.0
            ),
            "shard_events": shard_events,
            "imbalance": _shard_imbalance(shard_events),
            "oversubscribed": _spatial_oversubscribed(shards, cpu_count),
            "repeats": repeats,
        })
    base = runs[0]["wall_seconds"]
    for run in runs:
        run["speedup_vs_1"] = (
            base / run["wall_seconds"] if run["wall_seconds"] > 0
            else float("inf")
        )
    return {
        "grid": f"{rows}x{cols}",
        "offered_load": load,
        "duration": duration,
        "cpu_count": cpu_count,
        "p_cb": result.blocking_probability,
        "p_hd": result.dropping_probability,
        "runs": runs,
        "merge_deterministic": True,
    }


def bench_ac3_spatial_balanced(smoke: bool) -> dict:
    """City-scale spatial runs on the columnar hot loop (AC3).

    Three legs:

    * ``throughput`` — a uniform hex city (100x100 at L=500 in the
      full run) swept over shard counts on the default plan.  These
      events/s rows are the headline the ``--compare`` gate tracks
      (non-oversubscribed only, like ``ac3_spatial``).  Each shard
      count is timed best-of-3 (best-of-1 in smoke): like the
      ``sampling`` section, the minimum wall time estimates the
      undisturbed cost on a shared box, and every repeat must merge
      to the same ``metrics_key()``.
    * ``plans`` — the same city with traffic hot spots, one run per
      shard-plan kind at a fixed shard count: events/s plus the
      peak-to-mean shard imbalance the load-balanced plans exist to
      shrink.
    * ``campaign`` — a small hot-spot city run as a 2-day warm-started
      campaign once per plan kind; day 1 restores from day 0's written
      checkpoint, so matching per-day results across kinds prove the
      restore path is plan-independent.

    Every merged run of the same scenario must agree on
    ``metrics_key()`` regardless of shard count or plan kind; any
    mismatch raises.
    """
    import shutil
    import tempfile

    from repro.simulation.scenarios import hex_city
    from repro.simulation.spatial import (
        PLAN_KINDS,
        run_spatial,
        run_spatial_campaign,
    )

    cpu_count = os.cpu_count() or 1
    if smoke:
        rows = cols = 6
        duration, load = 30.0, 150.0
        shard_counts = (1, 2)
        plan_shards = 2
    else:
        rows = cols = 100
        duration, load = 5.0, 500.0
        shard_counts = (1, 2, 4)
        plan_shards = 4
    hotspots = (
        (rows // 5, cols // 3, 4.0, 6.0),
        (7 * rows // 10, 3 * cols // 5, 3.0, 5.0),
    )
    uniform = hex_city(
        "AC3",
        rows=rows,
        cols=cols,
        offered_load=load,
        duration=duration,
        seed=11,
    )
    hotspot = hex_city(
        "AC3",
        rows=rows,
        cols=cols,
        offered_load=load,
        duration=duration,
        seed=11,
        hotspots=hotspots,
    )
    throughput = []
    reference_key = None
    repeats = 1 if smoke else 3
    for shards in shard_counts:
        result = None
        for _ in range(repeats):
            with _quiet_gc():
                attempt = run_spatial(uniform, shards, processes=shards > 1)
            key = attempt.metrics_key()
            if reference_key is None:
                reference_key = key
            elif key != reference_key:
                raise RuntimeError(
                    "balanced spatial merge is not shard-independent:"
                    f" {shards} shards diverged"
                )
            if result is None or attempt.wall_seconds < result.wall_seconds:
                result = attempt
        shard_events = list(result.shard_events or ())
        throughput.append({
            "shards": shards,
            "wall_seconds": result.wall_seconds,
            "events_processed": result.events_processed,
            "events_per_sec": (
                result.events_processed / result.wall_seconds
                if result.wall_seconds > 0
                else 0.0
            ),
            "shard_events": shard_events,
            "imbalance": _shard_imbalance(shard_events),
            "oversubscribed": _spatial_oversubscribed(shards, cpu_count),
            "repeats": repeats,
        })
    plans = []
    plan_key = None
    for kind in PLAN_KINDS:
        with _quiet_gc():
            result = run_spatial(
                hotspot, plan_shards, processes=True, plan_kind=kind
            )
        key = result.metrics_key()
        if plan_key is None:
            plan_key = key
        elif key != plan_key:
            raise RuntimeError(
                "spatial merge is not plan-independent:"
                f" kind={kind!r} diverged"
            )
        shard_events = list(result.shard_events or ())
        plans.append({
            "plan": kind,
            "shards": plan_shards,
            "wall_seconds": result.wall_seconds,
            "events_per_sec": (
                result.events_processed / result.wall_seconds
                if result.wall_seconds > 0
                else 0.0
            ),
            "shard_events": shard_events,
            "imbalance": _shard_imbalance(shard_events),
        })
    # Checkpoint-restore invariance on a campaign-sized city: day 1 of
    # each campaign warm-starts from day 0's *written* checkpoint.
    campaign_city = hex_city(
        "AC3",
        rows=8,
        cols=6,
        offered_load=150.0,
        duration=30.0,
        seed=7,
        hotspots=((2, 2, 3.0),),
    )
    campaign_days = None
    for kind in PLAN_KINDS:
        state_dir = tempfile.mkdtemp(prefix="bench-spatial-ckpt-")
        try:
            reports = run_spatial_campaign(
                campaign_city,
                2,
                days=2,
                state_dir=state_dir,
                processes=False,
                plan_kind=kind,
            )
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)
        days = [
            {
                "day": report.day,
                "p_cb": report.blocking_probability,
                "p_hd": report.dropping_probability,
                "events": report.events,
                "quadruplets": report.quadruplets,
            }
            for report in reports
        ]
        if campaign_days is None:
            campaign_days = days
        elif days != campaign_days:
            raise RuntimeError(
                "warm-started campaign diverged across plan kinds:"
                f" kind={kind!r}"
            )
    return {
        "grid": f"{rows}x{cols}",
        "offered_load": load,
        "duration": duration,
        "cpu_count": cpu_count,
        "hotspots": [list(spot) for spot in hotspots],
        "throughput": throughput,
        "plans": plans,
        "campaign_days": campaign_days,
        "merge_deterministic": True,
        "restore_plan_invariant": True,
    }


def bench_columnar_memory(connections: int = 20_000) -> dict:
    """Bytes per live connection: object pair versus columnar store.

    Measures (via ``tracemalloc``) ``connections`` concurrent
    connections' hot state in the classic representation — a slotted
    :class:`Connection` holding its slotted ``Mobile`` (boxed field
    values included) — against the same state as
    :class:`~repro.simulation.columnar.ConnectionStore` rows.  That
    representation ratio is the headline number: it is what the spatial
    engine checkpoints, migrates, and scans.

    The engine additionally keeps one one-slot handle per *attached*
    connection (inside the owning ``Cell``'s connection map, which the
    object engine pays for too), so the report also records the
    handle-inclusive columnar figure and its ratio — the conservative
    bound on the end-to-end saving.
    """
    import tracemalloc

    from repro.mobility.mobile import Mobile
    from repro.simulation.columnar import ConnectionStore, handle_class

    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    objects = []
    for index in range(connections):
        mobile = Mobile(
            position_km=0.0, speed_kmh=45.0, direction=index % 6,
            cell_id=index % 100, position_time=0.0,
        )
        objects.append(Connection(
            traffic_class=VOICE,
            start_time=float(index),
            cell_id=index % 100,
            mobile=mobile,
        ))
    after, _ = tracemalloc.get_traced_memory()
    object_bytes = after - before
    del objects
    before, _ = tracemalloc.get_traced_memory()
    store = ConnectionStore(num_cells=100, capacity=connections)
    for index in range(connections):
        row = store.alloc()
        store.columns["entry_time"][row] = float(index)
        store.columns["cell"][row] = index % 100
    after, _ = tracemalloc.get_traced_memory()
    store_bytes = after - before
    handle_type = handle_class(store)
    before, _ = tracemalloc.get_traced_memory()
    handles = [handle_type(row) for row in range(connections)]
    after, _ = tracemalloc.get_traced_memory()
    handle_bytes = after - before
    del handles, store
    tracemalloc.stop()
    object_per = object_bytes / connections
    store_per = store_bytes / connections
    with_handles_per = (store_bytes + handle_bytes) / connections
    return {
        "connections": connections,
        "object_bytes_per_connection": object_per,
        "columnar_bytes_per_connection": store_per,
        "columnar_with_handles_bytes_per_connection": with_handles_per,
        "ratio": object_per / store_per if store_per > 0 else float("inf"),
        "ratio_with_handles": (
            object_per / with_handles_per if with_handles_per > 0
            else float("inf")
        ),
    }


def bench_state_io(smoke: bool) -> dict:
    """Checkpoint write/read throughput against an L=200 warm state.

    Saves a warm simulator's full state a few times (best wall time
    wins, as in ``_measure``) and restores it back; throughput is
    checkpoint bytes over wall seconds.  The read number includes
    rebuilding the simulator from the state — that is what a restart
    actually pays.  Not part of the ``--compare`` regression gate
    (disk speed is machine noise); the section exists so reports show
    how big and how costly durable state is.
    """
    import tempfile

    from repro.state import restore_simulator, save_checkpoint

    config = stationary(
        "AC3",
        offered_load=200.0,
        voice_ratio=0.8,
        high_mobility=True,
        duration=120.0 if smoke else 600.0,
        seed=3,
    )
    sim = CellularSimulator(config)
    sim.run()
    repeats = 2 if smoke else 5
    with tempfile.TemporaryDirectory() as scratch:
        target = Path(scratch) / "ckpt"
        write_seconds = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            save_checkpoint(sim, target)
            write_seconds = min(
                write_seconds, time.perf_counter() - started
            )
        state_bytes = sum(
            entry.stat().st_size
            for entry in target.rglob("*")
            if entry.is_file()
        )
        quadruplets = sum(
            station.estimator.cache.size()
            for station in sim.network.stations
        )
        read_seconds = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            restore_simulator(target, config)
            read_seconds = min(read_seconds, time.perf_counter() - started)
    return {
        "warm_duration": config.duration,
        "offered_load": config.offered_load,
        "state_bytes": state_bytes,
        "quadruplets": quadruplets,
        "connections": len(sim.active_connections),
        "write_seconds": write_seconds,
        "write_mb_per_sec": state_bytes / write_seconds / 1e6,
        "read_seconds": read_seconds,
        "read_mb_per_sec": state_bytes / read_seconds / 1e6,
    }


def bench_sampling_overhead(smoke: bool) -> dict:
    """Streaming-sampler cost: AC3 events/s with sampling on vs off.

    Runs the representative AC3 scenario with and without a 5 s
    time-series cadence — *interleaved* pairs, best-of-N each side, so
    transient machine interference (which dwarfs the sampler's actual
    per-event cost) hits both configurations alike and the two minima
    converge to the same no-interference speed.  Reports the resulting
    throughput ratio as ``overhead_fraction``.  The two runs must
    produce bit-identical ``metrics_key()``s (observation must not
    perturb the simulation); a mismatch fails the benchmark loudly.
    ``--compare`` gates the fraction at 5% regardless of the throughput
    threshold: sampling is supposed to be cheap enough to leave on.
    """
    config = stationary(
        "AC3",
        offered_load=200.0,
        voice_ratio=0.8,
        high_mobility=True,
        duration=200.0 if smoke else 600.0,
        seed=3,
    )
    sampled_config = replace(config, series_interval=5.0)
    repeats = 3 if smoke else 7
    plain = sampled = None
    for _ in range(repeats):
        result = CellularSimulator(config).run()
        if plain is None or result.wall_seconds < plain.wall_seconds:
            plain = result
        result = CellularSimulator(sampled_config).run()
        if sampled is None or result.wall_seconds < sampled.wall_seconds:
            sampled = result
    if sampled.metrics_key() != plain.metrics_key():
        raise RuntimeError(
            "time-series sampling perturbed the simulation: metrics"
            " differ between the sampled and the plain run"
        )

    def rate(result):
        return (
            result.events_processed / result.wall_seconds
            if result.wall_seconds > 0
            else float("inf")
        )

    plain_rate = rate(plain)
    sampled_rate = rate(sampled)
    return {
        "duration": config.duration,
        "series_interval": sampled_config.series_interval,
        "repeats": repeats,
        "samples": len(sampled.timeseries or []),
        "events_per_sec_plain": plain_rate,
        "events_per_sec_sampled": sampled_rate,
        "overhead_fraction": (
            1.0 - sampled_rate / plain_rate if plain_rate > 0 else 0.0
        ),
        "metrics_identical": True,
    }


def _rate(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def bench_ac3_telemetry(smoke: bool) -> dict:
    """One telemetry-enabled AC3 run: cache/dispatch ratios + snapshot.

    Not a timing benchmark (``compare_reports`` ignores it): it records
    the *efficiency* observables — the snapshot hit rate and the share
    of tick suppliers the resident kernel answered — so a report shows
    not just how fast the run was but why.
    """
    config = stationary(
        "AC3",
        offered_load=200.0,
        voice_ratio=0.8,
        high_mobility=True,
        duration=200.0,
        seed=3,
        telemetry=True,
    )
    snapshot = CellularSimulator(config).run().telemetry
    counters = snapshot["counters"]
    return {
        # The Eq. 5 contribution memo was removed (structurally-0% hit
        # rate under the coalesced tick); the field stays as an explicit
        # resolution marker so old reports' ``eq5_memo_hit_rate`` reads
        # as retired rather than silently vanished.
        "eq5_memo": "retired",
        # Fraction of tick-flush suppliers answered by the cross-cell
        # grouped batch (vs the scalar walk).
        "tick_grouped_fraction": _rate(
            counters.get('cellular.tick_suppliers{path="grouped"}', 0),
            counters.get('cellular.tick_suppliers{path="fallback"}', 0),
        ),
        "snapshot_hit_rate": _rate(
            counters.get('estimation.snapshot{outcome="hit"}', 0),
            counters.get('estimation.snapshot{outcome="build"}', 0),
        ),
        "snapshot": snapshot,
    }


def bench_serve_latency(smoke: bool) -> dict:
    """The live admission service under the bundled load generator.

    Two variants: ``static`` measures the service layer itself (queue,
    batched engine advance, asyncio plumbing — the ``>= 10k
    decisions/s`` floor is gated on it), and ``ac3`` measures the full
    adaptive scheme, whose per-decision Eq. 5/6 estimator work
    dominates (the micro benches above track that cost in isolation).
    Decision latencies are the service's own measurement: submit wall
    time to batch-resolution wall time.
    """
    import asyncio

    from repro.serve import AdmissionService
    from repro.serve.loadgen import run_load

    variants = {}
    for name, scheme, decisions, concurrency, pipeline in (
        ("static", "static", 4_000 if smoke else 30_000, 32, 64),
        ("ac3", "AC3", 1_000 if smoke else 3_000, 8, 16),
    ):
        config = stationary(
            scheme,
            offered_load=100.0,
            duration=3_600.0,
            seed=3,
            num_cells=19,
        )

        async def drive(config=config, decisions=decisions,
                        concurrency=concurrency, pipeline=pipeline):
            service = AdmissionService(config, series_wall_interval=0.0)
            await service.start()
            report = await run_load(
                service,
                decisions=decisions,
                concurrency=concurrency,
                pipeline=pipeline,
            )
            await service.stop()
            return report

        report = asyncio.run(drive())
        variants[name] = {
            **report.to_json(),
            "scheme": scheme,
            "concurrency": concurrency,
            "pipeline": pipeline,
        }
    return variants


def run_benchmarks(
    smoke: bool = False,
    workers: int | None = None,
    replications: int | None = None,
    ci_level: float = 0.95,
) -> dict:
    duration = float(os.environ.get("REPRO_BENCH_DURATION", "0.5"))
    if smoke:
        duration = min(duration, 0.1)
    report = {
        "date": date.today().isoformat(),
        "smoke": smoke,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "kernel": kernel_name(),
        "micro_seconds_per_bench": duration,
        "micro": {
            "reservation_update_cold": bench_reservation_update(duration),
            "handoff_probability_scalar": bench_handoff_probability_scalar(
                duration
            ),
            "event_loop": bench_event_loop(duration),
        },
        "simulation": {"ac3_load200": bench_ac3_run(smoke)},
    }
    # After the single-process timings, so pool forks and the
    # instrumented run cannot perturb them.
    report["simulation"]["ac3_replicated"] = bench_ac3_replicated(
        smoke, workers=workers, replications=replications, ci_level=ci_level
    )
    # The replicated bench leaves its persistent sweep pool warm for
    # the rest of the process.  The spatial benches fork their own
    # shard workers; retire the idle pool first so its processes do
    # not sit on memory (and the run queue) under the timed legs.
    from repro.simulation.runner import _close_shared_pools

    _close_shared_pools()
    report["simulation"]["ac3_spatial"] = bench_ac3_spatial(smoke)
    report["simulation"]["ac3_spatial_balanced"] = bench_ac3_spatial_balanced(
        smoke
    )
    report["memory"] = {"columnar_store": bench_columnar_memory()}
    report["state_io"] = bench_state_io(smoke)
    report["telemetry"] = bench_ac3_telemetry(smoke)
    report["sampling"] = bench_sampling_overhead(smoke)
    report["serve_latency"] = bench_serve_latency(smoke)
    return report


# ----------------------------------------------------------------------
# baseline comparison (the CI regression gate)
# ----------------------------------------------------------------------
def _throughputs(report: dict) -> dict[str, float]:
    """Flatten a report into comparable ``bench -> throughput`` pairs."""
    flat = {
        name: stats["ops_per_sec"]
        for name, stats in report.get("micro", {}).items()
    }
    simulation = report.get("simulation", {}).get("ac3_load200")
    if simulation:
        flat["ac3_load200"] = simulation["events_per_sec"]
    spatial = report.get("simulation", {}).get("ac3_spatial")
    if spatial:
        # Oversubscribed shard counts measure scheduler thrash, not the
        # runner: they are reported but never gated.
        for run in spatial.get("runs", ()):
            if not run.get("oversubscribed"):
                flat[f"ac3_spatial_s{run['shards']}"] = (
                    run["events_per_sec"]
                )
    balanced = report.get("simulation", {}).get("ac3_spatial_balanced")
    if balanced:
        for run in balanced.get("throughput", ()):
            if not run.get("oversubscribed"):
                flat[f"ac3_spatial_balanced_s{run['shards']}"] = (
                    run["events_per_sec"]
                )
    # serve_latency variants are deliberately absent: the static one is
    # gated by the absolute _SERVE_DECISIONS_FLOOR (relative comparison
    # of a smoke-scale CI run against a full-scale baseline is mostly
    # startup amortisation), and the AC3 one is estimator-bound — its
    # per-admission Eq. 5 flush cost is tracked in the report and the
    # --history table, not gated.
    return flat


#: Telemetry fractions (0..1) gated by ``--compare`` alongside the
#: throughputs: a drop of more than the threshold (absolute) means the
#: fast path stopped covering the work it used to cover.
_TRACKED_FRACTIONS = ("tick_grouped_fraction",)

#: Hard ceiling on the streaming sampler's throughput cost, gated by
#: ``--compare`` independently of ``--regression-threshold``: sampling
#: is meant to be cheap enough to leave on in production runs.
_SAMPLING_OVERHEAD_LIMIT = 0.05

#: Absolute floor on the live service's static-scheme decision
#: throughput, gated by ``--compare`` on full (non-smoke) runs: the
#: serving layer must sustain at least this many decisions/s.
_SERVE_DECISIONS_FLOOR = 10_000.0


def _fractions(report: dict) -> dict[str, float]:
    telemetry = report.get("telemetry", {})
    return {
        name: telemetry[name]
        for name in _TRACKED_FRACTIONS
        if isinstance(telemetry.get(name), (int, float))
    }


def compare_reports(
    baseline: dict, current: dict, threshold: float
) -> list[str]:
    """Print per-bench deltas; return the benches that regressed.

    A bench regresses when its throughput falls below
    ``baseline * (1 - threshold)``.  Benches present in only one report
    are listed but never counted as regressions (the harness itself
    evolves — e.g. the batched ``handoff_probability`` is gone).  Tracked
    telemetry fractions regress on an *absolute* drop larger than the
    threshold (they are already normalized to [0, 1]).  The streaming
    sampler's ``overhead_fraction`` is gated against the fixed
    :data:`_SAMPLING_OVERHEAD_LIMIT` (no baseline needed: the ceiling
    is absolute).
    """
    base = _throughputs(baseline)
    now = _throughputs(current)
    regressions: list[str] = []
    print(f"{'bench':<28} {'baseline':>14} {'current':>14} {'speedup':>8}")
    for name in sorted(base.keys() | now.keys()):
        if name not in base:
            print(f"{name:<28} {'-':>14} {now[name]:>14,.0f} {'new':>8}")
            continue
        if name not in now:
            print(f"{name:<28} {base[name]:>14,.0f} {'-':>14} {'gone':>8}")
            continue
        speedup = now[name] / base[name] if base[name] > 0 else float("inf")
        flag = ""
        if now[name] < base[name] * (1.0 - threshold):
            regressions.append(name)
            flag = "  ** REGRESSION"
        print(
            f"{name:<28} {base[name]:>14,.0f} {now[name]:>14,.0f}"
            f" {speedup:>7.2f}x{flag}"
        )
    base_fractions = _fractions(baseline)
    now_fractions = _fractions(current)
    for name in sorted(base_fractions.keys() | now_fractions.keys()):
        if name not in base_fractions:
            print(f"{name:<28} {'-':>14} {now_fractions[name]:>13.1%} "
                  f"{'new':>8}")
            continue
        if name not in now_fractions:
            print(f"{name:<28} {base_fractions[name]:>13.1%} {'-':>14} "
                  f"{'gone':>8}")
            continue
        flag = ""
        if now_fractions[name] < base_fractions[name] - threshold:
            regressions.append(name)
            flag = "  ** REGRESSION"
        print(
            f"{name:<28} {base_fractions[name]:>13.1%} "
            f"{now_fractions[name]:>13.1%}{flag}"
        )
    overhead = current.get("sampling", {}).get("overhead_fraction")
    if isinstance(overhead, (int, float)):
        flag = ""
        if overhead > _SAMPLING_OVERHEAD_LIMIT:
            regressions.append("sampling_overhead")
            flag = "  ** REGRESSION"
        print(
            f"{'sampling_overhead':<28} "
            f"{_SAMPLING_OVERHEAD_LIMIT:>12.1%}* {overhead:>13.1%}{flag}"
        )
    serve_rate = (
        current.get("serve_latency", {})
        .get("static", {})
        .get("decisions_per_s")
    )
    if isinstance(serve_rate, (int, float)) and not current.get("smoke"):
        # Absolute floor (smoke runs use tiny decision counts where the
        # fixed start-up cost dominates — baseline-relative gating above
        # still covers them).
        flag = ""
        if serve_rate < _SERVE_DECISIONS_FLOOR:
            regressions.append("serve_decisions_floor")
            flag = "  ** REGRESSION"
        print(
            f"{'serve_decisions_floor':<28} "
            f"{_SERVE_DECISIONS_FLOOR:>13,.0f}* {serve_rate:>14,.0f}{flag}"
        )
    return regressions


# ----------------------------------------------------------------------
# history: trend table over committed reports
# ----------------------------------------------------------------------
def _history_cell(value: float | None, fmt: str = ",.0f") -> str:
    return format(value, fmt) if isinstance(value, (int, float)) else "-"


def _history_row(report: dict) -> dict:
    """Extract the trend-table columns from one report."""
    micro = report.get("micro", {})
    simulation = report.get("simulation", {})
    ac3 = simulation.get("ac3_load200", {})
    spatial_rate = None
    for run in simulation.get("ac3_spatial", {}).get("runs", ()):
        if not run.get("oversubscribed"):
            rate = run.get("events_per_sec")
            if rate is not None and (
                spatial_rate is None or rate > spatial_rate
            ):
                spatial_rate = rate
    balanced_rate = None
    for run in simulation.get("ac3_spatial_balanced", {}).get(
        "throughput", ()
    ):
        if not run.get("oversubscribed"):
            rate = run.get("events_per_sec")
            if rate is not None and (
                balanced_rate is None or rate > balanced_rate
            ):
                balanced_rate = rate
    replicated = simulation.get("ac3_replicated", {})
    serve = report.get("serve_latency", {}).get("static", {})
    return {
        "date": report.get("date", "?"),
        "kernel": report.get("kernel", "?"),
        "smoke": bool(report.get("smoke")),
        "ac3_events_per_sec": ac3.get("events_per_sec"),
        "event_loop": micro.get("event_loop", {}).get("events_per_sec"),
        "spatial_events_per_sec": spatial_rate,
        "balanced_events_per_sec": balanced_rate,
        "replicated_speedup": replicated.get("speedup"),
        "sampling_overhead": report.get("sampling", {}).get(
            "overhead_fraction"
        ),
        "serve_decisions_per_s": serve.get("decisions_per_s"),
        "serve_p99_ms": serve.get("p99_ms"),
    }


def print_history(paths: Sequence[Path], out=print) -> int:
    """Markdown trend table over committed ``BENCH_*.json`` reports.

    One row per report, oldest first (reports sort by their dated file
    names).  Smoke reports are flagged — their numbers use tiny
    measuring windows and a short simulation, so comparing them against
    full runs is meaningless.  Degrades gracefully at the small end: no
    reports at all prints a pointer instead of an empty table (exit 0 —
    a fresh clone is not an error), a single report renders with a note
    that a trend needs at least two.  Returns 2 only when reports were
    found but none could be read.
    """
    paths = sorted(paths)
    if not paths:
        out(
            "no BENCH_<date>.json reports found — run 'repro-bench'"
            " (or scripts/bench.py) to record the first one"
        )
        return 0
    rows = []
    for path in paths:
        try:
            report = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            out(f"WARNING: skipping {path}: {error}")
            continue
        rows.append(_history_row(report))
    if not rows:
        out("no readable benchmark reports")
        return 2
    out(
        "| date | kernel | ac3 ev/s | loop ev/s"
        " | spatial ev/s | balanced ev/s | repl speedup | sampler ovh"
        " | serve dec/s | serve p99 |"
    )
    out("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|")
    for row in rows:
        date_cell = row["date"] + (" (smoke)" if row["smoke"] else "")
        speedup = row["replicated_speedup"]
        overhead = row["sampling_overhead"]
        p99 = row.get("serve_p99_ms")
        out(
            f"| {date_cell} | {row['kernel']}"
            f" | {_history_cell(row['ac3_events_per_sec'])}"
            f" | {_history_cell(row['event_loop'])}"
            f" | {_history_cell(row['spatial_events_per_sec'])}"
            f" | {_history_cell(row.get('balanced_events_per_sec'))}"
            f" | {_history_cell(speedup, '.2f')}"
            f"{'x' if isinstance(speedup, (int, float)) else ''}"
            f" | {_history_cell(overhead, '.1%')}"
            f" | {_history_cell(row.get('serve_decisions_per_s'))}"
            f" | {_history_cell(p99, '.1f')}"
            f"{' ms' if isinstance(p99, (int, float)) else ''} |"
        )
    if len(rows) == 1:
        out("")
        out(
            "only one report — commit more BENCH_<date>.json files"
            " to see a trend"
        )
    return 0


def _print_report(report: dict, output: Path) -> None:
    print(f"kernel: {report['kernel']}")
    for name, stats in report["micro"].items():
        print(f"{name:<28} {stats['mean_us']:>10.3f} us/op "
              f"{stats['ops_per_sec']:>14,.0f} ops/s")
    sim = report["simulation"]["ac3_load200"]
    print(f"{'ac3_load200':<28} {sim['wall_seconds']:>10.2f} s    "
          f"{sim['events_per_sec']:>14,.0f} events/s  "
          f"N_calc={sim['n_calc']:.2f}  msgs={sim['avg_messages']:.2f}")
    replicated = report["simulation"].get("ac3_replicated")
    if replicated:
        rep = replicated["replicated"]
        print(
            f"{'ac3_replicated':<28} {rep['wall_seconds']:>10.2f} s    "
            f"speedup={replicated['speedup']:.2f}x"
            f" (workers={replicated['workers']},"
            f" K={replicated['replications']},"
            f" cpus={replicated['cpu_count']})"
        )
        print(
            f"{'':<28} P_CB={rep['p_cb']:.4f}"
            f"±{rep['p_cb_half_width']:.4f}"
            f"  P_HD={rep['p_hd']:.4f}±{rep['p_hd_half_width']:.4f}"
            f"  within_seq_ci="
            f"{replicated['merged_within_sequential_ci']}"
        )
    spatial = report["simulation"].get("ac3_spatial")
    if spatial:
        for run in spatial["runs"]:
            label = f"ac3_spatial ({spatial['grid']}, s={run['shards']})"
            over = "  [oversubscribed]" if run["oversubscribed"] else ""
            print(
                f"{label:<28} {run['wall_seconds']:>10.2f} s    "
                f"{run['events_per_sec']:>14,.0f} events/s  "
                f"speedup={run['speedup_vs_1']:.2f}x{over}"
            )
    balanced = report["simulation"].get("ac3_spatial_balanced")
    if balanced:
        for run in balanced["throughput"]:
            label = (
                f"ac3_balanced ({balanced['grid']}, s={run['shards']})"
            )
            over = "  [oversubscribed]" if run["oversubscribed"] else ""
            print(
                f"{label:<28} {run['wall_seconds']:>10.2f} s    "
                f"{run['events_per_sec']:>14,.0f} events/s  "
                f"imbalance={run['imbalance']:.3f}{over}"
            )
        for run in balanced["plans"]:
            label = f"ac3_balanced plan={run['plan']}"
            print(
                f"{label:<28} {run['wall_seconds']:>10.2f} s    "
                f"{run['events_per_sec']:>14,.0f} events/s  "
                f"imbalance={run['imbalance']:.3f}"
                f" (s={run['shards']}, hotspots)"
            )
    memory = report.get("memory", {}).get("columnar_store")
    if memory:
        print(
            f"{'columnar_memory':<28} "
            f"object={memory['object_bytes_per_connection']:.0f} B/conn"
            f"  columnar={memory['columnar_bytes_per_connection']:.0f}"
            f" B/conn  ratio={memory['ratio']:.1f}x"
            f" ({memory['ratio_with_handles']:.1f}x with live handles)"
        )
    state_io = report.get("state_io")
    if state_io:
        print(
            f"{'state_io':<28} "
            f"write={state_io['write_mb_per_sec']:.1f} MB/s"
            f" ({state_io['write_seconds'] * 1e3:.1f} ms)"
            f"  read={state_io['read_mb_per_sec']:.1f} MB/s"
            f" ({state_io['read_seconds'] * 1e3:.1f} ms)"
            f"  {state_io['state_bytes'] / 1e6:.2f} MB,"
            f" {state_io['quadruplets']} quads"
        )
    telemetry = report.get("telemetry")
    if telemetry:
        print(
            "telemetry (instrumented run):"
            f" snapshot_hit={telemetry['snapshot_hit_rate']:.1%}"
            f" tick_grouped={telemetry['tick_grouped_fraction']:.1%}"
        )
    sampling = report.get("sampling")
    if sampling:
        print(
            f"{'sampling_overhead':<28} "
            f"plain={sampling['events_per_sec_plain']:,.0f} ev/s"
            f"  sampled={sampling['events_per_sec_sampled']:,.0f} ev/s"
            f"  overhead={sampling['overhead_fraction']:.1%}"
            f" ({sampling['samples']} samples)"
        )
    for name, variant in report.get("serve_latency", {}).items():
        print(
            f"{f'serve_{name}':<28} "
            f"{variant['decisions_per_s']:>14,.0f} decisions/s  "
            f"P50={variant['p50_ms']:.2f} ms  P99={variant['p99_ms']:.2f} ms"
            f"  (c={variant['concurrency']}, pipe={variant['pipeline']})"
        )
    print(f"wrote {output}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="short CI run: tiny measuring windows and a short simulation",
    )
    parser.add_argument(
        "--output", type=Path, default=None, metavar="FILE",
        help="report path (default: ./BENCH_<date>.json)",
    )
    parser.add_argument(
        "--kernel", default=None, choices=list(KERNELS),
        help="estimation kernel to benchmark (default: auto-detect)",
    )
    parser.add_argument(
        "--profile", nargs="?", type=int, const=25, default=None,
        metavar="N",
        help="cProfile the benchmark run and print the top N entries"
        " by internal time (default 25)",
    )
    parser.add_argument(
        "--compare", type=Path, default=None, metavar="BASELINE",
        help="print per-bench speedups against a previous report and"
        " exit non-zero on regression; a missing baseline file is"
        " skipped with a warning",
    )
    parser.add_argument(
        "--history", nargs="?", type=Path, const=Path("."), default=None,
        metavar="DIR",
        help="print a markdown trend table over the BENCH_*.json"
        " reports in DIR (default: current directory) and exit,"
        " without running any benchmark",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="process-pool width of the replication benchmark"
        " (default: 8, or 2 with --smoke)",
    )
    parser.add_argument(
        "--replications", type=int, default=None, metavar="K",
        help="shard count of the replication benchmark"
        " (default: 8, or 4 with --smoke)",
    )
    parser.add_argument(
        "--ci-level", type=float, default=0.95, metavar="P",
        help="confidence level of the replication benchmark's intervals"
        " (default 0.95)",
    )
    parser.add_argument(
        "--regression-threshold", type=float, default=0.20,
        metavar="FRACTION",
        help="throughput drop that counts as a regression for --compare"
        " (default 0.20)",
    )
    parser.add_argument(
        "--log-level", default=None, metavar="SPEC",
        help="log level spec, e.g. 'info' or 'info,des=debug'"
        " (also: REPRO_LOG)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit logs as JSON lines (also: REPRO_LOG_JSON=1)",
    )
    args = parser.parse_args(argv)
    if args.history is not None:
        return print_history(sorted(args.history.glob("BENCH_*.json")))
    if args.log_level is not None or args.log_json:
        configure_logging(spec=args.log_level, json_lines=args.log_json)
    else:
        ensure_configured()
    if args.kernel is not None:
        set_kernel(args.kernel)
    if args.profile is not None:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        report = run_benchmarks(
            smoke=args.smoke,
            workers=args.workers,
            replications=args.replications,
            ci_level=args.ci_level,
        )
        profiler.disable()
    else:
        report = run_benchmarks(
            smoke=args.smoke,
            workers=args.workers,
            replications=args.replications,
            ci_level=args.ci_level,
        )
    output = args.output
    if output is None:
        output = Path(f"BENCH_{report['date']}.json")
    if output.parent != Path("."):
        output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=2) + "\n")
    _print_report(report, output)
    if args.profile is not None:
        print(f"\n== cProfile top {args.profile} (by internal time) ==")
        pstats.Stats(profiler).sort_stats("tottime").print_stats(
            args.profile
        )
    if args.compare is not None:
        if not args.compare.exists():
            # A fresh clone (or a branch predating committed baselines)
            # has nothing to gate against; that is not a CI failure.
            print(
                f"WARNING: baseline {args.compare} not found;"
                " skipping comparison"
            )
            return 0
        baseline = json.loads(args.compare.read_text())
        print(f"\n== comparison vs {args.compare} ==")
        regressions = compare_reports(
            baseline, report, args.regression_threshold
        )
        if regressions:
            print(
                f"FAIL: {len(regressions)} bench(es) regressed more than"
                f" {args.regression_threshold:.0%}: {', '.join(regressions)}"
            )
            return 1
        print("no regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
