"""Layers: which public callables bound them, and what is reported per layer.

One table, outside in.  ``TABLE`` lists every callable ``--trace``
wraps, under the layer (a ``repro`` sub-package) that owns it and the
alias its spans are summed under.  ``PER_LAYER`` lists every per-layer
metric with unit and direction — ``BENCHMARK.json`` repeats it, and a
test keeps the two equal.  ``layer_metrics`` turns one traced run into
those numbers.

Counts marked *exact* repeat bit for bit on a given seed; a change that
only makes the program faster must not move them.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Wrapped:
    layer: str
    alias: str
    target: str
    #: Units of work in one call, from its positional arguments.
    count: Callable | None = None


TABLE = (
    # des — scheduling and the dispatch loop.  A dispatch span's self
    # time also holds the private event handlers of whoever drives the
    # engine; `split_dispatch` separates the two.
    Wrapped("des", "des.schedule", "repro.des.engine:Engine.call_at"),
    Wrapped("des", "des.schedule", "repro.des.engine:Engine.call_in"),
    Wrapped("des", "des.dispatch", "repro.des.engine:Engine.run"),
    Wrapped("des", "des.dispatch", "repro.des.engine:Engine.advance_to"),
    # simulation — the sequential runner.
    Wrapped(
        "simulation",
        "simulation.run",
        "repro.simulation.simulator:CellularSimulator.run",
    ),
    Wrapped(
        "simulation",
        "simulation.build",
        "repro.simulation.simulator:CellularSimulator.__init__",
    ),
    # mobility
    Wrapped(
        "mobility",
        "mobility.next_transition",
        "repro.mobility.models:LinearMobilityModel.next_transition",
    ),
    Wrapped(
        "mobility", "mobility.spawn", "repro.mobility.models:LinearMobilityModel.spawn"
    ),
    # core — the admission test (AC3 and the static guard band).
    Wrapped("core", "core.admit_new", "repro.core.admission:AC3.admit_new"),
    Wrapped(
        "core",
        "core.admit_new",
        "repro.core.admission:StaticReservationPolicy.admit_new",
    ),
    Wrapped(
        "core",
        "core.handoff_alloc",
        "repro.core.admission:AdmissionPolicy.handoff_allocation",
    ),
    # cellular — cells, stations, the coalesced reservation tick.
    Wrapped(
        "cellular",
        "cellular.flush_tick",
        "repro.cellular.network:CellularNetwork.flush_reservation_tick",
    ),
    Wrapped("cellular", "cellular.attach_detach", "repro.cellular.cell:Cell.attach"),
    Wrapped("cellular", "cellular.attach_detach", "repro.cellular.cell:Cell.detach"),
    Wrapped(
        "cellular",
        "cellular.attach_detach",
        "repro.simulation.columnar:ColumnarCell.attach_row",
    ),
    Wrapped(
        "cellular",
        "cellular.attach_detach",
        "repro.simulation.columnar:ColumnarCell.detach_row",
    ),
    Wrapped(
        "cellular",
        "cellular.record_departure",
        "repro.cellular.base_station:BaseStation.record_departure",
    ),
    Wrapped(
        "cellular",
        "cellular.contribution_eval",
        "repro.cellular.base_station:BaseStation.grouped_contribution_eval",
    ),
    # estimation — Eq. 4 rows gathered per supplier.
    Wrapped(
        "estimation",
        "estimation.flush_parts",
        "repro.estimation.estimator:MobilityEstimator.grouped_flush_parts",
    ),
    Wrapped(
        "estimation",
        "estimation.record",
        "repro.estimation.estimator:MobilityEstimator.record_departure",
    ),
    # kernel — the columnar Eq. 4/5 pass.
    Wrapped("kernel", "kernel.resolve", "repro._kernel:FlushBatch.resolve"),
    Wrapped("kernel", "kernel.add_part", "repro._kernel:FlushBatch.add_part"),
    # spatial — the sharded runner and its three-phase barrier.
    Wrapped("spatial", "spatial.run", "repro.simulation.spatial:run_spatial"),
    Wrapped(
        "spatial", "spatial.shard_build", "repro.simulation.spatial:ShardEngine.__init__"
    ),
    Wrapped(
        "spatial",
        "spatial.barrier_begin",
        "repro.simulation.spatial:ShardEngine.barrier_begin",
        count=lambda args: len(args[3]),  # migrations delivered
    ),
    Wrapped(
        "spatial",
        "spatial.evaluate",
        "repro.simulation.spatial:ShardEngine.evaluate",
        count=lambda args: len(args[1]),  # cross-shard Eq. 5 requests
    ),
    Wrapped(
        "spatial", "spatial.run_epoch", "repro.simulation.spatial:ShardEngine.run_epoch"
    ),
    Wrapped("spatial", "spatial.finish", "repro.simulation.spatial:ShardEngine.finish"),
    # serve / ws — the streaming driver and the frame codec.
    Wrapped("serve", "serve.driver_submit", "repro.serve.driver:StreamDriver.submit"),
    Wrapped("serve", "serve.driver_flush", "repro.serve.driver:StreamDriver.flush"),
    Wrapped("ws", "ws.encode_frame", "repro.serve.ws:encode_frame"),
    # obs — the streaming sampler on the engine's observer hook.
    Wrapped(
        "obs", "obs.sample", "repro.obs.timeseries:TimeSeriesSampler.maybe_sample"
    ),
    Wrapped("obs", "obs.sample", "repro.obs.timeseries:TimeSeriesSampler.sample"),
    Wrapped("obs", "obs.sample", "repro.obs.timeseries:TimeSeriesSampler.final"),
)

#: Spans the harness opens itself.
HARNESS_SPANS = {"serve.replay": "ws"}

LAYER_OF = {entry.alias: entry.layer for entry in TABLE} | HARNESS_SPANS

#: (name, unit, better).  Exact counts are "lower": more work for the
#: same simulated outcome is never an improvement.
PER_LAYER = (
    ("host.spin_ms", "ms", "lower"),
    ("trace.root_s", "s", "lower"),
    ("des.events", "count", "lower"),
    ("des.bare_event_us", "us", "lower"),
    ("des.schedule_calls", "count", "lower"),
    ("des.schedule_s", "s", "lower"),
    ("des.pool_hit_rate", "ratio", "higher"),
    ("simulation.lifecycle_self_s", "s", "lower"),
    ("simulation.build_s", "s", "lower"),
    ("mobility.next_transition_s", "s", "lower"),
    ("mobility.next_transition_calls", "count", "lower"),
    ("core.admit_new_calls", "count", "lower"),
    ("core.admit_new_self_s", "s", "lower"),
    ("core.handoff_alloc_s", "s", "lower"),
    ("core.n_calc_per_test", "count", "lower"),
    ("core.messages_per_test", "count", "lower"),
    ("core.t_est_steps", "count", "lower"),
    ("cellular.flush_tick_calls", "count", "lower"),
    ("cellular.flush_tick_self_s", "s", "lower"),
    ("cellular.attach_detach_calls", "count", "lower"),
    ("cellular.attach_detach_s", "s", "lower"),
    ("cellular.record_departure_s", "s", "lower"),
    ("cellular.group_rebuilds", "count", "lower"),
    ("cellular.rebuilds_per_flush", "ratio", "lower"),
    ("estimation.flush_parts_calls", "count", "lower"),
    ("estimation.flush_parts_self_s", "s", "lower"),
    ("estimation.record_s", "s", "lower"),
    ("estimation.eq4_rows", "count", "lower"),
    ("estimation.eq4_rows_per_batch", "ratio", "higher"),
    ("estimation.snapshot_hit_rate", "ratio", "higher"),
    ("kernel.resolve_calls", "count", "lower"),
    ("kernel.resolve_s", "s", "lower"),
    ("kernel.add_part_s", "s", "lower"),
    ("kernel.rows_per_resolve", "ratio", "higher"),
    ("spatial.shard_build_s", "s", "lower"),
    ("spatial.run_epoch_s", "s", "lower"),
    ("spatial.run_epoch_critical_s", "s", "lower"),
    ("spatial.barrier_begin_s", "s", "lower"),
    ("spatial.evaluate_s", "s", "lower"),
    ("spatial.finish_s", "s", "lower"),
    ("spatial.exchange_self_s", "s", "lower"),
    ("spatial.parallel_efficiency", "ratio", "higher"),
    ("spatial.imbalance", "ratio", "lower"),
    ("spatial.migrations", "count", "lower"),
    ("spatial.requests", "count", "lower"),
    ("columnar.peak_live", "count", "lower"),
    ("columnar.store_bytes", "B", "lower"),
    ("serve.driver_submit_s", "s", "lower"),
    ("serve.driver_flush_s", "s", "lower"),
    ("serve.events_per_flush", "ratio", "higher"),
    ("serve.queue_wait_us", "us", "lower"),
    ("serve.inproc_decisions_per_s", "1/s", "higher"),
    ("ws.front_us", "us", "lower"),
    ("ws.encode_frame_us", "us", "lower"),
    ("serve.latency_p50_ms", "ms", "lower"),
    ("serve.latency_p90_ms", "ms", "lower"),
    ("serve.latency_p99_ms", "ms", "lower"),
    ("serve.latency_max_ms", "ms", "lower"),
    ("serve.stall_windows", "count", "lower"),
    ("serve.within_10ms_share", "ratio", "higher"),
    ("serve.generator_late_p99_ms", "ms", "lower"),
    ("serve.achieved_over_offered", "ratio", "higher"),
    ("serve.ignored", "count", "lower"),
    ("serve.budget_miss", "count", "lower"),
    ("obs.sampler_overhead_frac", "ratio", "lower"),
    ("obs.samples", "count", "lower"),
    ("obs.sample_s", "s", "lower"),
    ("obs.trace_overhead_frac", "ratio", "lower"),
    ("state.save_ms", "ms", "lower"),
    ("state.restore_ms", "ms", "lower"),
    ("state.bytes", "B", "lower"),
)


#: ``(calls, total seconds, self seconds, units)`` of an alias never seen.
NO_SPANS = (0, 0.0, 0.0, 0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def split_dispatch(root: dict, events: int, bare_event_us: float) -> float:
    """Seconds of the dispatch spans' self time that are the bare loop.

    The engine's loop and the driver's private handlers share one span.
    ``events x bare_event_us`` (a no-op event through the same loop) is
    the loop's part; the rest belongs to the handlers' layer.
    """
    dispatch_self = root["by_alias"].get("des.dispatch", NO_SPANS)[2]
    return min(dispatch_self, events * bare_event_us * 1e-6)


def layer_self_times(root: dict, handler_layer: str, bare_loop_s: float) -> dict:
    """Self seconds per layer under one root; sums to the root's duration."""
    layers: dict[str, float] = {}
    for alias, (_calls, _total, self_s, _units) in root["by_alias"].items():
        layer = LAYER_OF[alias]
        layers[layer] = layers.get(layer, 0.0) + self_s
    if "des" in layers:
        dispatch_self = root["by_alias"].get("des.dispatch", NO_SPANS)[2]
        moved = dispatch_self - bare_loop_s
        layers["des"] -= moved
        layers[handler_layer] = layers.get(handler_layer, 0.0) + moved
    return layers


def _counter(telemetry: dict | None, name: str) -> float:
    """Sum a telemetry counter over its label sets (``name{...}``)."""
    if not telemetry:
        return 0.0
    return sum(
        value
        for key, value in telemetry.get("counters", {}).items()
        if key == name or key.startswith(name + "{")
    )


def _gauge(telemetry: dict | None, name: str) -> float:
    return (telemetry or {}).get("gauges", {}).get(name, 0.0)


def layer_metrics(
    roots: list[dict],
    handler_layer: str,
    result,
    bare_event_us: float,
    extras: dict,
) -> dict:
    """Every ``PER_LAYER`` number for one traced workload.

    ``roots`` are the traced *plain* repeats; seconds are medians over
    them, counts come from the first (they repeat exactly).  ``extras``
    carries what spans cannot give: paired overheads, state I/O, the
    serving diagnostics.  Anything a workload does not touch reads 0 —
    for ``cellular.flush_tick_calls`` on the bypass workloads that zero
    is the prediction being checked.
    """
    values = {name: 0.0 for name, _unit, _better in PER_LAYER}
    telemetry = getattr(result, "telemetry", None)
    events = extras.get("events", getattr(result, "events_processed", 0))

    def pick(alias: str, column: int) -> float:
        samples = [
            root["by_alias"].get(alias, NO_SPANS)[column] for root in roots
        ]
        if not samples:
            return 0.0
        return samples[0] if column in (0, 3) else statistics.median(samples)

    calls, total, self_s, units = 0, 1, 2, 3
    bare_loops = [split_dispatch(root, events, bare_event_us) for root in roots]
    bare_loop_s = statistics.median(bare_loops) if bare_loops else 0.0
    handler_self = pick("des.dispatch", self_s) - bare_loop_s

    values["trace.root_s"] = (
        statistics.median(root["duration"] for root in roots) if roots else 0.0
    )
    values["des.events"] = events
    values["des.bare_event_us"] = bare_event_us
    values["des.schedule_calls"] = pick("des.schedule", calls)
    values["des.schedule_s"] = pick("des.schedule", self_s)
    pool_hits = _counter(telemetry, 'des.event_pool{outcome="hit"}')
    pool_all = _counter(telemetry, "des.event_pool")
    values["des.pool_hit_rate"] = _ratio(pool_hits, pool_all)
    if handler_layer == "simulation":
        values["simulation.lifecycle_self_s"] = (
            pick("simulation.run", self_s) + handler_self
        )
    values["simulation.build_s"] = extras.get("build_s", 0.0)
    values["mobility.next_transition_s"] = pick("mobility.next_transition", total)
    values["mobility.next_transition_calls"] = pick("mobility.next_transition", calls)
    values["core.admit_new_calls"] = pick("core.admit_new", calls)
    values["core.admit_new_self_s"] = pick("core.admit_new", self_s)
    values["core.handoff_alloc_s"] = pick("core.handoff_alloc", total)
    values["core.n_calc_per_test"] = getattr(result, "average_calculations", 0.0)
    values["core.messages_per_test"] = getattr(result, "average_messages", 0.0)
    values["core.t_est_steps"] = _counter(telemetry, "window.t_est_steps")
    flushes = pick("cellular.flush_tick", calls)
    values["cellular.flush_tick_calls"] = flushes
    values["cellular.flush_tick_self_s"] = pick("cellular.flush_tick", self_s)
    values["cellular.attach_detach_calls"] = pick("cellular.attach_detach", calls)
    values["cellular.attach_detach_s"] = pick("cellular.attach_detach", total)
    values["cellular.record_departure_s"] = pick("cellular.record_departure", total)
    rebuilds = _counter(telemetry, "cellular.group_rebuilds")
    values["cellular.group_rebuilds"] = rebuilds
    values["cellular.rebuilds_per_flush"] = _ratio(rebuilds, flushes)
    values["estimation.flush_parts_calls"] = pick("estimation.flush_parts", calls)
    values["estimation.flush_parts_self_s"] = pick("estimation.flush_parts", self_s)
    values["estimation.record_s"] = pick("estimation.record", total)
    rows = _counter(telemetry, "estimation.eq4_rows")
    values["estimation.eq4_rows"] = rows
    values["estimation.eq4_rows_per_batch"] = _ratio(
        rows, _counter(telemetry, "estimation.eq4_batches")
    )
    snapshot_hits = _counter(telemetry, 'estimation.snapshot{outcome="hit"}')
    values["estimation.snapshot_hit_rate"] = _ratio(
        snapshot_hits, _counter(telemetry, "estimation.snapshot")
    )
    resolves = pick("kernel.resolve", calls)
    values["kernel.resolve_calls"] = resolves
    values["kernel.resolve_s"] = pick("kernel.resolve", total)
    values["kernel.add_part_s"] = pick("kernel.add_part", total)
    values["kernel.rows_per_resolve"] = _ratio(rows, resolves)
    values["spatial.shard_build_s"] = pick("spatial.shard_build", total)
    values["spatial.run_epoch_s"] = pick("spatial.run_epoch", total)
    values["spatial.barrier_begin_s"] = pick("spatial.barrier_begin", total)
    values["spatial.evaluate_s"] = pick("spatial.evaluate", total)
    values["spatial.finish_s"] = pick("spatial.finish", total)
    if handler_layer == "spatial":
        values["spatial.exchange_self_s"] = pick("spatial.run", self_s)
    values["spatial.migrations"] = pick("spatial.barrier_begin", units)
    values["spatial.requests"] = pick("spatial.evaluate", units)
    shard_events = getattr(result, "shard_events", None)
    if shard_events:
        mean = sum(shard_events) / len(shard_events)
        values["spatial.imbalance"] = _ratio(max(shard_events), mean) - 1.0
    values["columnar.peak_live"] = _gauge(telemetry, "spatial.peak_live_connections")
    values["columnar.store_bytes"] = _gauge(telemetry, "spatial.store_bytes")
    submits = pick("serve.driver_submit", calls)
    values["serve.driver_submit_s"] = pick("serve.driver_submit", self_s)
    values["serve.driver_flush_s"] = pick("serve.driver_flush", self_s)
    values["serve.events_per_flush"] = _ratio(
        submits, pick("serve.driver_flush", calls)
    )
    values["ws.encode_frame_us"] = 1e6 * _ratio(
        pick("ws.encode_frame", total), pick("ws.encode_frame", calls)
    )
    values["serve.budget_miss"] = _counter(telemetry, "serve.budget_miss")
    for name, value in extras.items():
        if name in values:
            values[name] = value
    return values
