"""Checkpoint capture and bit-identical restore of a live simulator.

:func:`save_checkpoint` walks a :class:`CellularSimulator` — between
events or after its run — and persists everything the continuation
depends on: the engine clock and pending event queue (with scheduling
order stamps), every named RNG position, the live connections and
their per-cell attach order, quadruplet caches (binary column blobs),
finite-``T_int`` F_HOE snapshots, window-controller state, run metrics
and the observability counters.

:func:`restore_simulator` rebuilds a simulator in a fresh process that
continues **bit-identically**: the restored run fires exactly the
events the uninterrupted run would have fired, in the same order, with
the same random draws — so its final ``metrics_key()`` matches.

Order preservation rests on **sequence stamps**: simultaneous events
tie-break on ``(priority, scheduling order)``.  Absolute stamp values
need not survive a restore — re-scheduling the pending events sorted by
their *original* stamps preserves every relative order, and
continuation events always stamp higher, exactly as in the
uninterrupted run.  Events past the horizon (each cell's next Poisson
renewal, the next monitor sample, lifetime ends and crossings) sit in
the queue like any other, so a resume under a longer horizon needs
nothing beyond the queue.
"""

from __future__ import annotations

import json
import shutil
import time as wall_clock
from dataclasses import fields
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING

from repro.des.engine import Engine
from repro.des.events import EventPriority
from repro.estimation.estimator import MobilityEstimator
from repro.estimation.function import HandoffEstimationFunction, _Mass
from repro.mobility.mobile import Mobile, peek_mobile_ids, reset_mobile_ids
from repro.mobility.models import LinearMobilityModel, Transition
from repro.obs import get_logger, get_telemetry, get_tracer
from repro.simulation.metrics import HourlyBucket, TracePoint
from repro.state.format import (
    FORMAT_NAME,
    MANIFEST_NAME,
    RUNTIME_NAME,
    SCHEMA_VERSION,
    StateFormatError,
    cell_blob_name,
    crc32_of,
    decode_prev,
    encode_prev,
    load_manifest,
    pack_cell_blob,
    publish_state_dir,
    read_entry,
    unpack_cell_blob,
)
from repro.traffic.classes import ADAPTIVE_VIDEO, VIDEO, VOICE
from repro.traffic.connection import (
    Connection,
    peek_connection_ids,
    reset_connection_ids,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.simulator import CellularSimulator

_log = get_logger("repro.state")

_TRAFFIC_CLASSES = {
    VOICE.name: VOICE,
    VIDEO.name: VIDEO,
    ADAPTIVE_VIDEO.name: ADAPTIVE_VIDEO,
}

#: Config fields that do not change what the simulation *is* — a
#: checkpoint may be resumed under a different horizon, label, or
#: observability setup (none of them feed the event sequence).
_FINGERPRINT_EXEMPT = {
    "duration",
    "label",
    "telemetry",
    "progress_interval",
    "run_id",
    "kernel",
    "warm_state",
    "series_interval",
    "series_wall_interval",
    "series_path",
    "series_max_samples",
    "trace",
}


class CheckpointError(RuntimeError):
    """The simulator's configuration cannot be checkpointed faithfully."""


def _encode_rng(state) -> list:
    """``random.Random.getstate()`` as JSON: [version, ints, gauss_next]."""
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


# ----------------------------------------------------------------------
# config fingerprint
# ----------------------------------------------------------------------
def _fingerprint_value(value):
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_fingerprint_value(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(key): _fingerprint_value(val) for key, val in value.items()}
    # Profile objects and other composites: their repr is stable enough
    # to detect a scenario mismatch, which is all the fingerprint does.
    return repr(value)


def config_fingerprint(config) -> dict:
    """The scenario-identity slice of a :class:`SimulationConfig`."""
    return {
        field.name: _fingerprint_value(getattr(config, field.name))
        for field in fields(config)
        if field.name not in _FINGERPRINT_EXEMPT
    }


def _check_fingerprint(saved: dict, config) -> None:
    current = config_fingerprint(config)
    mismatched = sorted(
        name
        for name in set(saved) | set(current)
        if saved.get(name) != current.get(name)
    )
    if mismatched:
        details = ", ".join(
            f"{name}: saved={saved.get(name)!r} != current={current.get(name)!r}"
            for name in mismatched
        )
        raise StateFormatError(
            f"checkpoint was taken under a different scenario ({details})"
        )


# ----------------------------------------------------------------------
# capture
# ----------------------------------------------------------------------
def _require_checkpointable(sim: "CellularSimulator") -> None:
    if sim.extensions:
        raise CheckpointError(
            "cannot checkpoint a run with extensions installed "
            "(extension state is outside the state schema)"
        )
    if type(sim.mobility) is not LinearMobilityModel:
        raise CheckpointError(
            f"cannot checkpoint mobility model "
            f"{type(sim.mobility).__name__}: only the stateless "
            f"LinearMobilityModel is supported"
        )
    for station in sim.network.stations:
        if type(station.estimator) is not MobilityEstimator:
            raise CheckpointError(
                f"cannot checkpoint estimator "
                f"{type(station.estimator).__name__} of cell "
                f"{station.cell_id}: only MobilityEstimator is supported"
            )
    if sim.network._reservation_dirty:
        raise CheckpointError(
            "reservation tick has undrained dirty cells; checkpoints "
            "must be taken between events"
        )


def _capture_connection(connection: Connection) -> dict:
    if connection.traffic_class.name not in _TRAFFIC_CLASSES:
        raise CheckpointError(
            f"unknown traffic class {connection.traffic_class.name!r}"
        )
    mobile = connection.mobile
    return {
        "id": connection.connection_id,
        "class": connection.traffic_class.name,
        "start": connection.start_time,
        "cell": connection.cell_id,
        "prev": connection.prev_cell,
        "entry": connection.cell_entry_time,
        "handoffs": connection.handoff_count,
        "alloc": connection.allocated_bandwidth,
        "end": connection.planned_end,
        "mobile": None
        if mobile is None
        else {
            "id": mobile.mobile_id,
            "pos": mobile.position_km,
            "speed": mobile.speed_kmh,
            "dir": mobile.direction,
            "cell": mobile.cell_id,
            "ptime": mobile.position_time,
        },
    }


def _capture_queue(sim: "CellularSimulator") -> list[dict]:
    records = []
    for time, _, sequence, callback, args in sim.engine.queued():
        func = getattr(callback, "__func__", None)
        owner = getattr(callback, "__self__", None)
        record: dict = {"time": time, "seq": sequence}
        if owner is not sim:
            # Progress/checkpoint hooks never schedule; anything
            # else in the queue belongs to code the schema cannot
            # reconstruct.
            raise CheckpointError(
                f"cannot serialize foreign pending event {callback!r}"
            )
        simulator_cls = type(sim)
        if func is simulator_cls._on_arrival:
            record.update(
                kind="arrival", cell=args[0], attempt=args[1]
            )
        elif func is simulator_cls._handle_request:
            record.update(
                kind="retry", cell=args[0], attempt=args[1]
            )
        elif func is simulator_cls._on_lifetime_end:
            record.update(kind="lifetime", conn=args[0].connection_id)
        elif func is simulator_cls._on_crossing:
            connection, transition, soft_deadline = args
            record.update(
                kind="crossing",
                conn=connection.connection_id,
                t_time=transition.time,
                t_next=transition.next_cell,
            )
            if soft_deadline is not None:
                record["soft"] = soft_deadline
        elif func is simulator_cls._on_sample:
            record.update(kind="sample")
        else:
            raise CheckpointError(
                f"cannot serialize pending event {func!r}"
            )
        records.append(record)
    records.sort(key=lambda record: record["seq"])
    return records


def _capture_window(controller) -> dict:
    return {
        "reference": controller.reference,
        "observation_window": controller.observation_window,
        "t_est": controller.t_est,
        "handoffs": controller.handoffs,
        "drops": controller.drops,
        "total_handoffs": controller.total_handoffs,
        "total_drops": controller.total_drops,
        "consecutive": controller._consecutive,
        "last_direction": controller._last_direction,
        "adjustments": [
            [
                adjustment.time,
                adjustment.new_window,
                adjustment.increased,
                adjustment.handoffs,
                adjustment.drops,
            ]
            for adjustment in controller.adjustments
        ],
    }


def _capture_estimator(estimator: MobilityEstimator) -> dict:
    return {
        "dirty": sorted(
            encode_prev(prev) for prev in estimator._dirty
        ),
        "total_recorded": estimator.cache.total_recorded,
        "snapshot_hits": estimator.snapshot_hits,
        "snapshot_builds": estimator.snapshot_builds,
        "snapshot_invalidations": estimator.snapshot_invalidations,
        "eq4_vector_batches": estimator.eq4_vector_batches,
        "eq4_scalar_batches": estimator.eq4_scalar_batches,
        "eq4_vector_rows": estimator.eq4_vector_rows,
        "eq4_scalar_rows": estimator.eq4_scalar_rows,
    }


def _capture_snapshots(estimator: MobilityEstimator):
    """Finite-``T_int`` F_HOE snapshots, or ``None``.

    Infinite-interval snapshots rebuild bit-identically from the cache
    (the hit rule ignores age), so they are derived state and stay out
    of the blob.  Finite-interval snapshots are reused for up to
    ``rebuild_interval`` seconds of staleness; an uninterrupted run
    would keep answering Eq. 4 from them, so the restore must too.
    """
    if estimator.cache.config.interval is None:
        return None
    snapshots = []
    for prev, (built_at, function) in estimator._snapshots.items():
        snapshots.append(
            {
                "prev": prev,
                "built_at": built_at,
                "per_next": {
                    next_cell: (mass.sojourns, mass.cumulative)
                    for next_cell, mass in function._per_next.items()
                },
                "union": (
                    function._union.sojourns,
                    function._union.cumulative,
                ),
            }
        )
    return snapshots


def _capture_metrics(metrics) -> dict:
    return {
        "cells": [
            [
                counters.new_requests,
                counters.blocked,
                counters.handoff_attempts,
                counters.handoff_drops,
                counters.completed,
                counters.exited,
            ]
            for counters in metrics.cells
        ],
        "hourly": [
            [
                bucket.hour,
                bucket.new_requests,
                bucket.blocked,
                bucket.handoff_attempts,
                bucket.handoff_drops,
            ]
            for _, bucket in sorted(metrics.hourly.items())
        ],
        "total_admission_tests": metrics.total_admission_tests,
        "total_calculations": metrics.total_calculations,
        "total_messages": metrics.total_messages,
        "traces": {
            str(cell): {
                "t_est": [[p.time, p.value] for p in metrics.t_est_traces[cell]],
                "reservation": [
                    [p.time, p.value]
                    for p in metrics.reservation_traces[cell]
                ],
                "phd": [[p.time, p.value] for p in metrics.phd_traces[cell]],
                "attempts": metrics._trace_attempts[cell],
                "drops": metrics._trace_drops[cell],
            }
            for cell in metrics.tracked
        },
        "reservation_sum": metrics._reservation_sum,
        "used_sum": metrics._used_sum,
        "samples": metrics._samples,
    }


def _add_cell_file(files: dict, cell_id: int, pairs, snapshots=None) -> dict:
    """Pack one cell's history into ``files``; return its manifest entry."""
    blob = pack_cell_blob(pairs, snapshots)
    name = cell_blob_name(cell_id)
    files[name] = blob
    return {
        "path": name,
        "kind": "cell",
        "cell": cell_id,
        "bytes": len(blob),
        "crc32": crc32_of(blob),
        "quadruplets": sum(len(times) for times, _sojourns in pairs.values()),
        "pairs": len(pairs),
    }


def _manifest(config, clock: float, counts: dict, entries: list) -> bytes:
    """``manifest.json`` of a state directory written under ``config``."""
    manifest = {
        "format": FORMAT_NAME,
        "schema_version": SCHEMA_VERSION,
        "created_unix": wall_clock.time(),
        "clock": clock,
        "seed": config.seed,
        "label": config.label or config.scheme,
        "config": config_fingerprint(config),
        "counts": counts,
        "files": entries,
    }
    return json.dumps(manifest, indent=1).encode("utf-8")


def capture_state(sim: "CellularSimulator") -> dict[str, bytes]:
    """Serialize a simulator into the on-disk file map (relpath->bytes)."""
    _require_checkpointable(sim)
    engine = sim.engine
    runtime = {
        "clock": engine.now,
        "events_processed": engine.events_processed,
        "rng": {
            name: _encode_rng(sim.streams.get(name).getstate())
            for name in sim.streams.names()
        },
        "next_connection_id": peek_connection_ids(),
        "next_mobile_id": peek_mobile_ids(),
        "policy": {
            "name": sim.policy.name,
            "degradations": getattr(sim.policy, "degradations", 0),
            "upgrades": getattr(sim.policy, "upgrades", 0),
        },
        "connections": [
            _capture_connection(connection)
            for connection in sim.active_connections.values()
        ],
        "cell_members": [
            list(sim.network.cell(cell_id)._connections)
            for cell_id in range(sim.topology.num_cells)
        ],
        "cells": [
            {
                "used": cell.used_bandwidth,
                "reserved": cell.reserved_target,
                "rebuilds": cell.group_rebuilds,
            }
            for cell in sim.network.cells
        ],
        "stations": [
            {
                "reservation_calculations": station.reservation_calculations,
                "messages_sent": station.messages_sent,
                "window": _capture_window(station.window),
                "estimator": _capture_estimator(station.estimator),
            }
            for station in sim.network.stations
        ],
        "network": {
            "tick_flushes": sim.network.tick_flushes,
            "tick_targets": sim.network.tick_targets,
            "tick_grouped_suppliers": sim.network.tick_grouped_suppliers,
            "tick_fallback_suppliers": sim.network.tick_fallback_suppliers,
        },
        "metrics": _capture_metrics(sim.metrics),
        "queue": _capture_queue(sim),
        "finished": sim._finished,
    }
    files: dict[str, bytes] = {}
    cell_entries = []
    for station in sim.network.stations:
        cell_entries.append(
            _add_cell_file(
                files,
                station.cell_id,
                station.estimator.cache.export_columns(),
                _capture_snapshots(station.estimator),
            )
        )
    # Observability sidecars: a telemetry snapshot and the series rows
    # so far, when the run carries them.  Pure annotations — restore
    # never reads them, but ``repro state inspect`` summarises them.
    sidecar_entries = []
    telemetry = getattr(sim, "telemetry", None)
    if telemetry is not None and telemetry.enabled:
        blob = json.dumps(
            telemetry.snapshot(), sort_keys=True, indent=1
        ).encode("utf-8")
        files["telemetry.json"] = blob
        sidecar_entries.append(
            {
                "path": "telemetry.json",
                "kind": "telemetry",
                "bytes": len(blob),
                "crc32": crc32_of(blob),
            }
        )
    sampler = getattr(sim, "sampler", None)
    if sampler is not None and sampler.series():
        blob = (
            "\n".join(
                json.dumps(row, sort_keys=True) for row in sampler.series()
            )
            + "\n"
        ).encode("utf-8")
        files["series.jsonl"] = blob
        sidecar_entries.append(
            {
                "path": "series.jsonl",
                "kind": "series",
                "bytes": len(blob),
                "crc32": crc32_of(blob),
            }
        )
    runtime_bytes = json.dumps(runtime).encode("utf-8")
    files[RUNTIME_NAME] = runtime_bytes
    files[MANIFEST_NAME] = _manifest(
        sim.config,
        engine.now,
        {
            "connections": len(sim.active_connections),
            "pending_events": engine.pending,
            "events_processed": engine.events_processed,
            "quadruplets": sum(
                entry["quadruplets"] for entry in cell_entries
            ),
        },
        [
            {
                "path": RUNTIME_NAME,
                "kind": "runtime",
                "bytes": len(runtime_bytes),
                "crc32": crc32_of(runtime_bytes),
            },
            *cell_entries,
            *sidecar_entries,
        ],
    )
    return files


def save_checkpoint(sim: "CellularSimulator", path: str | Path) -> Path:
    """Capture ``sim`` and atomically publish it as directory ``path``."""
    telemetry = get_telemetry()
    tracer = get_tracer()
    started = wall_clock.perf_counter()
    files = capture_state(sim)
    with tracer.span(
        "checkpoint.publish", files=len(files), t=round(sim.engine.now, 3)
    ):
        target = publish_state_dir(path, files)
    elapsed = wall_clock.perf_counter() - started
    total_bytes = sum(len(data) for data in files.values())
    if telemetry.enabled:
        timer = telemetry.timer("state.save")
        timer.seconds += elapsed
        timer.count += 1
        telemetry.counter("state.checkpoints", op="save").inc()
        telemetry.gauge("state.bytes").set(total_bytes)
    _log.info(
        "checkpoint saved",
        extra={
            "path": str(target),
            "bytes": total_bytes,
            "virtual_time": sim.engine.now,
            "connections": len(sim.active_connections),
            "wall_seconds": round(elapsed, 6),
        },
    )
    return target


# ----------------------------------------------------------------------
# restore
# ----------------------------------------------------------------------
def _entry_for(manifest: dict, relative: str) -> dict:
    for entry in manifest.get("files", []):
        if entry["path"] == relative:
            return entry
    raise StateFormatError(f"manifest lists no entry for {relative}")


def _restore_estimator(
    estimator: MobilityEstimator, pairs, snapshots, saved: dict
) -> None:
    estimator.preload(pairs)
    if snapshots is not None:
        for snapshot in snapshots:
            function = HandoffEstimationFunction.__new__(
                HandoffEstimationFunction
            )
            function._per_next = {
                next_cell: _Mass(sojourns, cumulative)
                for next_cell, (sojourns, cumulative) in snapshot[
                    "per_next"
                ].items()
            }
            function._union = _Mass(*snapshot["union"])
            estimator._snapshots[snapshot["prev"]] = (
                snapshot["built_at"],
                function,
            )
    estimator._dirty = {decode_prev(raw) for raw in saved["dirty"]}
    estimator.cache.total_recorded = saved["total_recorded"]
    estimator.snapshot_hits = saved["snapshot_hits"]
    estimator.snapshot_builds = saved["snapshot_builds"]
    estimator.snapshot_invalidations = saved["snapshot_invalidations"]
    estimator.eq4_vector_batches = saved["eq4_vector_batches"]
    estimator.eq4_scalar_batches = saved["eq4_scalar_batches"]
    estimator.eq4_vector_rows = saved["eq4_vector_rows"]
    estimator.eq4_scalar_rows = saved["eq4_scalar_rows"]


def restore_window(controller, saved: dict, include_history: bool = True) -> None:
    """Overwrite a fresh controller with captured Figure-6 state.

    ``include_history=False`` restores only the controller's *position*
    (``T_est``, ``W_obs``, ``n_H``, ``n_HD``, step direction) without
    the lifetime totals and adjustment trace — what a campaign day
    carries over so the new day's statistics start clean.
    """
    from repro.core.window import WindowAdjustment

    controller.reference = saved["reference"]
    controller.observation_window = saved["observation_window"]
    controller.t_est = saved["t_est"]
    controller.handoffs = saved["handoffs"]
    controller.drops = saved["drops"]
    controller._consecutive = saved["consecutive"]
    controller._last_direction = saved["last_direction"]
    if include_history:
        controller.total_handoffs = saved["total_handoffs"]
        controller.total_drops = saved["total_drops"]
        controller.adjustments = [
            WindowAdjustment(time, new_window, increased, handoffs, drops)
            for time, new_window, increased, handoffs, drops in saved[
                "adjustments"
            ]
        ]


def _restore_metrics(metrics, saved: dict) -> None:
    for counters, values in zip(metrics.cells, saved["cells"]):
        (
            counters.new_requests,
            counters.blocked,
            counters.handoff_attempts,
            counters.handoff_drops,
            counters.completed,
            counters.exited,
        ) = values
    metrics.hourly = {
        hour: HourlyBucket(hour, requests, blocked, attempts, drops)
        for hour, requests, blocked, attempts, drops in saved["hourly"]
    }
    metrics.total_admission_tests = saved["total_admission_tests"]
    metrics.total_calculations = saved["total_calculations"]
    metrics.total_messages = saved["total_messages"]
    for cell_text, trace in saved["traces"].items():
        cell = int(cell_text)
        if cell not in metrics.tracked:
            continue
        metrics.t_est_traces[cell] = [
            TracePoint(time, value) for time, value in trace["t_est"]
        ]
        metrics.reservation_traces[cell] = [
            TracePoint(time, value) for time, value in trace["reservation"]
        ]
        metrics.phd_traces[cell] = [
            TracePoint(time, value) for time, value in trace["phd"]
        ]
        metrics._trace_attempts[cell] = trace["attempts"]
        metrics._trace_drops[cell] = trace["drops"]
    metrics._reservation_sum = saved["reservation_sum"]
    metrics._used_sum = saved["used_sum"]
    metrics._samples = saved["samples"]


def _restore_queue(
    sim: "CellularSimulator", runtime: dict, connections: dict
) -> None:
    """Re-schedule the pending events (written in stamp order)."""
    engine = sim.engine
    for record in runtime["queue"]:
        kind = record["kind"]
        if kind == "arrival":
            engine.call_at(
                record["time"],
                sim._on_arrival,
                record["cell"],
                record["attempt"],
                priority=EventPriority.ARRIVAL,
            )
        elif kind == "retry":
            engine.call_at(
                record["time"],
                sim._handle_request,
                record["cell"],
                record["attempt"],
                priority=EventPriority.ARRIVAL,
            )
        elif kind == "lifetime":
            engine.call_at(
                record["time"],
                sim._on_lifetime_end,
                connections[record["conn"]],
                priority=EventPriority.DEPARTURE,
            )
        elif kind == "crossing":
            engine.call_at(
                record["time"],
                sim._on_crossing,
                connections[record["conn"]],
                Transition(record["t_time"], record["t_next"]),
                record.get("soft"),
                priority=EventPriority.HANDOFF,
            )
        elif kind == "sample":
            engine.call_at(
                record["time"],
                sim._on_sample,
                priority=EventPriority.MONITOR,
            )
        else:
            raise StateFormatError(f"unknown queued event kind {kind!r}")


def restore_simulator(path: str | Path, config) -> "CellularSimulator":
    """Rebuild a mid-run simulator from a checkpoint directory.

    ``config`` must describe the same scenario the checkpoint was taken
    under (fingerprint-checked); only the horizon (``duration``), label
    and observability settings may differ.  The returned simulator's
    :meth:`run` continues from the saved clock without re-running the
    initial scheduling, and produces the same ``metrics_key()`` as the
    uninterrupted run of the same horizon.
    """
    from repro.simulation.simulator import CellularSimulator

    telemetry = get_telemetry()
    started = wall_clock.perf_counter()
    path = Path(path)
    manifest = load_manifest(path)
    _check_fingerprint(manifest["config"], config)
    runtime = json.loads(
        read_entry(path, _entry_for(manifest, RUNTIME_NAME))
    )
    clock = runtime["clock"]
    if config.duration < clock:
        raise StateFormatError(
            f"cannot resume: checkpoint clock t={clock} is past the "
            f"configured duration {config.duration}"
        )
    if runtime["finished"]:
        _log.info(
            "restoring a finished run; the resumed horizon only adds "
            "virtual time beyond the saved run's end",
            extra={"path": str(path)},
        )
    sim = CellularSimulator(config)
    if sim.topology.num_cells != len(runtime["cells"]):
        raise StateFormatError(
            f"checkpoint has {len(runtime['cells'])} cells, "
            f"configuration builds {sim.topology.num_cells}"
        )
    engine = Engine(start_time=clock)
    engine.events_processed = runtime["events_processed"]
    sim.engine = engine
    for name, (version, internal, gauss) in runtime["rng"].items():
        sim.streams.get(name).setstate(
            (version, tuple(internal), gauss)
        )
    reset_connection_ids(runtime["next_connection_id"])
    reset_mobile_ids(runtime["next_mobile_id"])
    if sim.policy.name != runtime["policy"]["name"]:
        raise StateFormatError(
            f"checkpoint used policy {runtime['policy']['name']!r}, "
            f"configuration builds {sim.policy.name!r}"
        )
    if hasattr(sim.policy, "degradations"):
        sim.policy.degradations = runtime["policy"]["degradations"]
        sim.policy.upgrades = runtime["policy"]["upgrades"]
    connections: dict[int, Connection] = {}
    for record in runtime["connections"]:
        mobile = None
        if record["mobile"] is not None:
            saved_mobile = record["mobile"]
            mobile = Mobile(
                position_km=saved_mobile["pos"],
                speed_kmh=saved_mobile["speed"],
                direction=saved_mobile["dir"],
                cell_id=saved_mobile["cell"],
                position_time=saved_mobile["ptime"],
                mobile_id=saved_mobile["id"],
            )
        connections[record["id"]] = Connection(
            _TRAFFIC_CLASSES[record["class"]],
            start_time=record["start"],
            cell_id=record["cell"],
            mobile=mobile,
            prev_cell=record["prev"],
            cell_entry_time=record["entry"],
            connection_id=record["id"],
            handoff_count=record["handoffs"],
            allocated_bandwidth=record["alloc"],
            planned_end=record["end"],
        )
    for station in sim.network.stations:
        entry = _entry_for(manifest, cell_blob_name(station.cell_id))
        pairs, snapshots = unpack_cell_blob(read_entry(path, entry))
        saved_station = runtime["stations"][station.cell_id]
        _restore_estimator(
            station.estimator, pairs, snapshots, saved_station["estimator"]
        )
        restore_window(station.window, saved_station["window"])
        station.reservation_calculations = saved_station[
            "reservation_calculations"
        ]
        station.messages_sent = saved_station["messages_sent"]
    sim.network.recount_messages()
    for cell_id, member_ids in enumerate(runtime["cell_members"]):
        cell = sim.network.cell(cell_id)
        for connection_id in member_ids:
            cell.attach(connections[connection_id])
        saved_cell = runtime["cells"][cell_id]
        # Replayed attaches recompute an exact sum; the live counter is
        # an accumulated float with its own rounding history — restore
        # the drifted value so later arithmetic continues identically.
        cell.used_bandwidth = saved_cell["used"]
        cell.reserved_target = saved_cell["reserved"]
        cell.group_rebuilds = saved_cell["rebuilds"]
    saved_network = runtime["network"]
    sim.network.tick_flushes = saved_network["tick_flushes"]
    sim.network.tick_targets = saved_network["tick_targets"]
    sim.network.tick_grouped_suppliers = saved_network[
        "tick_grouped_suppliers"
    ]
    sim.network.tick_fallback_suppliers = saved_network[
        "tick_fallback_suppliers"
    ]
    _restore_metrics(sim.metrics, runtime["metrics"])
    sim.active_connections = {
        record["id"]: connections[record["id"]]
        for record in runtime["connections"]
    }
    _restore_queue(sim, runtime, connections)
    sim._resumed = True
    elapsed = wall_clock.perf_counter() - started
    if telemetry.enabled:
        timer = telemetry.timer("state.load")
        timer.seconds += elapsed
        timer.count += 1
        telemetry.counter("state.checkpoints", op="load").inc()
    _log.info(
        "checkpoint restored",
        extra={
            "path": str(path),
            "virtual_time": clock,
            "connections": len(connections),
            "pending_events": engine.pending,
            "wall_seconds": round(elapsed, 6),
        },
    )
    return sim


# ----------------------------------------------------------------------
# mid-run checkpointing
# ----------------------------------------------------------------------
class Checkpointer:
    """Observer hook writing periodic checkpoints during a run.

    Piggybacks on the engine's observer (like
    :class:`~repro.obs.progress.ProgressReporter`): it runs *between*
    events and schedules nothing, so a run with a checkpointer fires
    exactly the events it would without one.  Checkpoints land in
    ``directory`` as ``ckpt-<virtual time>`` and only the newest
    ``keep`` are retained.
    """

    def __init__(
        self,
        sim: "CellularSimulator",
        directory: str | Path,
        every: float,
        keep: int = 3,
    ) -> None:
        if every <= 0:
            raise ValueError("checkpoint interval must be positive")
        if keep < 1:
            raise ValueError("must keep at least one checkpoint")
        self.sim = sim
        self.directory = Path(directory)
        self.every = float(every)
        self.keep = keep
        self.written: list[Path] = []
        self._next = float(every)

    def beat(self) -> None:
        now = self.sim.engine.now
        if now < self._next:
            return
        while self._next <= now:
            self._next += self.every
        # Zero-padded so lexicographic order equals time order.
        target = self.directory / f"ckpt-{now:017.3f}"
        save_checkpoint(self.sim, target)
        if target in self.written:
            self.written.remove(target)
        self.written.append(target)
        while len(self.written) > self.keep:
            stale = self.written.pop(0)
            shutil.rmtree(stale, ignore_errors=True)
            _log.info(
                "checkpoint pruned",
                extra={"path": str(stale), "keep": self.keep},
            )

    @property
    def latest(self) -> Path | None:
        return self.written[-1] if self.written else None


# ----------------------------------------------------------------------
# estimator history: the one thing that outlives a run
# ----------------------------------------------------------------------
def save_history(path: str | Path, columns: dict, config) -> Path:
    """Atomically publish per-cell quadruplet history as directory ``path``.

    ``columns`` maps a cell id to its ``(prev, next) -> (times,
    sojourns)`` export (what ``run_spatial(collect_state=True)``
    returns, event times already shifted so the run's end is ``t = 0``).
    The result is an ordinary state directory — same manifest, same
    blobs, same publish as :func:`save_checkpoint` — that lists only
    ``cells/`` entries: enough for :class:`CheckpointWarmStart`, and
    refused by :func:`restore_simulator` for want of ``runtime.json``.
    """
    files: dict[str, bytes] = {}
    entries = [
        _add_cell_file(files, cell_id, columns[cell_id])
        for cell_id in sorted(columns)
    ]
    files[MANIFEST_NAME] = _manifest(
        config,
        config.duration,
        {"quadruplets": sum(entry["quadruplets"] for entry in entries)},
        entries,
    )
    return publish_state_dir(path, files)


class CheckpointWarmStart:
    """``config.warm_state``: seed a fresh run with an earlier run's history.

    Unlike :func:`restore_simulator` this does **not** resume the run —
    it gives a *new* run the learned state of an earlier one: the
    quadruplet cache of every cell the directory has a blob for (event
    times rebased by ``-rebase_seconds``, so the paper's day-age windows
    see yesterday's entries one period in the past) and, when the
    directory is a full checkpoint and ``carry_windows`` is set, the
    per-cell window-controller position so ``T_est`` keeps adapting
    across days instead of restarting at ``T_start``.

    Quadruplets older than the ``N_win`` horizon are dropped at load
    (finite ``T_int``) exactly as the cache's own windowed eviction
    would: expired days stop contributing, per paper Eq. 3.

    The handle is a path and two numbers, so it pickles into worker
    processes as is; each process reads — and CRC-verifies — only the
    blobs of the cells it hydrates.
    """

    def __init__(
        self,
        path: str | Path,
        rebase_seconds: float = 0.0,
        carry_windows: bool = True,
    ) -> None:
        self.path = Path(path)
        self.rebase_seconds = float(rebase_seconds)
        self.carry_windows = carry_windows

    def hydrate(self, network, cells=None) -> None:
        """Preload ``network``'s estimators (only ``cells``, if given)."""
        manifest = load_manifest(self.path)
        entries = {entry["path"]: entry for entry in manifest["files"]}
        windows = None
        if self.carry_windows and RUNTIME_NAME in entries:
            runtime = json.loads(
                read_entry(self.path, entries[RUNTIME_NAME])
            )
            windows = runtime["stations"]
        loaded = 0
        for station in network.stations:
            if cells is not None and station.cell_id not in cells:
                continue
            entry = entries.get(cell_blob_name(station.cell_id))
            if entry is None:
                continue
            pairs, _snapshots = unpack_cell_blob(
                read_entry(self.path, entry)
            )
            cache_config = station.estimator.cache.config
            horizon = None
            if cache_config.interval is not None:
                horizon = (
                    cache_config.window_days * cache_config.period
                    + cache_config.interval
                )
            rebased = {}
            for key, (times, sojourns) in pairs.items():
                shifted_times = []
                shifted_sojourns = []
                for event_time, sojourn in zip(times, sojourns):
                    shifted = event_time - self.rebase_seconds
                    # N_win expiry between days: entries beyond the
                    # window horizon can never participate again.
                    if horizon is not None and shifted < -horizon:
                        continue
                    shifted_times.append(shifted)
                    shifted_sojourns.append(sojourn)
                if shifted_times:
                    rebased[key] = (shifted_times, shifted_sojourns)
            station.estimator.preload(rebased)
            loaded += sum(len(times) for times, _ in rebased.values())
            if windows is not None:
                restore_window(
                    station.window,
                    windows[station.cell_id]["window"],
                    include_history=False,
                )
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.counter("state.checkpoints", op="warm_start").inc()
        _log.info(
            "warm state hydrated",
            extra={
                "path": str(self.path),
                "quadruplets": loaded,
                "rebase_seconds": self.rebase_seconds,
                "carry_windows": self.carry_windows,
            },
        )
