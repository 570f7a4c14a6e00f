"""Checkpoint capture and bit-identical restore of a live simulator.

:func:`save_checkpoint` walks a :class:`CellularSimulator` — between
events or after its run — and persists everything the continuation
depends on: the engine clock and pending event queue (with scheduling
order stamps), every named RNG position, the live connections and
their per-cell attach order, quadruplet caches (binary column blobs),
finite-``T_int`` F_HOE snapshots, window-controller state, run metrics
and the observability counters.  Each persisted attribute is named
once, in the field table below: capture and restore both walk it, so a
field cannot be saved without being restored, or the other way round.

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
from dataclasses import astuple, fields
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.qos import AdaptiveQoSPolicy
from repro.des.engine import Engine
from repro.des.events import EventPriority
from repro.estimation.estimator import MobilityEstimator
from repro.estimation.function import HandoffEstimationFunction, _Mass
from repro.mobility.mobile import Mobile
from repro.mobility.models import LinearMobilityModel, Transition
from repro.obs import get_logger
from repro.simulation.metrics import CellCounters, HourlyBucket, TracePoint
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
from repro.traffic.connection import Connection

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.simulator import CellularSimulator

_log = get_logger("repro.state")

_TRAFFIC_CLASSES = {
    VOICE.name: VOICE,
    VIDEO.name: VIDEO,
    ADAPTIVE_VIDEO.name: ADAPTIVE_VIDEO,
}


# ----------------------------------------------------------------------
# the field table: every persisted attribute, named once
# ----------------------------------------------------------------------
def _same(*names: str) -> dict[str, str]:
    """A table whose record keys are the attribute names themselves."""
    return {name: name for name in names}


#: ``record key -> attribute`` of each object the runtime record keeps.
#: Capture reads the attributes into a record (:func:`_dump`); restore
#: writes the record back (:func:`_load`, or constructor keywords via
#: :func:`_kwargs`).  Neither side spells a key of its own.
_CONNECTION = {
    "id": "connection_id",
    "start": "start_time",
    "cell": "cell_id",
    "prev": "prev_cell",
    "entry": "cell_entry_time",
    "handoffs": "handoff_count",
    "alloc": "allocated_bandwidth",
    "end": "planned_end",
}
_MOBILE = {
    "id": "mobile_id",
    "pos": "position_km",
    "speed": "speed_kmh",
    "dir": "direction",
    "cell": "cell_id",
    "ptime": "position_time",
}
#: Counted only by :class:`~repro.core.qos.AdaptiveQoSPolicy`; other
#: policies record zeros and restore nothing.
_POLICY = _same("degradations", "upgrades")
_CELL = {"used": "used_bandwidth", "reserved": "reserved_target"}
_STATION = _same("reservation_calculations", "messages_sent")
_NETWORK = _same(
    "tick_flushes",
    "tick_targets",
    "tick_grouped_suppliers",
    "tick_fallback_suppliers",
)
_ESTIMATOR = _same(
    "snapshot_hits",
    "snapshot_builds",
    "snapshot_invalidations",
    "eq4_resident_batches",
    "eq4_walk_batches",
    "eq4_resident_rows",
    "eq4_walk_rows",
)
#: A window controller's position — what a campaign day carries over —
#: and its lifetime history, which only an exact restore brings back.
_WINDOW_POSITION = {
    **_same("reference", "observation_window", "t_est", "handoffs", "drops"),
    "consecutive": "_consecutive",
    "last_direction": "_last_direction",
}
_WINDOW_HISTORY = _same("total_handoffs", "total_drops")
_METRICS = {
    **_same("total_admission_tests", "total_calculations", "total_messages"),
    "reservation_sum": "_reservation_sum",
    "used_sum": "_used_sum",
    "samples": "_samples",
}
#: Per tracked cell: the sampled series (``[time, value]`` rows) and the
#: counts the cumulative ``P_HD`` trace is computed from.
_TRACE_SERIES = {
    "t_est": "t_est_traces",
    "reservation": "reservation_traces",
    "phd": "phd_traces",
}
_TRACE_COUNTS = {"attempts": "_trace_attempts", "drops": "_trace_drops"}
#: Per-cell counters, one positional row each, in this order.
_CELL_COUNTERS = tuple(field.name for field in fields(CellCounters))
#: Each pending-event kind (a key of ``CellularSimulator.HANDLERS``,
#: which gives its handler): its priority and the record keys of the
#: handler's arguments.  ``conn`` holds a connection by id,
#: ``transition`` spreads into ``t_time``/``t_next``, and an argument
#: that is ``None`` is left out of the record.
_QUEUED = {
    "arrival": (EventPriority.ARRIVAL, ("cell", "attempt")),
    "retry": (EventPriority.ARRIVAL, ("cell", "attempt")),
    "lifetime": (EventPriority.DEPARTURE, ("conn",)),
    "crossing": (EventPriority.HANDOFF, ("conn", "transition", "soft")),
    "sample": (EventPriority.MONITOR, ()),
}


def _dump(obj, table: dict[str, str]) -> dict:
    return {key: getattr(obj, attr) for key, attr in table.items()}


def _kwargs(saved: dict, table: dict[str, str]) -> dict:
    return {attr: saved[key] for key, attr in table.items()}


def _load(obj, saved: dict, table: dict[str, str]) -> None:
    for attr, value in _kwargs(saved, table).items():
        setattr(obj, attr, value)

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
    if sim.backbone is not None:
        raise CheckpointError(
            "cannot checkpoint a run with a wired backbone installed "
            "(backbone state is outside the state schema)"
        )
    if type(sim.mobility) is not LinearMobilityModel:
        raise CheckpointError(
            f"cannot checkpoint mobility model "
            f"{type(sim.mobility).__name__}: only LinearMobilityModel, "
            f"whose one piece of state is its next mobile id, is supported"
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
        **_dump(connection, _CONNECTION),
        "class": connection.traffic_class.name,
        "mobile": None if mobile is None else _dump(mobile, _MOBILE),
    }


def _capture_queue(sim: "CellularSimulator") -> list[dict]:
    kinds = {handler: kind for kind, handler in sim.HANDLERS.items()}
    records = []
    for time, _, sequence, callback, args in sim.engine.queued():
        kind = kinds.get(callback)
        if kind is None:
            # Progress/checkpoint hooks never schedule; anything
            # else in the queue belongs to code the schema cannot
            # reconstruct.
            raise CheckpointError(
                f"cannot serialize foreign pending event {callback!r}"
            )
        record: dict = {"time": time, "seq": sequence, "kind": kind}
        for key, value in zip(_QUEUED[kind][1], args):
            if key == "conn":
                record[key] = value.connection_id
            elif key == "transition":
                record["t_time"] = value.time
                record["t_next"] = value.next_cell
            elif value is not None:
                record[key] = value
        records.append(record)
    records.sort(key=lambda record: record["seq"])
    return records


def _capture_window(controller) -> dict:
    return {
        **_dump(controller, _WINDOW_POSITION),
        **_dump(controller, _WINDOW_HISTORY),
        "adjustments": [
            list(astuple(adjustment)) for adjustment in controller.adjustments
        ],
    }


def _capture_estimator(estimator: MobilityEstimator) -> dict:
    return {
        "dirty": sorted(
            encode_prev(prev) for prev in estimator._dirty
        ),
        "total_recorded": estimator.cache.total_recorded,
        **_dump(estimator, _ESTIMATOR),
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
            [getattr(counters, name) for name in _CELL_COUNTERS]
            for counters in metrics.cells
        ],
        "hourly": [
            list(astuple(bucket))
            for _, bucket in sorted(metrics.hourly.items())
        ],
        "traces": {
            str(cell): {
                **{
                    key: [
                        [point.time, point.value]
                        for point in getattr(metrics, attr)[cell]
                    ]
                    for key, attr in _TRACE_SERIES.items()
                },
                **{
                    key: getattr(metrics, attr)[cell]
                    for key, attr in _TRACE_COUNTS.items()
                },
            }
            for cell in metrics.tracked
        },
        **_dump(metrics, _METRICS),
    }


def _add_file(files: dict, path: str, kind: str, blob: bytes, **extra) -> dict:
    """Put ``blob`` into ``files`` at ``path``; return its manifest entry."""
    files[path] = blob
    return {
        "path": path,
        "kind": kind,
        **extra,
        "bytes": len(blob),
        "crc32": crc32_of(blob),
    }


def _add_cell_file(files: dict, cell_id: int, pairs, snapshots=None) -> dict:
    """Pack one cell's history into ``files``; return its manifest entry."""
    return _add_file(
        files,
        cell_blob_name(cell_id),
        "cell",
        pack_cell_blob(pairs, snapshots),
        cell=cell_id,
        quadruplets=sum(len(times) for times, _sojourns in pairs.values()),
        pairs=len(pairs),
    )


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
        "next_connection_id": sim.next_connection_id,
        "next_mobile_id": sim.mobility.next_mobile_id,
        "policy": {
            "name": sim.policy.name,
            **{
                key: getattr(sim.policy, attr, 0)
                for key, attr in _POLICY.items()
            },
        },
        "connections": [
            _capture_connection(connection)
            for connection in sim.active_connections.values()
        ],
        "cell_members": [
            [
                connection.connection_id
                for connection in sim.network.cell(cell_id).connections()
            ]
            for cell_id in range(sim.topology.num_cells)
        ],
        "cells": [_dump(cell, _CELL) for cell in sim.network.cells],
        "stations": [
            {
                **_dump(station, _STATION),
                "window": _capture_window(station.window),
                "estimator": _capture_estimator(station.estimator),
            }
            for station in sim.network.stations
        ],
        "network": _dump(sim.network, _NETWORK),
        "metrics": _capture_metrics(sim.metrics),
        "queue": _capture_queue(sim),
        "finished": sim._finished,
    }
    files: dict[str, bytes] = {}
    entries = [
        _add_file(
            files, RUNTIME_NAME, "runtime", json.dumps(runtime).encode("utf-8")
        )
    ]
    cell_entries = [
        _add_cell_file(
            files,
            station.cell_id,
            station.estimator.cache.export_columns(),
            _capture_snapshots(station.estimator),
        )
        for station in sim.network.stations
    ]
    entries += cell_entries
    # Observability sidecars: a telemetry snapshot and the series rows
    # so far, when the run carries them.  Pure annotations — restore
    # never reads them, but ``repro state inspect`` summarises them.
    if sim.telemetry.enabled:
        blob = json.dumps(sim.telemetry.snapshot(), sort_keys=True, indent=1)
        entries.append(
            _add_file(files, "telemetry.json", "telemetry", blob.encode("utf-8"))
        )
    # (A sampler that only feeds ``--progress`` lines keeps no series.)
    sampler = sim.sampler if sim.config.series_enabled else None
    rows = sampler.series() if sampler is not None else None
    if rows:
        blob = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
        entries.append(
            _add_file(files, "series.jsonl", "series", blob.encode("utf-8"))
        )
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
        entries,
    )
    return files


def save_checkpoint(sim: "CellularSimulator", path: str | Path) -> Path:
    """Capture ``sim`` and atomically publish it as directory ``path``.

    The save is timed into the simulator's own registry
    (``state.save``, ``state.checkpoints{op="save"}``).
    """
    telemetry = sim.telemetry
    started = wall_clock.perf_counter()
    files = capture_state(sim)
    with sim.tracer.span(
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
    _load(estimator, saved, _ESTIMATOR)


def restore_window(controller, saved: dict, include_history: bool = True) -> None:
    """Overwrite a fresh controller with captured Figure-6 state.

    ``include_history=False`` restores only the controller's *position*
    (``T_est``, ``W_obs``, ``n_H``, ``n_HD``, step direction) without
    the lifetime totals and adjustment trace — what a campaign day
    carries over so the new day's statistics start clean.
    """
    from repro.core.window import WindowAdjustment

    _load(controller, saved, _WINDOW_POSITION)
    if include_history:
        _load(controller, saved, _WINDOW_HISTORY)
        controller.adjustments = [
            WindowAdjustment(*row) for row in saved["adjustments"]
        ]


def _restore_metrics(metrics, saved: dict) -> None:
    for counters, row in zip(metrics.cells, saved["cells"]):
        for name, value in zip(_CELL_COUNTERS, row):
            setattr(counters, name, value)
    metrics.hourly = {row[0]: HourlyBucket(*row) for row in saved["hourly"]}
    for cell_text, trace in saved["traces"].items():
        cell = int(cell_text)
        if cell not in metrics.tracked:
            continue
        for key, attr in _TRACE_SERIES.items():
            getattr(metrics, attr)[cell] = [
                TracePoint(time, value) for time, value in trace[key]
            ]
        for key, attr in _TRACE_COUNTS.items():
            getattr(metrics, attr)[cell] = trace[key]
    _load(metrics, saved, _METRICS)


def _restore_queue(
    sim: "CellularSimulator", runtime: dict, connections: dict
) -> None:
    """Re-schedule the pending events (written in stamp order)."""
    for record in runtime["queue"]:
        kind = record["kind"]
        if kind not in _QUEUED:
            raise StateFormatError(f"unknown queued event kind {kind!r}")
        priority, keys = _QUEUED[kind]
        args = []
        for key in keys:
            if key == "conn":
                args.append(connections[record[key]])
            elif key == "transition":
                args.append(Transition(record["t_time"], record["t_next"]))
            else:
                args.append(record.get(key))
        sim.engine.call_at(
            record["time"], sim.HANDLERS[kind], *args, priority=priority
        )


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

    started = wall_clock.perf_counter()
    path = Path(path)
    manifest = load_manifest(path)
    # A history-only directory is no checkpoint, whatever the scenario.
    runtime_entry = _entry_for(manifest, RUNTIME_NAME)
    _check_fingerprint(manifest["config"], config)
    runtime = json.loads(read_entry(path, runtime_entry))
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
    engine = Engine(clock, owner=sim, handlers=sim.HANDLERS.values())
    engine.events_processed = runtime["events_processed"]
    sim.engine = engine
    for name, (version, internal, gauss) in runtime["rng"].items():
        sim.streams.get(name).setstate(
            (version, tuple(internal), gauss)
        )
    # A checkpoint's saved next ids are at least every id it holds.
    sim.next_connection_id = runtime["next_connection_id"]
    sim.mobility.next_mobile_id = runtime["next_mobile_id"]
    if sim.policy.name != runtime["policy"]["name"]:
        raise StateFormatError(
            f"checkpoint used policy {runtime['policy']['name']!r}, "
            f"configuration builds {sim.policy.name!r}"
        )
    if isinstance(sim.policy, AdaptiveQoSPolicy):
        _load(sim.policy, runtime["policy"], _POLICY)
    connections: dict[int, Connection] = {}
    for record in runtime["connections"]:
        saved_mobile = record["mobile"]
        connection = Connection(
            _TRAFFIC_CLASSES[record["class"]],
            mobile=None
            if saved_mobile is None
            else Mobile(**_kwargs(saved_mobile, _MOBILE)),
            **_kwargs(record, _CONNECTION),
        )
        connections[connection.connection_id] = connection
    for station in sim.network.stations:
        entry = _entry_for(manifest, cell_blob_name(station.cell_id))
        pairs, snapshots = unpack_cell_blob(read_entry(path, entry))
        saved_station = runtime["stations"][station.cell_id]
        _restore_estimator(
            station.estimator, pairs, snapshots, saved_station["estimator"]
        )
        restore_window(station.window, saved_station["window"])
        _load(station, saved_station, _STATION)
    sim.network.recount_messages()
    for cell_id, member_ids in enumerate(runtime["cell_members"]):
        cell = sim.network.cell(cell_id)
        for connection_id in member_ids:
            cell.attach(connections[connection_id])
        # Replayed attaches recompute an exact sum; the live counter is
        # an accumulated float with its own rounding history — restore
        # the drifted value so later arithmetic continues identically.
        _load(cell, runtime["cells"][cell_id], _CELL)
    _load(sim.network, runtime["network"], _NETWORK)
    _restore_metrics(sim.metrics, runtime["metrics"])
    sim.active_connections = connections
    _restore_queue(sim, runtime, connections)
    sim._resumed = True
    elapsed = wall_clock.perf_counter() - started
    telemetry = sim.telemetry
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
    :class:`~repro.obs.timeseries.TimeSeriesSampler`): it runs *between*
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
    returns, at the run's own event times).
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
        if network.telemetry.enabled:
            network.telemetry.counter(
                "state.checkpoints", op="warm_start"
            ).inc()
        _log.info(
            "warm state hydrated",
            extra={
                "path": str(self.path),
                "quadruplets": loaded,
                "rebase_seconds": self.rebase_seconds,
                "carry_windows": self.carry_windows,
            },
        )
