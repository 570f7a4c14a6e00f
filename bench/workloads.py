"""The four workloads: what each one runs, and why it is in the set.

The seed reaches only the scenario builders here; the program under
test receives the generated configuration (or, for the serving
workload, the generated event stream) and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.simulation import CellularSimulator, hex_city, spatial, stationary

#: Virtual seconds between samples in the "observed" half of a pair.
SERIES_INTERVAL = 5.0

#: Shards of the hex city (one worker process each).
HEX_SHARDS = 2


@dataclass(frozen=True)
class Scale:
    """Scenario sizes.  ``smoke`` exists to exercise the harness, not to
    be compared with anything."""

    ring_ac3_duration: float
    ring_static_duration: float
    hex_side: int
    hex_duration: float
    hex_hotspots: tuple
    serve_duration: float
    #: Offered rate of the open-loop phase, events per second.
    serve_rate: float
    #: Events per saturation pass.
    serve_pass_events: int
    #: Least number of pairs (or saturation passes) in a run.
    min_repeats: int


SCALES = {
    "full": Scale(
        ring_ac3_duration=600.0,
        ring_static_duration=2000.0,
        hex_side=16,
        hex_duration=30.0,
        hex_hotspots=((3, 5, 4.0, 2.0), (11, 9, 3.0, 2.0)),
        serve_duration=1800.0,
        serve_rate=2000.0,
        serve_pass_events=10000,
        min_repeats=3,
    ),
    "smoke": Scale(
        ring_ac3_duration=60.0,
        ring_static_duration=150.0,
        hex_side=6,
        hex_duration=6.0,
        hex_hotspots=((1, 2, 4.0, 2.0), (4, 3, 3.0, 2.0)),
        serve_duration=60.0,
        serve_rate=1000.0,
        serve_pass_events=1000,
        min_repeats=2,
    ),
}


def _ring(scheme: str, duration: float, seed: int):
    return stationary(
        scheme,
        offered_load=200,
        voice_ratio=0.8,
        high_mobility=True,
        duration=duration,
        seed=seed,
        kernel="numpy",
    )


def serve_config(seed: int, scale: str):
    """Scenario behind ``serve_static_ws`` (the child builds it too)."""
    return _ring("static", SCALES[scale].serve_duration, seed)


def _ring_ac3(seed: int, scale: str):
    return _ring("AC3", SCALES[scale].ring_ac3_duration, seed)


def _ring_static(seed: int, scale: str):
    return _ring("static", SCALES[scale].ring_static_duration, seed)


def _hex(seed: int, scale: str):
    sizes = SCALES[scale]
    return hex_city(
        "AC3",
        rows=sizes.hex_side,
        cols=sizes.hex_side,
        offered_load=700,
        duration=sizes.hex_duration,
        seed=seed,
        hotspots=sizes.hex_hotspots,
        kernel="numpy",
    )


def _prepare_ring(config, inline: bool = False):
    simulator = CellularSimulator(config)
    return simulator.run, simulator


def _prepare_hex(config, inline: bool = False):
    # Fork and network build are inside the timed call: a user pays
    # them on every run_spatial().  Looked up on the module at call
    # time so a traced run reaches the wrapped function.
    def call():
        return spatial.run_spatial(
            config, shards=HEX_SHARDS, plan_kind="load", processes=not inline
        )

    return call, None


@dataclass(frozen=True)
class Workload:
    """One workload of the benchmark.

    ``root`` is the span alias (see :mod:`bench.layers`) every layer's
    self time is a share of; ``handler_layer`` owns the private event
    handlers that run inside the engine's dispatch loop.  The batch
    workloads carry ``config(seed, scale)`` and ``prepare(config,
    inline)`` — the untimed part of one repeat, returning ``(timed_call,
    subject)``; the serving workload lives in :mod:`bench.servebench`.
    """

    name: str
    why: str
    root: str
    handler_layer: str
    config: Callable | None = None
    prepare: Callable | None = None
    #: Paper-side QoS constraint checked on the pinned seed.
    p_hd_target: float | None = None
    #: Fresh-process set-ups timed per run, besides the run's own.
    setup_probes: int = 6


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="ring_ac3",
            why="paper's headline ring under AC3: two thirds of the time is"
            " the Eq. 4/5 flush path, so estimator and kernel work shows here",
            root="simulation.run",
            handler_layer="simulation",
            config=_ring_ac3,
            prepare=_prepare_ring,
            p_hd_target=0.01,
        ),
        Workload(
            name="ring_static",
            why="same traffic, static guard channels: the estimator is bypassed,"
            " so dispatch, life-cycle and sampler cost show and flush work must not",
            root="simulation.run",
            handler_layer="simulation",
            config=_ring_static,
            prepare=_prepare_ring,
        ),
        Workload(
            name="hex_city",
            why="hex city loaded to blocking on two shard processes: columnar"
            " store, epoch barriers over pipes, B_r refreshed per epoch",
            root="spatial.run",
            handler_layer="spatial",
            config=_hex,
            prepare=_prepare_hex,
        ),
        Workload(
            name="serve_static_ws",
            why="recorded stream replayed over one WebSocket, open loop then"
            " saturation: the serving front does the work, the policy costs nothing",
            root="serve.replay",
            handler_layer="serve",
            # Its set-up records a stream and starts a child: seconds each.
            setup_probes=2,
        ),
    )
}
