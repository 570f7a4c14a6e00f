"""The three batch workloads: interleaved plain/observed repeats.

Host speed here drifts by tens of percent within minutes, so no number
is a single shot or a best-of: a run keeps repeating pairs until its
time is used up, scales each repeat by the calibration spins around it
(:mod:`bench.calibrate`) and reports medians over the repeats.
"""

from __future__ import annotations

import statistics
import tempfile
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

from repro.des.engine import Engine

from bench import calibrate, check, layers
from bench.tracing import SpanRecorder
from bench.workloads import HEX_SHARDS, SCALES, SERIES_INTERVAL


@dataclass
class Repeat:
    observed: bool
    wall: float = 0.0
    #: Measured -> calibrated seconds (1.0 when the run is not calibrated).
    scale: float = 1.0
    build: float = 0.0
    events: int = 0
    decisions: int = 0
    digest: str | None = None
    result: object = None
    subject: object = None
    error: str | None = None


def one_repeat(workload, config, observed: bool, inline: bool = False) -> Repeat:
    """Build untimed, run timed, fingerprint afterwards."""
    repeat = Repeat(observed=observed)
    if observed:
        config = replace(config, series_interval=SERIES_INTERVAL)
    try:
        started = perf_counter()
        call, repeat.subject = workload.prepare(config, inline=inline)
        repeat.build = perf_counter() - started
        started = perf_counter()
        result = call()
        repeat.wall = perf_counter() - started
    except Exception:  # a failed repeat is a counted failure, not a crash
        repeat.error = traceback.format_exc()
        return repeat
    repeat.events = result.events_processed
    repeat.decisions = sum(
        cell.new_requests + cell.handoff_attempts for cell in result.cells
    )
    repeat.digest = check.digest(result)
    repeat.result = result
    return repeat


def run_pairs(
    workload, config, seconds: float, least: int, calibrator=None, inline=False
) -> list:
    """Pairs of (plain, observed) until ``seconds`` are used; the order
    inside a pair alternates so neither half always runs first.  With a
    calibrator, a spin runs between any two repeats."""
    repeats: list[Repeat] = []
    deadline = perf_counter() + seconds
    pairs = 0
    spin = calibrator.sample() if calibrator else None
    while pairs < least or perf_counter() < deadline:
        order = (False, True) if pairs % 2 == 0 else (True, False)
        for observed in order:
            repeat = one_repeat(workload, config, observed, inline)
            if calibrator:
                before, spin = spin, calibrator.sample()
                repeat.scale = calibrate.scale(before, spin)
            # Keep one result per kind for the report; drop the rest so
            # memory does not grow with the number of repeats.
            if any(r.observed == observed and r.result is not None for r in repeats):
                repeat.result = None
                repeat.subject = None
            repeats.append(repeat)
        pairs += 1
    return repeats


def _rates(repeats, observed: bool, calibrated: bool = True) -> list[float]:
    return [
        r.events / (r.wall * (r.scale if calibrated else 1.0))
        for r in repeats
        if r.observed == observed and not r.error
    ]


def summarise(workload, repeats, pin, timed=None) -> dict:
    """End-to-end numbers and the correctness verdict of one run.

    Every repeat is checked; speeds come from ``timed`` (default: all),
    so a traced run can leave its slowed repeats out of the rates.
    """
    timed = repeats if timed is None else timed
    plain = [r for r in timed if not r.observed and not r.error]
    failed = check.wrong_digests([r.digest for r in repeats], pin)
    reference = next((r.result for r in repeats if r.result is not None), None)
    metrics, raw = {}, {}
    if plain and _rates(timed, True):
        walls = [r.wall * r.scale for r in plain]
        metrics = {
            "events_per_s": statistics.median(_rates(timed, False)),
            "events_per_s_observed": statistics.median(_rates(timed, True)),
            "decisions_per_s": statistics.median(
                r.decisions / wall for r, wall in zip(plain, walls)
            ),
            # On a batch run a decision has no queue to wait in: its
            # "latency" is the host time one repeat spends per decision.
            "decision_latency_p50_ms": statistics.median(
                1000.0 * wall / r.decisions for r, wall in zip(plain, walls)
            ),
        }
        raw = {
            "events_per_s": statistics.median(_rates(timed, False, False)),
            "events_per_s_observed": statistics.median(_rates(timed, True, False)),
        }
    report = {
        "attempted": len(repeats),
        "failed": failed,
        "metrics": metrics,
        "raw": raw,
        "repeats": len(plain),
        "errors": [r.error for r in repeats if r.error],
        "digest": next((r.digest for r in repeats if r.digest), None),
        "paper": check.paper_side(reference) if reference is not None else {},
    }
    target = workload.p_hd_target
    if pin and target is not None and reference is not None:
        # The paper's QoS constraint is part of this workload's contract.
        if reference.dropping_probability > target:
            report["failed"] += 1
            report["errors"].append(f"{workload.name}: p_hd above the {target} target")
    return report


def measure(
    workload, seed: int, scale: str, seconds: float, pin, calibrator
) -> dict:
    config = workload.config(seed, scale)
    repeats = run_pairs(
        workload, config, seconds, SCALES[scale].min_repeats, calibrator
    )
    return summarise(workload, repeats, pin)


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def bare_event_us(events: int = 10_000) -> float:
    """Microseconds per no-op event through the engine's own loop:
    one self-rescheduling callback, ``events`` times; median of five."""

    def once() -> float:
        engine = Engine()
        left = [events]

        def tick() -> None:
            left[0] -= 1
            if left[0]:
                engine.call_in(1.0, tick)

        engine.call_in(1.0, tick)
        started = perf_counter()
        engine.run()
        return (perf_counter() - started) / events * 1e6

    return statistics.median(once() for _ in range(5))


def state_io(simulator, config, scratch: Path, rounds: int = 9) -> dict:
    """Checkpoint save/restore of a finished simulator, median of nine."""
    from repro.state import restore_simulator, save_checkpoint

    saves, restores, size = [], [], 0
    with tempfile.TemporaryDirectory(dir=scratch) as folder:
        for index in range(rounds):
            path = Path(folder) / f"state-{index}"
            started = perf_counter()
            save_checkpoint(simulator, path)
            saves.append(perf_counter() - started)
            started = perf_counter()
            restore_simulator(path, config)
            restores.append(perf_counter() - started)
            size = sum(f.stat().st_size for f in path.rglob("*") if f.is_file())
    return {
        "state.save_ms": 1000.0 * statistics.median(saves),
        "state.restore_ms": 1000.0 * statistics.median(restores),
        "state.bytes": size,
    }


def critical_path(root: dict, shards: int) -> float:
    """Sum over epochs of the slowest shard's ``run_epoch``: what the
    epochs would cost with every shard on its own core.  Inline hosts
    run an epoch's shards one after the other, so spans group in order."""
    spans = root["durations"]["spatial.run_epoch"]
    return sum(
        max(spans[index : index + shards]) for index in range(0, len(spans), shards)
    )


def trace(
    workload, seed: int, scale: str, seconds: float, pin, scratch: Path
) -> dict:
    """Untraced reference repeats, then the same repeats under wrappers.

    The reference gives the digest the traced run must reproduce and
    the speed the tracing overhead is taken against.  Traced hex shards
    run inline so their spans land in this process.  Nothing here is
    calibrated: spans are seconds as measured.
    """
    config = workload.config(seed, scale)
    least = SCALES[scale].min_repeats
    hex_run = workload.handler_layer == "spatial"
    reference = run_pairs(workload, config, seconds * 0.35, min(2, least))
    # Untraced inline runs: the digest inline shards must reproduce, and
    # the speed tracing overhead and parallel efficiency are taken against.
    inline_runs = [
        one_repeat(workload, config, observed=False, inline=True)
        for _ in range(3 if hex_run else 0)
    ]
    loop_us = bare_event_us()

    recorder = SpanRecorder()
    traced_config = replace(config, telemetry=True)
    with recorder.installed(layers.TABLE):
        traced = run_pairs(
            workload, traced_config, seconds * 0.4, min(2, least), inline=hex_run
        )
    broken = [r.error for r in reference + inline_runs + traced if r.error]
    if broken:
        raise RuntimeError(f"{workload.name}: a repeat failed\n{broken[0]}")
    # Roots come in run order, one per traced repeat.
    roots = recorder.roots(workload.root, per_call=("spatial.run_epoch",))
    plain_roots = [root for root, r in zip(roots, traced) if not r.observed]
    observed_roots = [root for root, r in zip(roots, traced) if r.observed]
    result = next(r.result for r in traced if not r.observed and r.result is not None)
    subject = next(
        (r.subject for r in traced if not r.observed and r.subject is not None), None
    )

    report = summarise(workload, reference + traced, pin, timed=reference)
    report["attempted"] += len(inline_runs)
    if any(r.digest != report["digest"] for r in inline_runs):
        report["failed"] += 1
        report["errors"].append("inline shards disagree with process shards")

    untraced = statistics.median(_rates(reference, False))
    # Traced hex shards run inline, so their overhead is taken against
    # the untraced inline run, not against the two-process reference.
    like_traced = (
        statistics.median(_rates(inline_runs, False)) if hex_run else untraced
    )
    extras = {
        "build_s": statistics.median(r.build for r in reference),
        "obs.trace_overhead_frac": 1.0
        - statistics.median(_rates(traced, False)) / like_traced,
        "obs.sampler_overhead_frac": 1.0
        - statistics.median(_rates(reference, True)) / untraced,
        "obs.sample_s": statistics.median(
            root["by_alias"].get("obs.sample", layers.NO_SPANS)[1]
            for root in observed_roots
        )
        if observed_roots
        else 0.0,
    }
    observed_result = next(
        (r.result for r in traced if r.observed and r.result is not None), None
    )
    if observed_result is not None and observed_result.timeseries:
        extras["obs.samples"] = len(observed_result.timeseries)
    if hex_run and plain_roots:
        extras["spatial.run_epoch_critical_s"] = statistics.median(
            critical_path(root, HEX_SHARDS) for root in plain_roots
        )
        process_wall = statistics.median(
            r.wall for r in reference if not r.observed and not r.error
        )
        extras["spatial.parallel_efficiency"] = statistics.median(
            r.wall for r in inline_runs
        ) / (HEX_SHARDS * process_wall)
    if workload.name == "ring_ac3" and subject is not None:
        extras.update(state_io(subject, config, scratch))

    report["layer_metrics"] = layers.layer_metrics(
        plain_roots, workload.handler_layer, result, loop_us, extras
    )
    # The table shows the repeat of median length.
    middle = sorted(plain_roots, key=lambda root: root["duration"])[
        len(plain_roots) // 2
    ]
    report["layer_table"] = layers.layer_self_times(
        middle,
        workload.handler_layer,
        layers.split_dispatch(middle, result.events_processed, loop_us),
    )
    report["root_s"] = middle["duration"]
    report["recorder"] = recorder
    return report
