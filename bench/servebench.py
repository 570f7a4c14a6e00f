"""``serve_static_ws``: a recorded stream replayed through the live service.

Set-up records a DES run's event stream; a child process serves the
same scenario; the benchmark replays the stream over one WebSocket.

* Phase A, open loop: a fixed event rate, latency from each event's
  due time, generator lateness reported beside it.
* Phase B, saturation: the stream back-to-back against a fresh service
  per pass, for decisions per second.

Events carry their recorded timestamps, so every reply must equal the
decision the DES run made, whatever the wall clock does.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

from repro.serve import AdmissionService, StreamDriver, WallClock, record_run
from repro.serve.events import ARRIVAL, HANDOFF
from repro.serve.ws import WebSocketGateway

from bench import calibrate, check, layers, loadgen
from bench.simbench import bare_event_us
from bench.tracing import SpanRecorder
from bench.workloads import SCALES, serve_config

#: Share of a run's seconds spent in the open-loop phase.
OPEN_LOOP_SHARE = 0.45

#: Consecutive stretches the open-loop phase is cut into.
SEGMENTS = 12

#: Events in the one-at-a-time round-trip probes of a traced run.
IDLE_PROBE_EVENTS = 2000


class ServeChild:
    """The serving process, driven over its stdin/stdout."""

    def __init__(self, seed: int, scale: str) -> None:
        script = Path(__file__).resolve().parent / "serve_child.py"
        self._process = subprocess.Popen(
            [sys.executable, str(script), str(seed), scale],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def _ask(self, command: str) -> dict:
        self._process.stdin.write(command + "\n")
        self._process.stdin.flush()
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError("the serving child exited early")
        return json.loads(line)

    def fresh_service(self) -> int:
        """Replace the running service with a new one; returns its port."""
        return self._ask("new")["port"]

    def close(self) -> None:
        try:
            self._process.stdin.write("quit\n")
            self._process.stdin.flush()
            self._process.stdin.close()
        except (BrokenPipeError, OSError):
            pass
        try:
            self._process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process.stdout.close()


def setup(seed: int, scale: str) -> dict:
    """Record the stream, encode every frame, start the child, shake hands."""
    config = serve_config(seed, scale)
    events, recorded = record_run(config)
    frames = loadgen.encode_requests(events)
    child = ServeChild(seed, scale)
    try:
        sock = loadgen.connect(child.fresh_service())
    except BaseException:
        child.close()
        raise
    return {
        "config": config,
        "events": events,
        "frames": frames,
        "recorded": recorded,
        "digest": check.digest(recorded),
        "child": child,
        "sock": sock,
        "scale": SCALES[scale],
    }


def teardown(state: dict) -> None:
    state["sock"].close()
    state["child"].close()


def _decisions(events) -> int:
    return sum(1 for event in events if event.kind in (ARRIVAL, HANDOFF))


def _bracket(calibrator, before):
    """``(factor, spin)`` after a timed piece: the calibration factor for
    the piece just timed and the spin that opens the next one."""
    if calibrator is None:
        return 1.0, None
    after = calibrator.sample()
    return calibrate.scale(before, after), after


def open_loop_phase(state: dict, seconds: float, calibrator=None) -> dict:
    """Phase A on the connection set-up opened: ``SEGMENTS`` consecutive
    open-loop stretches of the stream, a calibration spin between them.

    The end-to-end p50 is the median of the segments' (calibrated) p50s,
    so one host stall cannot own it; the same goes for the p90.
    """
    sizes = state["scale"]
    wanted = max(SEGMENTS * 50, int(sizes.serve_rate * seconds))
    size = min(len(state["events"]), wanted) // SEGMENTS
    p50s, p90s, achieved, latencies, lateness = [], [], [], [], []
    failed = 0
    spin = calibrator.sample() if calibrator else None
    for index in range(SEGMENTS):
        events = state["events"][index * size : (index + 1) * size]
        frames = state["frames"][index * size : (index + 1) * size]
        due = loadgen.compress_schedule(events, sizes.serve_rate)
        timeline = loadgen.open_loop(state["sock"], frames, due)
        factor, spin = _bracket(calibrator, spin)
        segment = loadgen.latency_report(timeline, sizes.serve_rate)
        failed += loadgen.check_replies(events, timeline["reader"].payloads)
        p50s.append(segment["p50_ms"] * factor)
        p90s.append(segment["p90_ms"] * factor)
        achieved.append(segment["achieved_over_offered"])
        latencies += segment["latencies_ms"]
        lateness += segment["lateness_ms"]
    latencies.sort()
    lateness.sort()
    within = sum(1 for value in latencies if value <= loadgen.LATENCY_LIMIT_MS)
    return {
        "attempted": size * SEGMENTS,
        "failed": failed,
        "p50_ms": statistics.median(p50s),
        "p90_ms": statistics.median(p90s),
        # Whole-phase diagnostics, as measured.
        "p99_ms": loadgen.percentile(latencies, 0.99),
        "max_ms": latencies[-1] if latencies else float("nan"),
        "stall_windows": sum(
            1 for p90 in p90s if p90 > loadgen.LATENCY_LIMIT_MS
        ),
        # An unanswered request misses every limit.
        "within_10ms_share": within / (size * SEGMENTS),
        "generator_late_p99_ms": loadgen.percentile(lateness, 0.99),
        "achieved_over_offered": statistics.median(achieved),
    }


def saturation_phase(
    state: dict, seconds: float, least: int, calibrator=None
) -> dict:
    """Phase B: whole passes, a fresh service each, until time is used."""
    count = min(len(state["events"]), state["scale"].serve_pass_events)
    events = state["events"][:count]
    frames = state["frames"][:count]
    decisions = _decisions(events)
    elapsed, raw, failed = [], [], 0
    deadline = perf_counter() + seconds
    spin = calibrator.sample() if calibrator else None
    while len(elapsed) < least or perf_counter() < deadline:
        sock = loadgen.connect(state["child"].fresh_service())
        try:
            outcome = loadgen.saturate(sock, frames)
        finally:
            sock.close()
        factor, spin = _bracket(calibrator, spin)
        raw.append(outcome["elapsed"])
        elapsed.append(outcome["elapsed"] * factor)
        failed += loadgen.check_replies(events, outcome["reader"].payloads)
    return {
        "attempted": count * len(elapsed),
        "failed": failed,
        "passes": len(elapsed),
        "events_per_s": statistics.median(count / value for value in elapsed),
        "decisions_per_s": statistics.median(decisions / value for value in elapsed),
        "raw_events_per_s": statistics.median(count / value for value in raw),
    }


def _stream_failures(state: dict, pin) -> int:
    """1 when the recorded stream is not the pinned one: every parity
    check downstream would be against the wrong recording."""
    return check.wrong_digests([state["digest"]], pin)


def measure(state: dict, seconds: float, pin, calibrator) -> dict:
    phase_a = open_loop_phase(state, seconds * OPEN_LOOP_SHARE, calibrator)
    phase_b = saturation_phase(
        state,
        seconds * (1.0 - OPEN_LOOP_SHARE),
        state["scale"].min_repeats,
        calibrator,
    )
    return {
        "attempted": phase_a["attempted"] + phase_b["attempted"],
        "failed": phase_a["failed"]
        + phase_b["failed"]
        + _stream_failures(state, pin),
        "metrics": {
            "events_per_s": phase_b["events_per_s"],
            # `repro serve` always runs with its 1 Hz wall series on,
            # so the served path has no unobserved variant to compare.
            "events_per_s_observed": phase_b["events_per_s"],
            "decisions_per_s": phase_b["decisions_per_s"],
            "decision_latency_p50_ms": phase_a["p50_ms"],
        },
        "raw": {"events_per_s": phase_b["raw_events_per_s"]},
        "repeats": phase_b["passes"],
        "errors": [],
        "digest": state["digest"],
        "paper": check.paper_side(state["recorded"]),
        "open_loop": phase_a,
    }


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def _service(config) -> AdmissionService:
    return AdmissionService(
        config, clock=WallClock(), budget_ms=5.0, series_wall_interval=1.0
    )


def traced_replay(config, frames, recorder: SpanRecorder):
    """The service and gateway inside this process, wrapped; the client
    (:func:`bench.loadgen.replay_client`) in a child process, driven
    over its stdin/stdout.  Returns ``(payloads, client elapsed, service)``."""
    client = subprocess.Popen(
        [sys.executable, loadgen.__file__],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
    )

    def tell(message) -> None:
        pickle.dump(message, client.stdin)
        client.stdin.flush()

    async def body():
        service = _service(replace(config, telemetry=True))
        await service.start()
        gateway = WebSocketGateway(service, port=0)
        await gateway.start()
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(None, tell, frames)
            await loop.run_in_executor(None, pickle.load, client.stdout)
            with recorder.span("serve.replay"):
                tell(gateway.port)
                payloads, elapsed = await loop.run_in_executor(
                    None, pickle.load, client.stdout
                )
        finally:
            await gateway.stop()
            await service.stop()
        return payloads, elapsed, service

    try:
        with recorder.installed(layers.TABLE):
            return asyncio.run(body())
    finally:
        client.stdin.close()
        try:
            client.wait(timeout=30)
        except subprocess.TimeoutExpired:
            client.kill()
            client.wait()
        client.stdout.close()


def idle_ws_round_trip_us(state: dict) -> float:
    """One request at a time over the socket: median microseconds."""
    sock = loadgen.connect(state["child"].fresh_service())
    samples = []
    try:
        for frame in state["frames"][:IDLE_PROBE_EVENTS]:
            started = perf_counter()
            outcome = loadgen.saturate(sock, [frame])
            samples.append(outcome["reader"].times[-1] - started)
    finally:
        sock.close()
    return 1e6 * statistics.median(samples)


def in_process_probes(config, events) -> dict:
    """No socket: the asyncio hop and the bare driver, same events."""

    async def body():
        service = _service(config)
        await service.start()
        samples = []
        for event in events[:IDLE_PROBE_EVENTS]:
            started = perf_counter()
            await service.submit(event)
            samples.append(perf_counter() - started)
        await service.stop()
        service = _service(config)
        await service.start()
        started = perf_counter()
        for index in range(0, len(events), 512):
            await service.submit_many(events[index : index + 512])
        elapsed = perf_counter() - started
        await service.stop()
        return samples, elapsed

    round_trips, batched = asyncio.run(body())
    driver = StreamDriver(config)
    direct = []
    for event in events[:IDLE_PROBE_EVENTS]:
        started = perf_counter()
        driver.apply(event)
        direct.append(perf_counter() - started)
    round_trip_us = 1e6 * statistics.median(round_trips)
    return {
        "round_trip_us": round_trip_us,
        "serve.queue_wait_us": round_trip_us - 1e6 * statistics.median(direct),
        "serve.inproc_decisions_per_s": _decisions(events) / batched,
    }


def trace(state: dict, seconds: float, pin) -> dict:
    """Reference phases against the child, then the wrapped in-process
    replay, then the socket-free probes."""
    sizes = state["scale"]
    phase_a = open_loop_phase(state, seconds * 0.2)
    phase_b = saturation_phase(state, seconds * 0.1, min(2, sizes.min_repeats))
    idle_ws_us = idle_ws_round_trip_us(state)

    count = min(len(state["events"]), sizes.serve_pass_events)
    events = state["events"][:count]
    recorder = SpanRecorder()
    payloads, elapsed, service = traced_replay(
        state["config"], state["frames"][:count], recorder
    )
    traced_failed = loadgen.check_replies(events, payloads)
    probes = in_process_probes(state["config"], events)

    result = service.driver.result()
    root = recorder.roots("serve.replay")[0]
    fired = service.driver.engine.events_processed
    loop_us = bare_event_us()
    extras = {
        "events": fired,
        "serve.queue_wait_us": probes["serve.queue_wait_us"],
        "serve.inproc_decisions_per_s": probes["serve.inproc_decisions_per_s"],
        "ws.front_us": idle_ws_us - probes["round_trip_us"],
        "serve.latency_p50_ms": phase_a["p50_ms"],
        "serve.latency_p90_ms": phase_a["p90_ms"],
        "serve.latency_p99_ms": phase_a["p99_ms"],
        "serve.latency_max_ms": phase_a["max_ms"],
        "serve.stall_windows": phase_a["stall_windows"],
        "serve.within_10ms_share": phase_a["within_10ms_share"],
        "serve.generator_late_p99_ms": phase_a["generator_late_p99_ms"],
        "serve.achieved_over_offered": phase_a["achieved_over_offered"],
        "serve.ignored": service.driver.ignored,
        "obs.trace_overhead_frac": 1.0 - (count / elapsed) / phase_b["events_per_s"],
        "obs.samples": len(result.timeseries or ()),
    }
    report = {
        "attempted": phase_a["attempted"] + phase_b["attempted"] + count,
        "failed": phase_a["failed"]
        + phase_b["failed"]
        + traced_failed
        + _stream_failures(state, pin),
        "metrics": {},
        "errors": [],
        "digest": state["digest"],
        "paper": check.paper_side(state["recorded"]),
        "open_loop": phase_a,
        "layer_metrics": layers.layer_metrics([root], "serve", result, loop_us, extras),
        "layer_table": layers.layer_self_times(
            root, "serve", layers.split_dispatch(root, fired, loop_us)
        ),
        "root_s": root["duration"],
        "recorder": recorder,
    }
    return report
