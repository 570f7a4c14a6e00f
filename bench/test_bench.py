"""Tests of the benchmark harness itself, at ``--smoke`` scale.

Outside tier-1's ``testpaths``; run with
``python -m pytest bench/test_bench.py -q`` from the repository root.
"""

from __future__ import annotations

import json
import re
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.serve.ws import encode_frame  # noqa: E402

from bench import calibrate, check, layers, loadgen, run, tracing  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def session_members(session: int) -> list[str]:
    """Command lines of the live processes in ``session`` (Linux /proc)."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            # pid (comm) state ppid pgrp session ...; comm may hold spaces.
            fields = (entry / "stat").read_text().rpartition(")")[2].split()
            if int(fields[3]) == session and fields[0] != "Z":
                members.append((entry / "cmdline").read_text().replace("\0", " "))
        except (OSError, ValueError, IndexError):
            continue  # the process ended while we looked
    return members


def run_cli(*arguments: str) -> tuple[int, dict]:
    """Run the harness in a session of its own; nothing it started may
    be alive once it has exited."""
    done = subprocess.Popen(
        [sys.executable, str(ROOT / "bench" / "run.py"), *arguments],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    output, _errors = done.communicate(timeout=170)
    assert session_members(done.pid) == [], "a process outlived the benchmark"
    return done.returncode, json.loads(output.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# the declaration and the code agree
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_harness():
    assert set(DECLARED) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert DECLARED["run_seconds"] == run.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in DECLARED["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in DECLARED["end_to_end"]
    ] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]] == list(
        layers.PER_LAYER
    )


def test_names_units_and_limits():
    names = [entry["name"] for entry in DECLARED["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        for metric in DECLARED[kind]:
            names.append(metric["name"])
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower")
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(entry["why"]) <= 200 for entry in DECLARED["workloads"])
    assert all(0 <= m["bound"] <= 0.25 for m in DECLARED["end_to_end"])
    assert any(
        (m["name"], m["unit"], m["better"]) == ("setup_s", "s", "lower")
        for m in DECLARED["end_to_end"]
    )


# ----------------------------------------------------------------------
# every declared metric is printed, by both kinds of run
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_end_to_end_metric_is_printed(workload):
    status, result = run_cli("--workload", workload, "--smoke", "--trace", "0")
    assert status == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in DECLARED["end_to_end"]]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_per_layer_metric_is_printed(workload):
    status, result = run_cli("--workload", workload, "--smoke", "--trace", "1")
    assert status == 0 and result["correct"]
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert list(values) == [m["name"] for m in DECLARED["per_layer"]]
    # The bypass predictions: no flush work without the estimator, and
    # no layer's spans outside the workload that uses it.
    if workload in ("ring_static", "serve_static_ws"):
        assert values["cellular.flush_tick_calls"] == 0
        assert values["kernel.resolve_calls"] == 0
    if workload == "ring_ac3":
        assert values["cellular.flush_tick_calls"] > 0
        assert values["state.bytes"] > 0
    if workload != "hex_city":
        assert values["spatial.run_epoch_s"] == 0
    if workload != "serve_static_ws":
        assert values["serve.driver_flush_s"] == 0
    else:
        assert values["serve.achieved_over_offered"] >= 0.99
    assert values["trace.root_s"] > 0


# ----------------------------------------------------------------------
# wrappers leave nothing behind
# ----------------------------------------------------------------------
def _current():
    return [vars(owner)[name] for owner, name in map(tracing.resolve, _targets())]


def _targets():
    return [entry.target for entry in layers.TABLE]


def test_wrappers_are_fully_removed():
    before = _current()
    recorder = tracing.SpanRecorder()
    with pytest.raises(RuntimeError):
        with recorder.installed(layers.TABLE):
            during = _current()
            assert all(
                new is not old and new.__wrapped__ is old
                for new, old in zip(during, before)
            )
            raise RuntimeError("a traced run that blows up")
    assert all(new is old for new, old in zip(_current(), before))


def test_self_times_add_up_to_the_root():
    recorder = tracing.SpanRecorder()

    def leaf():
        sum(range(2000))

    inner = recorder.wrap("des.schedule", leaf)

    def middle():
        inner()
        inner()

    outer = recorder.wrap("core.admit_new", middle)
    with recorder.span("serve.replay"):
        outer()
        inner()
    (root,) = recorder.roots("serve.replay")
    assert root["by_alias"]["des.schedule"][0] == 3
    selfs = sum(entry[2] for entry in root["by_alias"].values())
    assert selfs == pytest.approx(root["duration"], rel=1e-9)
    table = layers.layer_self_times(root, "serve", 0.0)
    assert sum(table.values()) == pytest.approx(root["duration"], rel=1e-9)


# ----------------------------------------------------------------------
# the open-loop generator
# ----------------------------------------------------------------------
def _echo_server(sock: socket.socket, count: int, first_reply_delay: float) -> None:
    """Answers each 2-byte-payload client frame with a short text frame."""
    import time

    frame_size = len(encode_frame(b"hi", mask=True))
    reply = encode_frame(b'{"op":"ok"}')
    pending = b""
    answered = 0
    while answered < count:
        data = sock.recv(65536)
        if not data:
            return
        pending += data
        while len(pending) >= frame_size:
            pending = pending[frame_size:]
            if answered == 0:
                time.sleep(first_reply_delay)
            sock.sendall(reply)
            answered += 1


def _drive(count: int, due: list[float], first_reply_delay: float) -> dict:
    client, server = socket.socketpair()
    thread = threading.Thread(
        target=_echo_server, args=(server, count, first_reply_delay), daemon=True
    )
    thread.start()
    try:
        frames = [encode_frame(b"hi", mask=True) for _ in range(count)]
        timeline = loadgen.open_loop(client, frames, due)
    finally:
        thread.join(timeout=10)
        client.close()
        server.close()
    assert not thread.is_alive()
    assert len(timeline["reader"].payloads) == count
    return timeline


def test_open_loop_keeps_its_schedule_and_times_from_due():
    count, gap, stall = 50, 0.002, 0.08
    timeline = _drive(count, [index * gap for index in range(count)], stall)
    report = loadgen.latency_report(timeline, 1.0 / gap)
    lateness = [s - d for s, d in zip(timeline["sent"], timeline["due"])]
    # The service stalled for 80 ms; the generator did not wait for it.
    assert max(lateness) < stall / 2
    # Requests due during the stall waited for it, counted from due time.
    first = (timeline["reader"].times[0] - timeline["due"][0]) * 1000.0
    assert first >= stall * 1000.0
    assert report["latencies_ms"][-1] >= stall * 1000.0
    assert report["achieved_over_offered"] == pytest.approx(1.0, abs=0.05)


def test_open_loop_reports_lateness_when_the_sender_is_starved():
    # Everything due at once: the sender cannot keep up by construction.
    count = 3000
    timeline = _drive(count, [0.0] * count, 0.0)
    report = loadgen.latency_report(timeline, 1e9)
    assert loadgen.percentile(report["lateness_ms"], 0.99) > 0
    last = count - 1
    from_due = (timeline["reader"].times[last] - timeline["due"][last]) * 1000.0
    from_send = (timeline["reader"].times[last] - timeline["sent"][last]) * 1000.0
    assert report["latencies_ms"][-1] >= from_due > from_send


def test_calibration_scales_to_the_reference_spin():
    assert calibrate.scale(calibrate.SPIN_REF_S, calibrate.SPIN_REF_S) == 1.0
    # A host that needs twice as long for the spin halves every duration.
    assert calibrate.scale(
        2 * calibrate.SPIN_REF_S, 2 * calibrate.SPIN_REF_S
    ) == pytest.approx(0.5)
    calibrator = calibrate.Calibrator(parallel=2)
    try:
        assert calibrator.sample() > 0
        assert len(calibrator.samples) == 1
    finally:
        calibrator.close()
    assert not calibrator._workers


# ----------------------------------------------------------------------
# a wrong fingerprint fails the run
# ----------------------------------------------------------------------
def test_forced_digest_mismatch_fails(monkeypatch, capsys):
    monkeypatch.setattr(check, "pinned", lambda *_: {"digest": "0" * 64})
    status = run.main(["--workload", "ring_static", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_wrong_digest_counting():
    assert check.wrong_digests(["a", "a", "a"], None) == 0
    assert check.wrong_digests(["a", "b", None], None) == 2
    assert check.wrong_digests(["a", "a"], {"digest": "b"}) == 2
