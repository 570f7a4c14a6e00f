#!/usr/bin/env python
"""CI smoke check of the observability layer.

Runs one short telemetry-enabled scenario through the CLI (JSON logs
on), then asserts that the Prometheus export parses and that the key
series — events fired/rate, Eq. 4 kernel dispatch counts, estimation
snapshot hits — are present and non-zero.  A second section runs a
2-shard spatial city with streaming sampling and epoch tracing on and
asserts the JSONL stream is well-formed with per-shard rows and the
Chrome trace contains the barrier-phase spans.  Exercised by
``scripts/ci.sh``; runnable standalone::

    PYTHONPATH=src python scripts/telemetry_smoke.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from repro.cli import main as cli_main
from repro.obs import parse_prometheus, span_names

#: Series that must exist with a strictly positive value.
REQUIRED_NONZERO = (
    "repro_des_events_fired",
    "repro_des_events_per_sec",
    'repro_estimation_snapshot{outcome="hit"}',
    "repro_cellular_reservation_updates",
    "repro_window_handoffs",
)


def check_streaming(tmp: Path) -> list[str]:
    """2-shard spatial run: JSONL stream + barrier-phase trace spans."""
    series_path = tmp / "stream.jsonl"
    trace_path = tmp / "trace.json"
    exit_code = cli_main(
        [
            "run",
            "--shards", "2",
            "--hex", "6x6",
            "--duration", "60",
            "--load", "150",
            "--seed", "5",
            "--series", "5",
            "--series-out", str(series_path),
            "--trace-out", str(trace_path),
            "--log-level", "warning",
        ]
    )
    if exit_code != 0:
        return [f"spatial streaming run exited {exit_code}"]
    problems = []
    rows = []
    for line in series_path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:
            problems.append(f"malformed JSONL line: {line[:60]!r}")
    if not rows:
        problems.append("series stream is empty")
    shards_seen = {
        row["shard"] for row in rows if row.get("shard") is not None
    }
    if shards_seen != {0, 1}:
        problems.append(f"expected rows from shards 0 and 1, saw"
                        f" {sorted(shards_seen)}")
    if not any("events_per_s" in row for row in rows):
        problems.append("no events_per_s in any series row")
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    events = trace.get("traceEvents", [])
    names = span_names(events)
    barrier_spans = {
        name for name in names if name.startswith(("barrier.", "epoch."))
    }
    if len(barrier_spans) < 3:
        problems.append(
            f"expected >= 3 distinct barrier-phase span names, got"
            f" {sorted(barrier_spans)}"
        )
    if not problems:
        print(
            f"streaming smoke OK: {len(rows)} samples from"
            f" {len(shards_seen)} shards, {len(events)} trace events,"
            f" spans: {', '.join(sorted(names))}"
        )
    return problems


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        prom_path = Path(tmp) / "smoke.prom"
        json_path = Path(tmp) / "smoke.json"
        exit_code = cli_main(
            [
                "run",
                "--duration", "120",
                "--load", "200",
                "--seed", "5",
                "--telemetry",
                "--log-json",
                "--log-level", "warning",
                "--prom-out", str(prom_path),
                "--telemetry-json", str(json_path),
            ]
        )
        if exit_code != 0:
            print(f"FAIL: CLI run exited {exit_code}", file=sys.stderr)
            return 1
        series = parse_prometheus(prom_path.read_text(encoding="utf-8"))
        problems = []
        for name in REQUIRED_NONZERO:
            value = series.get(name)
            if value is None:
                problems.append(f"missing series {name}")
            elif value <= 0:
                problems.append(f"series {name} is {value}, expected > 0")
        # The Eq. 4 dispatch counters split by path; at least one side
        # must have seen batches.
        dispatched = sum(
            value
            for key, value in series.items()
            if key.startswith("repro_estimation_eq4_batches")
        )
        if dispatched <= 0:
            problems.append("no Eq. 4 batches dispatched")
        if not json_path.exists():
            problems.append("telemetry JSON snapshot not written")
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}", file=sys.stderr)
            return 1
        print(
            f"telemetry smoke OK: {len(series)} series,"
            f" {series['repro_des_events_fired']:.0f} events,"
            f" {dispatched:.0f} Eq. 4 batches"
        )
        problems = check_streaming(Path(tmp))
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}", file=sys.stderr)
            return 1
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
