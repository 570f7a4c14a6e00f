"""One command for every number: ``python3 bench/run.py --workload NAME --seed N``.

Prints each metric by name with its unit, checks the program's outputs,
and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 1`` is a second, separate kind of run that
reports the per-layer metrics instead of the end-to-end ones.

The harness drives ``repro`` through public functions only, pins the
numpy kernel, removes ``REPRO_*`` from the environment and leaves the
garbage collector alone: it measures what a user gets.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
for _name in [name for name in os.environ if name.startswith("REPRO_")]:
    del os.environ[_name]

#: Seconds one run measures for; ``BENCHMARK.json`` carries the same number.
RUN_SECONDS = 24
SMOKE_SECONDS = 2.0
DEFAULT_SEED = 3

#: (name, unit, better, bound).  Bounds are shares of the parent's median.
#: Every timed metric is in calibrated seconds (see bench/calibrate.py).
END_TO_END = (
    ("events_per_s", "1/s", "higher", 0.25),
    ("events_per_s_observed", "1/s", "higher", 0.25),
    ("decisions_per_s", "1/s", "higher", 0.25),
    ("decision_latency_p50_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

SCRATCH = ROOT / ".bench_tmp"


def _require_numpy() -> None:
    try:
        import numpy  # noqa: F401
    except ImportError:
        raise SystemExit(
            "bench: numpy is required (the harness pins kernel='numpy')"
        ) from None


def set_up(name: str, seed: int, scale: str):
    """Everything before the first timed operation.

    Batch workloads: imports, the scenario, one simulator build (the hex
    city's network is built inside the timed ``run_spatial`` call, as a
    user's would be).  Serving: record the stream, encode the frames,
    start the child, shake hands.
    """
    from bench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    if workload.config is None:
        from bench import servebench

        return workload, servebench.setup(seed, scale)
    config = workload.config(seed, scale)
    if workload.handler_layer == "simulation":
        workload.prepare(config)
    return workload, None


def probe_setup(name: str, seed: int, scale: str) -> float:
    """A fresh process does the set-up and reports how long it took, in
    calibrated seconds (it spins once right after its set-up)."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload",
        name,
        "--seed",
        str(seed),
    ]
    if scale == "smoke":
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def peak_rss_mb() -> float:
    """Largest resident set among this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def host_fingerprint() -> dict:
    import numpy

    from repro._kernel import kernel_name

    return {
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": kernel_name(),
        "machine": platform.machine(),
    }


def _show(name: str, value: float, unit: str) -> None:
    print(f"  {name:<34} {value:>16.6g} {unit}")


def _measured(workload, state, args, scale, seconds, pin, own_setup):
    """The end-to-end run: ``(report, metrics, spin seconds)``."""
    from bench import calibrate, simbench
    from bench.workloads import HEX_SHARDS

    # The hex city keeps one core per shard busy, so it is calibrated
    # with as many spins at once.  The calibrator is the harness's own
    # and starts after set-up has been timed.
    calibrator = calibrate.Calibrator(
        HEX_SHARDS if workload.handler_layer == "spatial" else 1
    )
    try:
        if state is not None:
            from bench import servebench

            report = servebench.measure(state, seconds, pin, calibrator)
        else:
            report = simbench.measure(
                workload, args.seed, scale, seconds, pin, calibrator
            )
    finally:
        calibrator.close()
    setups = [own_setup] + [
        probe_setup(workload.name, args.seed, scale)
        for _ in range(workload.setup_probes)
    ]
    metrics = dict(report["metrics"])
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return report, metrics, statistics.median(calibrator.samples)


def _traced(workload, state, args, scale, seconds, pin):
    """The per-layer run: ``(report, metrics, spin seconds)``; prints the
    layer table and writes the spans."""
    from bench import calibrate, simbench

    SCRATCH.mkdir(exist_ok=True)
    if state is not None:
        from bench import servebench

        report = servebench.trace(state, seconds, pin)
    else:
        report = simbench.trace(workload, args.seed, scale, seconds, pin, SCRATCH)
    spin_s = calibrate.spin()
    metrics = report["layer_metrics"]
    metrics["host.spin_ms"] = 1000.0 * spin_s
    root_s = report["root_s"]
    print(f"  layer self times under root '{workload.root}' ({root_s:.4f} s):")
    table = sorted(report["layer_table"].items(), key=lambda item: -item[1])
    for layer, self_s in table + [("sum", sum(report["layer_table"].values()))]:
        print(f"    {layer:<12} {self_s:>10.4f} s {100.0 * self_s / root_s:>6.1f} %")
    spans = SCRATCH / f"spans-{workload.name}.npz"
    report.pop("recorder").dump(spans)
    print(f"  spans written to {spans.relative_to(ROOT)}")
    return report, metrics, spin_s


def run_workload(args) -> int:
    _require_numpy()
    from bench import calibrate, check, layers

    scale = "smoke" if args.smoke else "full"
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else RUN_SECONDS)
    workload, state = set_up(args.workload, args.seed, scale)
    own_setup = time.perf_counter() - _PROCESS_START
    try:
        # One spin right after set-up turns it into calibrated seconds.
        own_setup *= calibrate.SPIN_REF_S / calibrate.spin()
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        print(
            f"workload {workload.name}  seed {args.seed}  {seconds:g} s"
            f"  trace {args.trace}"
        )
        if args.smoke:
            print("  SMOKE SCALE: numbers are not comparable with anything")
        print(f"  why: {workload.why}")
        pin = check.pinned(workload.name, args.seed, scale)
        if args.trace:
            report, metrics, spin_s = _traced(
                workload, state, args, scale, seconds, pin
            )
            units = {name: unit for name, unit, _better in layers.PER_LAYER}
        else:
            report, metrics, spin_s = _measured(
                workload, state, args, scale, seconds, pin, own_setup
            )
            units = {name: unit for name, unit, _better, _bound in END_TO_END}
    finally:
        if state is not None:
            from bench import servebench

            servebench.teardown(state)
    if set(metrics) != set(units):
        # No repeat completed: there is nothing to report.
        for error in report["errors"]:
            print(error, file=sys.stderr)
        return 1
    for name, unit in units.items():
        _show(name, metrics[name], unit)

    if not args.trace:
        print(
            f"  host: spin {1000.0 * spin_s:.1f} ms"
            f" (reference {1000.0 * calibrate.SPIN_REF_S:.0f} ms);"
            " timed metrics above are calibrated, raw values follow"
        )
        for name, value in report["raw"].items():
            _show(f"raw.{name}", value, "1/s")
        _show("repeats", report["repeats"], "count")
    failed, attempted = report["failed"], report["attempted"]
    correct = failed == 0
    _show("sim_fingerprint_ok", 1 if correct else 0, "0/1")
    _show("failed_share", failed / attempted, "ratio")
    for name, value in report.get("paper", {}).items():
        _show(f"paper.{name}", value, "")
    open_loop = report.get("open_loop")
    if open_loop:
        for name in (
            "p90_ms",
            "p99_ms",
            "max_ms",
            "stall_windows",
            "within_10ms_share",
            "generator_late_p99_ms",
            "achieved_over_offered",
        ):
            _show(f"open_loop.{name}", open_loop[name], "")
    if report.get("digest"):
        print(f"  digest {report['digest']}" + ("  (pinned)" if pin else ""))
    for error in report["errors"]:
        print(f"  ERROR {error.strip().splitlines()[-1]}", file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    if args.json:
        detail = dict(result)
        detail.update(
            workload=workload.name,
            seed=args.seed,
            seconds=seconds,
            scale=scale,
            trace=args.trace,
            claim=None,
            host=host_fingerprint(),
            spin_ms=1000.0 * spin_s,
            raw=report.get("raw"),
            digest=report.get("digest"),
            paper=report.get("paper"),
            open_loop=open_loop,
            layer_table=report.get("layer_table"),
        )
        Path(args.json).write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# --all and --sets: one fresh process per workload
# ----------------------------------------------------------------------
def _child_command(args, name: str, seed: int) -> list[str]:
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        name,
        "--seed",
        str(seed),
        "--trace",
        str(args.trace),
    ]
    if args.seconds:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    return command


def _selected(args) -> list[str]:
    from bench.workloads import WORKLOADS

    return [args.workload] if args.workload else list(WORKLOADS)


def run_all(args) -> int:
    status = 0
    for name in _selected(args):
        status |= subprocess.run(_child_command(args, name, args.seed)).returncode
    return status


def spread(values: list[float]) -> dict:
    """Median, quartiles, and the inter-quartile distance as a share of
    the median — the statistic the bounds are checked against."""
    low, _mid, high = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": low,
        "q3": high,
        "spread": (high - low) / median if median else float("nan"),
        "values": values,
    }


def run_sets(args) -> int:
    """``N`` whole sets, each on its own seed; per metric and workload the
    median, quartiles and spread, with the host they were taken on."""
    names = _selected(args)
    collected: dict[str, dict[str, list[float]]] = {name: {} for name in names}
    status = 0
    host_before = host_fingerprint()
    for index in range(args.sets):
        for name in names:
            done = subprocess.run(
                _child_command(args, name, args.seed + index),
                capture_output=True,
                text=True,
            )
            status |= done.returncode
            print(done.stdout, end="", flush=True)
            try:
                result = json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                print(f"set {index} {name}: no result\n{done.stderr}", file=sys.stderr)
                status |= 1
                continue
            if not result["correct"]:
                status |= 1
            for metric, entry in result["metrics"].items():
                collected[name].setdefault(metric, []).append(entry["value"])
    summary = {
        "sets": args.sets,
        "first_seed": args.seed,
        "trace": args.trace,
        "scale": "smoke" if args.smoke else "full",
        "claim": None,
        "host_before": host_before,
        "host_after": host_fingerprint(),
        "workloads": {},
    }
    for name in names:
        print(f"{name}:")
        summary["workloads"][name] = {}
        for metric, values in collected[name].items():
            if len(values) < 2:  # one set: keep the values, no spread
                summary["workloads"][name][metric] = {"values": values}
                print(f"  {metric:<34} {values[0]:>14.6g}")
                continue
            stats = spread(values)
            summary["workloads"][name][metric] = stats
            print(
                f"  {metric:<34} median {stats['median']:>14.6g}"
                f"  q1 {stats['q1']:>14.6g}  q3 {stats['q3']:>14.6g}"
                f"  spread {stats['spread']:.4f}"
            )
    print(f"host: {json.dumps(summary['host_after'])}")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the four workload names")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=0.0, help=f"default {RUN_SECONDS}"
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="1: per-layer metrics from a wrapped run instead of end-to-end ones",
    )
    parser.add_argument("--json", metavar="OUT", help="also write the details here")
    parser.add_argument("--all", action="store_true", help="every workload, one process each")
    parser.add_argument("--sets", type=int, default=0, metavar="N")
    parser.add_argument("--smoke", action="store_true", help="tiny, non-comparable")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.sets:
        return run_sets(args)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload NAME, --all or --sets N is required")
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}")
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
