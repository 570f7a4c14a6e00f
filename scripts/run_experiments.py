#!/usr/bin/env python
"""Run the full reproduction suite and record rendered outputs.

Writes one text file per experiment under ``results/``.  This is the
recorded-scale run behind EXPERIMENTS.md, whose every ✓ is checked
against the written files by ``tests/experiments/test_claims.py``; the
tier-1 structure tests run the same code CI-sized.

Usage:  python scripts/run_experiments.py [--workers N] [experiment-id ...]
        python scripts/run_experiments.py --check [--workers N]

``--check`` writes nothing under ``results/``: it regenerates the files
into a temporary directory, compares each byte for byte with the
committed one, runs the paper-check predicates, and exits 1 on any
difference or failure.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.obs import configure_logging, ensure_configured

#: Experiments whose runners accept a ``workers`` process-pool argument.
PARALLEL_EXPERIMENTS = {"fig7", "fig8+9", "fig12+13"}

#: Recorded-scale parameters per experiment (paper-comparable horizons).
SCALES: dict[str, dict[str, object]] = {
    "fig7": {"duration": 2000.0},
    "fig8+9": {"duration": 2000.0},
    "fig10+11": {"duration": 2000.0},
    "fig12+13": {"duration": 2000.0},
    "fig14": {"time_compression": 12.0},
    "table2": {"duration": 2000.0},
    "table3": {"duration": 2000.0},
    "ablation-window-steps": {"duration": 1500.0},
    "ablation-estimator-depth": {"duration": 1500.0},
    "ablation-signaling": {"duration": 800.0},
    "ablation-hex2d": {"duration": 1500.0},
    "ablation-cdma": {"duration": 1500.0},
    "ablation-wired": {"duration": 1200.0},
    "comparison-ns": {"duration": 600.0},
}


ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"
CLAIMS = ROOT / "tests" / "experiments" / "test_claims.py"


def run(
    names: list[str], workers: int | None, results_dir: Path
) -> list[Path]:
    """Run ``names`` at recorded scale; returns the files written."""
    results_dir.mkdir(exist_ok=True)
    written = []
    for name in names:
        kwargs = dict(SCALES.get(name, {}))
        if workers is not None and name in PARALLEL_EXPERIMENTS:
            kwargs["workers"] = workers
        started = time.perf_counter()
        print(f"[{time.strftime('%H:%M:%S')}] running {name} {kwargs} ...",
              flush=True)
        outputs = run_experiment(name, **kwargs)
        elapsed = time.perf_counter() - started
        for output in outputs:
            rendered = output.render()
            path = results_dir / f"{output.experiment_id}.txt"
            path.write_text(rendered + "\n")
            written.append(path)
            print(f"  wrote {path} ({elapsed:.1f}s total for {name})",
                  flush=True)
    return written


def check(names: list[str], workers: int | None, full: bool) -> int:
    """Regenerate into a scratch directory and compare with ``results/``.

    With ``full`` (no experiment named) every committed file must be
    regenerated, and nothing else.  Then the paper-check predicates run
    over the committed files.  Returns the exit status.
    """
    failures = []
    identical = 0
    with tempfile.TemporaryDirectory() as scratch:
        written = run(names, workers, Path(scratch))
        fresh = {path.name: path for path in written}
        committed = {path.name for path in RESULTS.glob("*.txt")}
        if full:
            failures += [f"not regenerated: results/{name}"
                         for name in sorted(committed - set(fresh))]
        for name, path in sorted(fresh.items()):
            if name not in committed:
                failures.append(f"not committed: results/{name}")
            elif path.read_bytes() != (RESULTS / name).read_bytes():
                failures.append(f"differs: results/{name}")
            else:
                identical += 1
        print(f"compared {len(fresh)} regenerated files with results/:"
              f" {identical} byte-identical")
    claims = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(CLAIMS)],
        cwd=ROOT,
    )
    if claims.returncode:
        failures.append(f"{CLAIMS.relative_to(ROOT)} failed")
    for failure in failures:
        print(f"check: {failure}")
    print("check: OK" if not failures else "check: FAILED")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("names", nargs="*", metavar="experiment-id",
                        help="experiments to run (default: all)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="process-pool size for the sweep experiments"
                        " (results are unchanged, only faster)")
    parser.add_argument("--check", action="store_true",
                        help="regenerate into a temporary directory, diff"
                        " byte for byte against results/, run the paper"
                        " check; exit 1 on any difference")
    parser.add_argument("--log-level", default=None, metavar="SPEC",
                        help="log level spec, e.g. 'info' or"
                        " 'info,experiments=debug' (also: REPRO_LOG)")
    parser.add_argument("--log-json", action="store_true",
                        help="emit logs as JSON lines (also:"
                        " REPRO_LOG_JSON=1)")
    args = parser.parse_args(argv)
    if args.log_level is not None or args.log_json:
        configure_logging(spec=args.log_level, json_lines=args.log_json)
    else:
        ensure_configured()
    names = args.names or list(EXPERIMENTS)
    if args.check:
        return check(names, args.workers, full=not args.names)
    run(names, args.workers, RESULTS)
    print("done")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
