#!/usr/bin/env python
"""CI smoke: back-to-back runs in one process leave no dead run behind.

Thirty smoke-scale ring runs (the benchmark's ring: load 200,
``R_vo = 0.8``, high mobility; AC3 for 60 s and static for 150 s,
alternating) run one after another in this process with the cycle
collector switched off, so a finished run is freed by reference
counting or not at all.  The peak resident set may settle over the
first runs (allocator pools, interned strings, lazily built tables) but
must then stay flat: the smoke exits 1 if ``ru_maxrss`` grows by more
than 2 MB between the end of run 10 and the end of run 30.  A run held
in a reference cycle (a queued bound method pointing back at its
simulator, a station pointing back at its network) keeps about 0.5 MB
per dropped run at this scale: code with those two cycles grew by
11.1 MB over the measured stretch, where this code grows by 0.0 MB.

Run from the repository root::

    PYTHONPATH=src python scripts/lifetime_smoke.py
"""

import gc
import resource
import sys

from repro.simulation.scenarios import stationary
from repro.simulation.simulator import CellularSimulator

RUNS = 30
#: The run after which the peak is taken as settled.
SETTLED_AFTER = 10
GROWTH_LIMIT_MB = 2.0


def ring(index: int):
    scheme, duration = ("AC3", 60.0) if index % 2 == 0 else ("static", 150.0)
    return stationary(
        scheme,
        offered_load=200,
        voice_ratio=0.8,
        high_mobility=True,
        duration=duration,
        seed=3,
    )


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    gc.disable()
    peaks = []
    for index in range(RUNS):
        CellularSimulator(ring(index)).run()
        peaks.append(peak_rss_mb())
    settled = peaks[SETTLED_AFTER - 1]
    growth = peaks[-1] - settled
    print(
        f"lifetime smoke: {RUNS} runs, peak RSS {peaks[0]:.1f} MB after run 1,"
        f" {settled:.1f} MB after run {SETTLED_AFTER},"
        f" {peaks[-1]:.1f} MB after run {RUNS} (+{growth:.1f} MB,"
        f" limit {GROWTH_LIMIT_MB:g} MB)"
    )
    if growth > GROWTH_LIMIT_MB:
        print(
            "lifetime smoke: FAILED — dropped runs stay resident without"
            " the cycle collector"
        )
        return 1
    print("lifetime smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
