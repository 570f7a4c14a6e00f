"""Host-speed calibration: a fixed spin run beside every timed repeat.

The hosts this benchmark runs on are shared: the same code is tens of
percent slower for minutes at a time, CPU time slows with wall time, and
no quantile of a window is steadier than its median.  What does repeat is
the *ratio* of a repeat's time to a fixed piece of work run right before
and after it.  Every timed repeat is therefore bracketed by ``spin()``,
and its time is scaled to what it would be on a host where the spin takes
``SPIN_REF_S``::

    calibrated = measured * SPIN_REF_S / mean(spin before, spin after)

The spin is interpreter work (heap, dict, float arithmetic) plus small
numpy calls, the two things the program's time is made of; a pure
interpreter spin tracked the static ring well and the AC3 ring poorly.
It lives here, in ``bench/``, so no change to the program can move it.

A workload that keeps several cores busy (the sharded hex city) is
calibrated with as many spins running at once, in worker processes: a
single spin did not follow its slow periods.
"""

from __future__ import annotations

import heapq
import subprocess
import sys
from time import perf_counter

import numpy as np

#: Spin time on the reference host, in seconds.  Only a scale: calibrated
#: numbers read like numbers measured on a quiet day of the host this was
#: sized on.
SPIN_REF_S = 0.040

_RNG = np.random.default_rng(1)
_SORTED = [np.sort(_RNG.random(120)) for _ in range(64)]
_PROBES = [_RNG.random(40) for _ in range(64)]


def spin() -> float:
    """Seconds this host needs for the fixed work, right now."""
    started = perf_counter()
    # Floats and small ints only: nothing here is tracked by the garbage
    # collector, so the spin never triggers a collection whose cost would
    # depend on how many objects the benchmark process holds.
    heap: list = []
    slots: dict = {}
    x = 0.5
    for i in range(80000):
        x = (x * 1.000001 + 0.1) % 7.0
        heapq.heappush(heap, x)
        slots[i & 1023] = x
        if i & 1:
            heapq.heappop(heap)
    total = 0.0
    for i in range(2400):
        column = _SORTED[i & 63]
        probes = _PROBES[(i * 7) & 63]
        picked = column[np.searchsorted(column, probes) % 120]
        joined = np.concatenate((picked, probes))
        total += float(np.add.reduce(joined[joined > 0.5]))
        total += float((joined * probes.mean()).sum())
    return perf_counter() - started


def _spin_worker() -> None:
    """A worker process: one spin per line read, until end of input."""
    for _line in sys.stdin:
        sys.stdout.write(f"{spin()!r}\n")
        sys.stdout.flush()


class Calibrator:
    """``sample()`` spins on ``parallel`` cores at once and returns the
    slowest spin; with ``parallel=1`` it spins in this process.

    The workers are plain child processes running this file, driven over
    their stdin/stdout: ``multiprocessing``'s spawn context would start a
    resource-tracker helper that outlives the benchmark process.
    """

    def __init__(self, parallel: int = 1) -> None:
        self._workers: list[subprocess.Popen] = []
        #: Every spin of the run, for the run-level host-speed figure.
        self.samples: list[float] = []
        if parallel > 1:
            try:
                for _ in range(parallel):
                    self._workers.append(
                        subprocess.Popen(
                            [sys.executable, __file__],
                            stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE,
                            text=True,
                        )
                    )
                self.sample()  # the first call pays the workers' imports
            except BaseException:
                self.close()
                raise
            self.samples.clear()

    def sample(self) -> float:
        if self._workers:
            for worker in self._workers:
                worker.stdin.write("spin\n")
                worker.stdin.flush()
            value = max(float(worker.stdout.readline()) for worker in self._workers)
        else:
            value = spin()
        self.samples.append(value)
        return value

    def close(self) -> None:
        """End of input stops a worker; every one is waited for."""
        for worker in self._workers:
            try:
                worker.stdin.close()
            except OSError:
                pass
        for worker in self._workers:
            try:
                worker.wait(timeout=10)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
            worker.stdout.close()
        self._workers = []


def scale(before: float, after: float) -> float:
    """Factor that turns a measured duration into a calibrated one."""
    return SPIN_REF_S / ((before + after) / 2.0)


if __name__ == "__main__":
    _spin_worker()
