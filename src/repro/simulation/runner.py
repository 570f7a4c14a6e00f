"""Sweep runner: execute batches of configurations and collect results.

The evaluation figures are parameter sweeps (offered load x voice ratio
x mobility x scheme).  :func:`run_sweep` executes a list of configs and
returns results in order; :func:`sweep_offered_load` builds the standard
load axis used throughout §5.2.

Both accept ``workers=N`` to farm the configurations out to a
*persistent* process pool (see :class:`SimulationPool`): workers are
forked once per ``(pid, size)`` and reused across sweeps, so repeated
calls — the replication runner, experiment sweeps, notebooks — pay the
interpreter start-up once instead of per call.  Each configuration
carries its own seed and every simulator is fully self-contained, so the
parallel results are identical to the sequential ones, in the same order
— only the wall clock differs.

Worker failures surface as :class:`SweepWorkerError` carrying the
*original* remote traceback (a bare ``BrokenProcessPool`` tells you
nothing about which config died or why); outstanding futures are
cancelled so a failing sweep stops early instead of burning the rest of
the batch.
"""

from __future__ import annotations

import atexit
import math
import os
import traceback
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Sequence

from repro.simulation.config import SimulationConfig
from repro.simulation.metrics import SimulationResult
from repro.simulation.simulator import CellularSimulator

#: The offered-load axis used by Figures 7-9 and 12-13.
DEFAULT_LOAD_AXIS = (60.0, 100.0, 150.0, 200.0, 250.0, 300.0)


class SweepWorkerError(RuntimeError):
    """A sweep worker failed; carries the remote traceback.

    Attributes
    ----------
    config:
        The configuration whose run raised (``None`` when the failure
        could not be attributed, e.g. a worker killed by a signal).
    remote_traceback:
        The worker-side formatted traceback, or a diagnostic string for
        non-Python deaths.
    """

    def __init__(
        self,
        message: str,
        config: SimulationConfig | None = None,
        remote_traceback: str = "",
    ) -> None:
        super().__init__(message)
        self.config = config
        self.remote_traceback = remote_traceback


class _RemoteFailure:
    """Picklable marker a worker returns in place of a result."""

    __slots__ = ("offset", "formatted")

    def __init__(self, offset: int, formatted: str) -> None:
        #: Index of the failing config *within its chunk*.
        self.offset = offset
        self.formatted = formatted


def _run_config(config: SimulationConfig) -> SimulationResult:
    """Run one configuration (module-level so process pools can pickle it)."""
    return CellularSimulator(config).run()


def _run_chunk(chunk: list[SimulationConfig]):
    """Run a contiguous chunk of configs inside a worker.

    Exceptions do not propagate as pickled exception objects (custom
    exceptions may not unpickle, and the parent-side traceback would
    point here rather than at the real frame); instead the worker
    converts the failure into a :class:`_RemoteFailure` marker carrying
    the formatted remote traceback and stops the chunk.
    """
    results: list = []
    for offset, config in enumerate(chunk):
        try:
            results.append(_run_config(config))
        except BaseException:
            results.append(_RemoteFailure(offset, traceback.format_exc()))
            break
    return results


class SimulationPool:
    """A persistent process pool for simulation sweeps.

    A thin, restartable wrapper over :class:`ProcessPoolExecutor` that
    (a) keeps its workers alive between :meth:`map_configs` calls,
    (b) schedules contiguous chunks to amortise task dispatch, and
    (c) converts worker failures into :class:`SweepWorkerError` with the
    remote traceback, cancelling whatever has not started yet.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.workers = workers
        self._executor: ProcessPoolExecutor | None = None

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    def map_configs(
        self, configs: Sequence[SimulationConfig]
    ) -> list[SimulationResult]:
        """Run every config on the pool; results in input order.

        Raises :class:`SweepWorkerError` on the first failing config,
        after cancelling all not-yet-started chunks.
        """
        configs = list(configs)
        if not configs:
            return []
        executor = self._ensure_executor()
        # ~4 chunks per worker: large enough to amortise dispatch,
        # small enough to keep the pool busy under uneven run times.
        chunk_size = max(
            1, math.ceil(len(configs) / (self.workers * 4))
        )
        chunks = [
            configs[start:start + chunk_size]
            for start in range(0, len(configs), chunk_size)
        ]
        futures: list[Future] = [
            executor.submit(_run_chunk, chunk) for chunk in chunks
        ]
        results: list[SimulationResult] = []
        try:
            for chunk, future in zip(chunks, futures):
                try:
                    chunk_results = future.result()
                except BrokenProcessPool as error:
                    # The worker died without returning (segfault, OOM
                    # kill, interpreter abort): no remote traceback
                    # survived, and the exact config within the chunk
                    # is unknowable — attribute to the chunk's first.
                    config = chunk[0]
                    self._reset()
                    raise SweepWorkerError(
                        "sweep worker died while running a chunk starting"
                        f" at {_describe(config)}: {error}",
                        config=config,
                        remote_traceback=f"{type(error).__name__}: {error}",
                    ) from error
                for item in chunk_results:
                    if isinstance(item, _RemoteFailure):
                        config = chunk[item.offset]
                        raise SweepWorkerError(
                            f"sweep worker failed on {_describe(config)}\n"
                            "--- remote traceback ---\n"
                            f"{item.formatted}",
                            config=config,
                            remote_traceback=item.formatted,
                        )
                    results.append(item)
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        return results

    def _reset(self) -> None:
        """Drop a broken executor so the next call starts a fresh one."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the workers down.  Idempotent."""
        self._reset()

    def __enter__(self) -> "SimulationPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _describe(config: SimulationConfig) -> str:
    label = config.label or config.scheme
    return (
        f"config(label={label!r}, load={config.offered_load},"
        f" seed={config.seed})"
    )


#: Process-wide persistent pools, one per worker count.  Keyed by pid so
#: a fork (e.g. a pool worker importing this module) never inherits the
#: parent's executor handles as its own.
_SHARED_POOLS: dict[tuple[int, int], SimulationPool] = {}


def shared_pool(workers: int) -> SimulationPool:
    """The process-wide persistent :class:`SimulationPool` of this size.

    Created on first use and kept warm until interpreter exit, so
    back-to-back sweeps (replication runs, benchmarks) reuse the same
    worker processes.
    """
    key = (os.getpid(), workers)
    pool = _SHARED_POOLS.get(key)
    if pool is None:
        pool = _SHARED_POOLS[key] = SimulationPool(workers)
    return pool


@atexit.register
def _close_shared_pools() -> None:  # pragma: no cover - interpreter exit
    for pool in _SHARED_POOLS.values():
        pool.close()
    _SHARED_POOLS.clear()


def run_sweep(
    configs: Iterable[SimulationConfig],
    progress: Callable[[SimulationConfig, SimulationResult], None]
    | None = None,
    workers: int | None = None,
    pool: SimulationPool | None = None,
) -> list[SimulationResult]:
    """Run every configuration and return all results in input order.

    Parameters
    ----------
    configs:
        The scenarios to run.  Each should carry its own ``seed``; the
        runner never re-seeds, so a sweep is reproducible regardless of
        execution order or parallelism.
    progress:
        Optional callback invoked per completed configuration.  With
        ``workers`` it fires after the pool drains, still in input
        order.
    workers:
        ``None`` or ``<= 1`` runs in-process.  ``N > 1`` uses the
        process-wide persistent pool of up to ``N`` workers (capped at
        the number of configs).
    pool:
        Explicit :class:`SimulationPool` to run on (overrides
        ``workers``); the caller keeps ownership.
    """
    configs = list(configs)
    if pool is None and workers is not None and workers > 1 and len(configs) > 1:
        pool = shared_pool(min(workers, len(configs)))
    if pool is not None and len(configs) > 1:
        results = pool.map_configs(configs)
        if progress is not None:
            for config, result in zip(configs, results):
                progress(config, result)
        return results
    results = []
    for config in configs:
        result = _run_config(config)
        results.append(result)
        if progress is not None:
            progress(config, result)
    return results


def sweep_offered_load(
    make_config: Callable[[float], SimulationConfig],
    loads: Sequence[float] = DEFAULT_LOAD_AXIS,
    progress: Callable[[SimulationConfig, SimulationResult], None]
    | None = None,
    workers: int | None = None,
) -> list[tuple[float, SimulationResult]]:
    """Sweep the offered-load axis with a config factory."""
    results = run_sweep(
        [make_config(load) for load in loads], progress, workers=workers
    )
    return list(zip(loads, results))
