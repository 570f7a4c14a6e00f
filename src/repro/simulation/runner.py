"""Sweep runner: execute batches of configurations and collect results.

The evaluation figures are parameter sweeps (offered load x voice ratio
x mobility x scheme).  :func:`run_sweep` executes a list of configs and
returns results in order; :func:`sweep_offered_load` builds the standard
load axis used throughout §5.2.

Both accept ``workers=N`` to farm the configurations out to worker
processes: one :class:`~concurrent.futures.ProcessPoolExecutor` per
sweep, created by the call and joined before it returns or raises, so
no worker outlives the sweep that started it.  Each configuration
carries its own seed and every simulator is fully self-contained, so the
parallel results are identical to the sequential ones, in the same order
— only the wall clock differs.

Worker failures surface as :class:`SweepWorkerError` carrying the
*original* remote traceback (a bare ``BrokenProcessPool`` tells you
nothing about which config died or why); configurations that have not
started are cancelled so a failing sweep stops early instead of burning
the rest of the batch.
"""

from __future__ import annotations

import multiprocessing
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
        The configuration whose run raised.  A worker killed outright
        (signal, ``os._exit``, OOM) leaves no record of what it held;
        the error then names the earliest unfinished configuration.
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


def process_context():
    """Fork where the platform has it, else spawn.

    Fork lets workers inherit the warm interpreter instead of
    re-importing numpy apiece, which otherwise dominates short runs.
    Every worker builds its simulator from the pickled config, so the
    start method never affects results.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _run_config(config: SimulationConfig) -> SimulationResult:
    """Run one configuration (module-level so worker processes can pickle it)."""
    return CellularSimulator(config).run()


def _describe(config: SimulationConfig) -> str:
    label = config.label or config.scheme
    return (
        f"config(label={label!r}, load={config.offered_load},"
        f" seed={config.seed})"
    )


def _outcome(config: SimulationConfig, future: Future) -> SimulationResult:
    """``future``'s result, or a :class:`SweepWorkerError` naming ``config``."""
    try:
        return future.result()
    except BrokenProcessPool as error:
        raise SweepWorkerError(
            f"sweep worker died while running {_describe(config)}"
            f" or a config beside it: {error}",
            config=config,
            remote_traceback=f"{type(error).__name__}: {error}",
        ) from error
    except Exception as error:
        # The executor re-raises the worker's exception with the remote
        # traceback text, fenced in triple quotes, attached as its cause.
        fenced = getattr(error.__cause__, "tb", "").strip()
        remote = fenced.removeprefix('"""').removesuffix('"""').strip()
        remote = remote or f"{type(error).__name__}: {error}"
        raise SweepWorkerError(
            f"sweep worker failed on {_describe(config)}\n"
            f"--- remote traceback ---\n{remote}",
            config=config,
            remote_traceback=remote,
        ) from error


def _run_parallel(
    configs: list[SimulationConfig], workers: int
) -> list[SimulationResult]:
    """One executor for this sweep: one future per config, joined here."""
    executor = ProcessPoolExecutor(workers, mp_context=process_context())
    try:
        futures = [executor.submit(_run_config, config) for config in configs]
        return [
            _outcome(config, future) for config, future in zip(configs, futures)
        ]
    finally:
        # Cancels what has not started, waits for what has.
        executor.shutdown(cancel_futures=True)


def run_sweep(
    configs: Iterable[SimulationConfig],
    progress: Callable[[SimulationConfig, SimulationResult], None]
    | None = None,
    workers: int | None = None,
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
        ``workers`` it fires after the workers are joined, still in
        input order.
    workers:
        ``None`` or ``<= 1`` runs in-process.  ``N > 1`` runs on up to
        ``N`` worker processes (capped at the number of configs).
    """
    configs = list(configs)
    workers = min(workers or 1, len(configs))
    results = (
        _run_parallel(configs, workers)
        if workers > 1
        else map(_run_config, configs)
    )
    done = []
    for config, result in zip(configs, results):
        done.append(result)
        if progress is not None:
            progress(config, result)
    return done


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
