"""Run entry point and sweep runner.

:class:`RunSpec` and :func:`execute` are how one run is made: the spec
holds a scenario plus the runner flags of ``repro run`` (shards,
replications, state options, the decision journal), refuses every
combination a runner would silently ignore, and :func:`execute` picks
the runner and applies the state options.  ``repro run`` fills one spec
from argparse, and every day of a campaign is one more spec.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.simulation.config import SimulationConfig
from repro.simulation.metrics import SimulationResult
from repro.simulation.simulator import CellularSimulator

#: The offered-load axis used by Figures 7-9 and 12-13.
DEFAULT_LOAD_AXIS = (60.0, 100.0, 150.0, 200.0, 250.0, 300.0)

_STATE_FLAGS = "--save-state/--load-state/--checkpoint-every"
_RESUME_FLAGS = "--load-state/--checkpoint-every"

#: Runner flags one run cannot honour together, and why.
_CONFLICTS = (
    ("--shards", "--replications",
     "--shards partitions space, --replications partitions seeds"),
    ("--shards", _RESUME_FLAGS,
     "a sharded run saves the cells' history, not a resumable engine"),
    ("--shards", "--trace-jsonl",
     "the journal follows one engine's connections"),
    ("--replications", _STATE_FLAGS,
     "a checkpoint captures one engine's state"),
    ("--replications", "--trace-jsonl", "the journal records a single run"),
    (_STATE_FLAGS, "--trace-jsonl",
     "the journal covers one uninterrupted run from t = 0"),
)


@dataclass(frozen=True)
class RunSpec:
    """One run: a scenario and the ``repro run`` flags that say how.

    Every field but ``config`` is the ``repro run`` flag of the same
    name.  ``shards > 0`` runs a hex city on
    :func:`~repro.simulation.spatial.run_spatial`, ``replications > 1``
    on :func:`~repro.simulation.replication.run_replicated`, anything
    else on one :class:`CellularSimulator`.  A combination the selected
    runner would ignore raises :class:`ValueError` naming both flags.
    """

    config: SimulationConfig
    shards: int = 0
    epoch: float = 1.0
    replications: int = 1
    workers: int | None = None
    ci_level: float = 0.95
    load_state: str | Path | None = None
    save_state: str | Path | None = None
    checkpoint_every: float = 0.0
    checkpoint_dir: str | Path | None = None
    checkpoint_keep: int = 3
    trace_jsonl: str | Path | None = None

    def __post_init__(self) -> None:
        if self.shards < 0:
            raise ValueError(
                f"--shards must be >= 0 (0 runs the 1-D road), got {self.shards}"
            )
        resume = bool(self.load_state) or self.checkpoint_every > 0.0
        given = {
            "--shards": self.shards > 0,
            "--replications": self.replications > 1,
            _STATE_FLAGS: resume or bool(self.save_state),
            _RESUME_FLAGS: resume,
            "--trace-jsonl": bool(self.trace_jsonl),
        }
        for first, second, reason in _CONFLICTS:
            if given[first] and given[second]:
                raise ValueError(
                    f"{first} cannot be combined with {second}: {reason}"
                )
        if self.workers is not None and not given["--replications"]:
            raise ValueError("--workers only applies to --replications runs")


def execute(spec: RunSpec):
    """Run ``spec`` on the runner it selects; apply its state options.

    Returns the run's :class:`SimulationResult`, or the merged
    :class:`~repro.simulation.replication.ReplicatedResult` of a
    replicated run.  ``save_state`` publishes a full checkpoint of one
    engine, or, under shards, the cells' quadruplet history
    (:func:`~repro.state.save_history`): what the next campaign day
    warm-starts from.
    """
    config = spec.config
    if spec.shards:
        from repro.simulation.spatial import run_spatial

        if not spec.save_state:
            return run_spatial(config, spec.shards, epoch=spec.epoch)
        from repro.state import save_history

        result, columns = run_spatial(
            config, spec.shards, epoch=spec.epoch, collect_state=True
        )
        save_history(spec.save_state, columns, config)
        return result
    if spec.replications > 1:
        from repro.simulation.replication import run_replicated

        return run_replicated(
            config,
            replications=spec.replications,
            workers=spec.workers,
            ci_level=spec.ci_level,
        )
    if spec.load_state:
        from repro.state import restore_simulator

        simulator = restore_simulator(spec.load_state, config)
    else:
        simulator = CellularSimulator(config)
    if spec.trace_jsonl:
        from repro.serve.events import RunRecorder

        simulator.recorder = RunRecorder()
    if spec.checkpoint_every > 0.0:
        from repro.state import Checkpointer

        simulator.checkpointer = Checkpointer(
            simulator,
            spec.checkpoint_dir or "checkpoints",
            every=spec.checkpoint_every,
            keep=spec.checkpoint_keep,
        )
    result = simulator.run()
    if spec.save_state:
        from repro.state import save_checkpoint

        save_checkpoint(simulator, spec.save_state)
        # Pick up the state.save timing and the checkpoint.publish span,
        # recorded after the result took its snapshot and events.
        if simulator.telemetry.enabled:
            result.telemetry = simulator.telemetry.snapshot()
        if simulator.tracer.enabled:
            result.trace_events = simulator.tracer.events()
    if spec.trace_jsonl:
        _write_journal(spec.trace_jsonl, simulator.recorder.events)
    return result


def _write_journal(path: str | Path, events) -> None:
    """Write the recorded decision stream; log any life-cycle violation."""
    from repro.obs import get_logger
    from repro.serve.events import lifecycle_violations, write_events

    with open(path, "w", encoding="utf-8") as handle:
        write_events(handle, events)
    log = get_logger("trace")
    violations = lifecycle_violations(events)
    for violation in violations:
        log.warning("trace violation", extra={"violation": violation})
    log.info(
        "trace journal written",
        extra={
            "path": str(path),
            "events": len(events),
            "violations": len(violations),
        },
    )


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
