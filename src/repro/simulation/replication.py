"""Sharded replication runner: one long run as K independent shards.

A single long simulation of the paper's scenarios is embarrassingly
serial — the DES hot loop is one thread.  But the *statistic* a long
run produces (post-warm-up P_CB / P_HD) can equally be estimated from
``K`` shorter independent replications, which parallelise perfectly:

* each shard gets its own child RNG via
  :meth:`repro.des.random.RandomStreams.spawn` — deterministic in the
  parent seed and the shard index, so the merged result is bit-identical
  regardless of worker count or scheduling;
* each shard runs its own warm-up cut (shards are statistically
  independent runs, not slices of one sample path);
* every shard starts from one *shared* warmed estimator state: the
  parent runs one warm-up, saves it as a checkpoint in a temporary
  directory, and each shard hydrates from those files
  (:class:`repro.state.CheckpointWarmStart`) instead of re-learning
  from cold;
* the merged P_CB / P_HD pool the raw counts (Wilson intervals) and the
  per-replication proportions feed a batch-means Student-t interval, so
  the headline numbers come with CI half-widths instead of bare points.
"""

from __future__ import annotations

import tempfile
import time as wall_clock
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.analysis.stats import (
    BatchMeansEstimate,
    ProportionEstimate,
    batch_means,
    wilson_interval,
)
from repro.des.random import RandomStreams
from repro.obs.telemetry import merge_snapshots
from repro.obs.timeseries import merge_series
from repro.obs.trace import merge_traces
from repro.simulation.config import SimulationConfig
from repro.simulation.metrics import SimulationResult
from repro.simulation.runner import run_sweep
from repro.simulation.simulator import CellularSimulator
from repro.state import CheckpointWarmStart, save_checkpoint


def replication_seeds(config: SimulationConfig, replications: int) -> list[int]:
    """The shard seeds: children of the config's seed, by shard index."""
    parent = RandomStreams(config.seed)
    return [parent.spawn(index).seed for index in range(replications)]


def replication_configs(
    config: SimulationConfig, replications: int
) -> list[SimulationConfig]:
    """Split one long config into ``K`` independent shard configs.

    The measured interval ``duration - warmup`` is divided evenly; each
    shard keeps the full warm-up cut (independence requires every shard
    to warm up — the cut is not free, which is why sharding buys wall
    clock, not CPU seconds).
    """
    if replications < 1:
        raise ValueError(f"need at least one replication, got {replications}")
    measured = config.duration - config.warmup
    shard_measured = measured / replications
    seeds = replication_seeds(config, replications)
    base_label = config.label or config.scheme
    return [
        replace(
            config,
            seed=seed,
            duration=config.warmup + shard_measured,
            run_id="",
            label=f"{base_label}[rep{index}]",
        )
        for index, seed in enumerate(seeds)
    ]


@dataclass
class ReplicatedResult:
    """Merged outcome of a sharded replicated run."""

    config: SimulationConfig
    results: list[SimulationResult]
    #: Pooled-count estimates (every hand-off weighted equally).
    blocking: ProportionEstimate
    dropping: ProportionEstimate
    #: Batch-means Student-t intervals over the per-shard proportions.
    blocking_ci: BatchMeansEstimate
    dropping_ci: BatchMeansEstimate
    telemetry: dict | None = None
    #: Merged per-replication time-series (rows distinguished by their
    #: ``label``), or ``None`` when sampling was off.
    timeseries: list | None = None
    #: Merged trace events, one ``pid`` lane per replication, or
    #: ``None`` when tracing was off.
    trace_events: list | None = None
    wall_seconds: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def replications(self) -> int:
        return len(self.results)

    @property
    def blocking_probability(self) -> float:
        return self.blocking.point

    @property
    def dropping_probability(self) -> float:
        return self.dropping.point

    @property
    def events_processed(self) -> int:
        return sum(result.events_processed for result in self.results)

    def metrics_key(self) -> dict:
        """Deterministic digest of everything statistical.

        Covers the pooled counts and each shard's full metrics key, in
        shard order — worker count and scheduling can never appear, so
        equality across runner setups is the determinism invariant the
        tests pin down.
        """
        return {
            "replications": self.replications,
            "blocking": (self.blocking.successes, self.blocking.trials),
            "dropping": (self.dropping.successes, self.dropping.trials),
            "runs": [result.metrics_key() for result in self.results],
        }


def run_replicated(
    config: SimulationConfig,
    replications: int = 8,
    workers: int | None = None,
    ci_level: float = 0.95,
) -> ReplicatedResult:
    """Run ``config`` as ``K`` independent shards and merge the metrics.

    Parameters
    ----------
    config:
        The long run to shard.  ``duration - warmup`` is the measured
        interval being split.  With a warm-up cut, the parent first runs
        ``config.warmup`` seconds once and every shard starts from that
        run's estimator history; the shards then *also* run their own
        warm-up cut on top of the shared prior — their measured windows
        stay independent, they just start from a learned F_HOE instead
        of an empty one.  The prior is a deterministic extra input to
        every shard, identical across worker counts.
    replications:
        ``K`` — number of independent shards.
    workers:
        Process-pool width (``None``/``<=1`` runs the shards
        sequentially in-process — same merged result, by construction).
    ci_level:
        Confidence level of the batch-means intervals.
    """
    started = wall_clock.perf_counter()
    shard_configs = replication_configs(config, replications)
    with tempfile.TemporaryDirectory(prefix="repro-warm-") as scratch:
        if config.warmup > 0:
            # The warm run's seed is the K-th child: never collides with
            # a shard seed, deterministic in the parent seed.
            warm_sim = CellularSimulator(
                replace(
                    config,
                    seed=RandomStreams(config.seed).spawn(replications).seed,
                    duration=config.warmup,
                    warmup=0.0,
                    telemetry=False,
                    run_id="",
                    tracked_cells=(),
                    hourly_stats=False,
                    label=f"{config.label or config.scheme}[warm]",
                )
            )
            warm_sim.run()
            # The warm-up's end becomes the shards' t = 0.
            handle = CheckpointWarmStart(
                save_checkpoint(warm_sim, Path(scratch) / "warm"),
                rebase_seconds=config.warmup,
                carry_windows=False,
            )
            shard_configs = [
                replace(shard, warm_state=handle) for shard in shard_configs
            ]
        results = run_sweep(shard_configs, workers=workers)
    requests = sum(
        cell.new_requests for result in results for cell in result.cells
    )
    blocked = sum(
        cell.blocked for result in results for cell in result.cells
    )
    attempts = sum(
        cell.handoff_attempts for result in results for cell in result.cells
    )
    drops = sum(
        cell.handoff_drops for result in results for cell in result.cells
    )
    return ReplicatedResult(
        config=config,
        results=results,
        blocking=wilson_interval(blocked, requests),
        dropping=wilson_interval(drops, attempts),
        blocking_ci=batch_means(
            [
                sum(cell.blocked for cell in result.cells)
                / max(1, sum(cell.new_requests for cell in result.cells))
                for result in results
            ],
            ci_level,
        ),
        dropping_ci=batch_means(
            [
                sum(cell.handoff_drops for cell in result.cells)
                / max(1, sum(cell.handoff_attempts for cell in result.cells))
                for result in results
            ],
            ci_level,
        ),
        **merge_observations(results),
        wall_seconds=wall_clock.perf_counter() - started,
    )


def merge_observations(results: list[SimulationResult]) -> dict:
    """The runs' telemetry, series and trace events, merged.

    Trace events are re-laned, one ``pid`` per run, so Perfetto renders
    one track per run even though every worker recorded ``pid=0``.
    """
    return {
        "telemetry": merge_snapshots(result.telemetry for result in results),
        "timeseries": merge_series(result.timeseries for result in results),
        "trace_events": merge_traces(
            [{**event, "pid": index} for event in result.trace_events]
            if result.trace_events
            else None
            for index, result in enumerate(results)
        ),
    }
