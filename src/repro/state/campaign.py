"""Multi-day campaign runner: chain simulated days through the store.

The paper's estimator is explicitly multi-day — ``F_HOE`` aggregates
quadruplets across ``N_win`` previous days with day-age weights ``w_n``
(Eq. 3) — but one simulated day is already millions of events, so long
campaigns want to run day by day, possibly across process lifetimes.

:func:`run_campaign` runs ``N`` one-day simulations.  Each day:

* starts **warm**: the previous day's state directory hydrates the
  fresh run through :class:`~repro.state.checkpoint.CheckpointWarmStart`;
* draws from a **distinct RNG universe**: per-day seeds are derived
  with :meth:`RandomStreams.spawn`, so days see different traffic while
  the whole campaign stays reproducible from the base seed;
* ends with a durable state directory ``state_dir/day_NNN`` and one
  JSONL line of the day's ``P_CB`` / ``P_HD`` / mean ``T_est``.

What a day *is* belongs to the day runner.  :func:`sequential_day` (the
default) runs ``config.day_seconds`` on the sequential simulator and
saves a full checkpoint; the next day rebases that history one period
backwards (day-age weighting sees yesterday's entries at ``n = 1``),
expires entries beyond the ``N_win`` horizon and carries the window
controllers' ``T_est`` position over.  :func:`spatial_day` (bound to
a shard count with :func:`functools.partial`) runs ``config.duration``
of a hex city across shard regions and saves the cells' exported
history, which each shard of the next day reads for the cells it owns.

A campaign interrupted after day ``k`` resumes by re-running with the
same arguments: completed days are detected by their on-disk state and
re-used instead of re-simulated.
"""

from __future__ import annotations

import json
import time as wall_clock
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path

from repro.des.random import RandomStreams
from repro.obs import get_logger, get_telemetry
from repro.state.checkpoint import (
    CheckpointWarmStart,
    save_checkpoint,
    save_history,
)
from repro.state.format import StateFormatError, load_manifest

_log = get_logger("repro.state.campaign")

_REPORT_NAME = "campaign.jsonl"


@dataclass
class CampaignDay:
    """One day's outcome — a row of the campaign report."""

    day: int
    seed: int
    p_cb: float
    p_hd: float
    mean_t_est: float
    new_requests: int
    handoff_attempts: int
    handoff_drops: int
    quadruplets: int
    events_processed: int
    wall_seconds: float
    state_path: str


def day_seed(base_seed: int, day: int) -> int:
    """Per-day master seed (stable sha256 derivation, collision-free)."""
    return RandomStreams(base_seed).spawn(day).seed


def _day_state_path(state_dir: Path, day: int) -> Path:
    return state_dir / f"day_{day:03d}"


def sequential_day(config, previous, target, carry_windows: bool = True):
    """Day runner: one ``config.day_seconds`` day on the sequential DES.

    ``previous`` is yesterday's state directory (``None`` on day 0) and
    ``target`` receives today's full checkpoint.
    """
    from repro.simulation.simulator import CellularSimulator

    warm = None
    if previous is not None:
        warm = CheckpointWarmStart(
            previous,
            rebase_seconds=config.day_seconds,
            carry_windows=carry_windows,
        )
    simulator = CellularSimulator(
        replace(config, duration=config.day_seconds, warm_state=warm)
    )
    result = simulator.run()
    save_checkpoint(simulator, target)
    return result


def spatial_day(
    config,
    previous,
    target,
    shards: int,
    *,
    processes: bool | None = None,
    epoch: float = 1.0,
):
    """Day runner: one ``config.duration`` day of a sharded hex city.

    Bind the arguments after ``target`` — they are
    :func:`~repro.simulation.spatial.run_spatial`'s — with
    :func:`functools.partial`.  A day's exported history is already
    shifted so the day's end is ``t = 0``; the next day loads it as is.
    The directory is keyed by cell, so a day written under one shard
    plan warm-starts any other.
    """
    from repro.simulation.spatial import run_spatial

    day_config = replace(
        config,
        warm_state=None if previous is None else CheckpointWarmStart(previous),
        run_id=f"{config.run_id or 'spatial-campaign'}-{target.name}",
    )
    result, columns = run_spatial(
        day_config,
        shards,
        processes=processes,
        epoch=epoch,
        collect_state=True,
    )
    save_history(target, columns, day_config)
    return result


def run_campaign(
    config,
    days: int,
    state_dir: str | Path,
    jsonl_path: str | Path | None = None,
    carry_windows: bool = True,
    run_day=None,
) -> list[CampaignDay]:
    """Run ``days`` chained one-day simulations; return per-day reports.

    ``config`` describes one day.  ``run_day(day_config, previous,
    target)`` simulates it — warm-started from the state directory
    ``previous`` unless that is ``None`` — publishes its state as
    ``target`` and returns the day's ``SimulationResult``; the default
    is :func:`sequential_day` with ``carry_windows``.  ``state_dir``
    receives one state directory per day plus ``campaign.jsonl`` (or
    ``jsonl_path`` if given); existing day states from an earlier,
    interrupted invocation are reused, making the campaign resumable.
    """
    if days < 1:
        raise ValueError("a campaign needs at least one day")
    if run_day is None:
        run_day = partial(sequential_day, carry_windows=carry_windows)
    state_dir = Path(state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    report_path = (
        Path(jsonl_path) if jsonl_path is not None else state_dir / _REPORT_NAME
    )
    base_label = config.label or config.scheme
    reports: list[CampaignDay] = []
    completed = _load_completed(report_path, state_dir, days)
    if completed:
        reports.extend(completed)
        _log.info(
            "campaign resumed",
            extra={"days_done": len(completed), "days_total": days},
        )
    # Rewrite the report from the verified prefix: a row whose
    # checkpoint did not survive must not linger in the JSONL.
    with open(report_path, "w") as report_file:
        for report in completed:
            report_file.write(json.dumps(asdict(report)) + "\n")
        report_file.flush()
        for day in range(len(completed), days):
            started = wall_clock.perf_counter()
            day_config = replace(
                config,
                seed=day_seed(config.seed, day),
                label=f"{base_label} day {day + 1}",
            )
            state_path = _day_state_path(state_dir, day)
            result = run_day(
                day_config,
                _day_state_path(state_dir, day - 1) if day else None,
                state_path,
            )
            report = CampaignDay(
                day=day,
                seed=day_config.seed,
                p_cb=result.blocking_probability,
                p_hd=result.dropping_probability,
                mean_t_est=(
                    sum(status.t_est for status in result.statuses)
                    / len(result.statuses)
                ),
                new_requests=result.total_new_requests,
                handoff_attempts=result.total_handoff_attempts,
                handoff_drops=sum(
                    cell.handoff_drops for cell in result.cells
                ),
                # Read back, not returned: a day that was not published
                # cannot be resumed from, so it must not be reported.
                quadruplets=load_manifest(state_path)["counts"][
                    "quadruplets"
                ],
                events_processed=result.events_processed,
                wall_seconds=wall_clock.perf_counter() - started,
                state_path=str(state_path),
            )
            reports.append(report)
            report_file.write(json.dumps(asdict(report)) + "\n")
            report_file.flush()
            telemetry = get_telemetry()
            if telemetry.enabled:
                telemetry.counter("state.campaign_days").inc()
            _log.info(
                "campaign day complete",
                extra={
                    "day": day,
                    "p_cb": round(report.p_cb, 6),
                    "p_hd": round(report.p_hd, 6),
                    "mean_t_est": round(report.mean_t_est, 3),
                    "quadruplets": report.quadruplets,
                },
            )
    return reports


def _load_completed(
    report_path: Path, state_dir: Path, days: int
) -> list[CampaignDay]:
    """Days already finished by an earlier invocation, in order.

    A day counts as done only if its JSONL row *and* its checkpoint
    directory are both intact; the first gap truncates the resumable
    prefix (later days depend on the chain).
    """
    if not report_path.is_file():
        return []
    rows: dict[int, CampaignDay] = {}
    for line in report_path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
            rows[data["day"]] = CampaignDay(**data)
        except (ValueError, TypeError, KeyError):
            break
    completed: list[CampaignDay] = []
    for day in range(days):
        report = rows.get(day)
        if report is None:
            break
        try:
            load_manifest(_day_state_path(state_dir, day))
        except StateFormatError:
            break
        completed.append(report)
    return completed
