#!/usr/bin/env python
"""A multi-day campaign through the durable state store.

The paper's estimator is built for *days* of history: F_HOE weighs
quadruplets from the ``N_win`` previous days by day-age (Eq. 3), so a
cell's predictions sharpen as identical days accumulate.  One simulated
day is already millions of events — long campaigns want to run day by
day, each day a separate process if need be, with the warm state
carried across through checkpoints.

This example runs a compressed three-"day" campaign with
:func:`repro.state.run_campaign`: day 2 warm-starts from day 1's
checkpoint (history rebased one period back, window positions carried),
day 3 from day 2's, and every day leaves a durable, CRC-checksummed
state directory plus one JSONL report row behind.  Re-running the
campaign with the same arguments resumes from whatever days already
finished — kill it anywhere and run it again.

Equivalent CLI::

    repro campaign --load 140 --rvo 0.8 --seed 42 --days 3 \\
        --day-seconds 150 --state-dir camp-state
"""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

from repro.simulation.scenarios import stationary
from repro.state import inspect_state, run_campaign

DAY = 150.0  # compressed day, in seconds


def main() -> None:
    config = replace(
        stationary("AC3", offered_load=140.0, voice_ratio=0.8, seed=42),
        day_seconds=DAY,
    )
    with tempfile.TemporaryDirectory() as scratch:
        state_dir = Path(scratch) / "campaign"
        reports = run_campaign(config, days=3, state_dir=state_dir)

        print("day   P_CB     P_HD     mean T_est  quadruplets")
        for report in reports:
            print(
                f"{report.day + 1:>3}   {report.p_cb:.4f}   "
                f"{report.p_hd:.4f}   {report.mean_t_est:>9.2f}  "
                f"{report.quadruplets:>11}"
            )
        print(
            "\nEach day warm-starts from the previous checkpoint, so the"
            "\nquadruplet pool keeps growing while every day still draws"
            "\nfrom its own derived seed.\n"
        )

        # The per-day JSONL is the campaign's machine-readable record.
        jsonl = state_dir / "campaign.jsonl"
        first = json.loads(jsonl.read_text().splitlines()[0])
        print(f"report row keys: {sorted(first)}\n")

        # Every day's state is a verifiable artifact in its own right.
        inspect_state(state_dir / "day_002")


if __name__ == "__main__":
    main()
