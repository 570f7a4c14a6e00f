"""CI smoke for the spatial sharding runner.

Runs the same small hex city three ways — one shard in-process, two
shards in worker processes, and a hot-spot variant on a load-balanced
four-shard plan — and requires the merged ``metrics_key()`` to be
bit-identical within each scenario.  Those comparisons exercise the
whole stack: uniform and load-weighted row-band partitioning, the
epoch-barrier protocol (mirrors, remote reservation requests/replies, migrations),
the columnar connection store, process hosts, and the cell-ascending
merge.  Exit 1 on any mismatch.

The two-process leg runs with telemetry on (which leaves
``metrics_key()`` alone) and also exits 1 if any supplier answered
Eq. 5 through the snapshot walk (``cellular.tick_suppliers`` with
``path="fallback"``): a hex city at ``T_int = ∞`` must stay on the
resident walk.
"""

import sys
from dataclasses import replace

sys.path.insert(0, "src")

from repro.simulation.scenarios import hex_city  # noqa: E402
from repro.simulation.spatial import run_spatial  # noqa: E402


def main() -> int:
    config = hex_city(
        "AC3",
        rows=6,
        cols=6,
        offered_load=150.0,
        voice_ratio=0.8,
        duration=60.0,
        seed=11,
    )
    single = run_spatial(config, 1, processes=False)
    sharded = run_spatial(replace(config, telemetry=True), 2, processes=True)
    for result, label in ((single, "1 shard, inline"),
                          (sharded, "2 shards, processes")):
        rate = (
            result.events_processed / result.wall_seconds
            if result.wall_seconds > 0
            else 0.0
        )
        print(
            f"{label:>20}: P_CB={result.blocking_probability:.4f}"
            f" P_HD={result.dropping_probability:.4f}"
            f" events={result.events_processed}"
            f" ({rate:,.0f} events/s)"
        )
    if single.metrics_key() != sharded.metrics_key():
        print("FAIL: sharded metrics differ from the single-shard run")
        return 1
    if sum(cell.handoff_attempts for cell in single.cells) == 0:
        print("FAIL: smoke scenario produced no hand-offs")
        return 1
    fallback = sharded.telemetry["counters"][
        'cellular.tick_suppliers{path="fallback"}'
    ]
    if fallback:
        print(
            f"FAIL: {fallback:.0f} supplier answers left the resident Eq. 5"
            " walk for the snapshot walk"
        )
        return 1
    # Load-balanced leg: a hot-spot city on a 4-shard load-weighted
    # plan must merge identically to its own single-shard run.
    hot = hex_city(
        "AC3",
        rows=8,
        cols=6,
        offered_load=150.0,
        voice_ratio=0.8,
        duration=60.0,
        seed=11,
        hotspots=((2, 2, 3.0), (6, 4, 2.0, 1.5)),
    )
    hot_single = run_spatial(hot, 1, processes=False)
    hot_balanced = run_spatial(hot, 4, processes=True)
    rate = (
        hot_balanced.events_processed / hot_balanced.wall_seconds
        if hot_balanced.wall_seconds > 0
        else 0.0
    )
    print(
        f"{'4 shards, load plan':>20}:"
        f" P_CB={hot_balanced.blocking_probability:.4f}"
        f" P_HD={hot_balanced.dropping_probability:.4f}"
        f" events={hot_balanced.events_processed}"
        f" shard_events={list(hot_balanced.shard_events or ())}"
        f" ({rate:,.0f} events/s)"
    )
    if hot_single.metrics_key() != hot_balanced.metrics_key():
        print("FAIL: load-balanced 4-shard metrics differ from 1 shard")
        return 1
    print(
        "spatial smoke OK: 2-shard uniform and 4-shard hot-spot load plans are"
        " bit-identical"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
