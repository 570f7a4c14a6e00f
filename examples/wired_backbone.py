#!/usr/bin/env python
"""End-to-end reservation including the wired backbone (paper §2/§7).

The paper evaluates wireless-link reservation only, but describes the
extension: a connection also occupies the wired links from its base
station to the gateway, hand-offs re-route, and the per-cell hand-off
targets (B_r) map onto the wired links along each cell's route.

Here the 10-cell highway hangs off a chain of routers (2 cells each)
with the gateway at one end — far cells cross four trunk hops — and we
compare three configurations under the same radio conditions:

* no backbone model (the paper's evaluation);
* best-effort backbone (wired admission, no wired reservation);
* predictive backbone (wired links reserve for expected re-routes).
"""

from repro.simulation import CellularSimulator, stationary
from repro.wired import (
    WiredBackboneExtension,
    WiredReservationManager,
    chain_backbone,
)


def run(label, manager):
    config = stationary(
        "AC3", offered_load=200.0, voice_ratio=0.8, duration=1200.0,
        warmup=300.0, seed=6,
    )
    backbone = None if manager is None else WiredBackboneExtension(manager)
    simulator = CellularSimulator(config, backbone=backbone)
    result = simulator.run()
    line = (
        f"{label:<24} P_CB={result.blocking_probability:.3f} "
        f"P_HD={result.dropping_probability:.4f}"
    )
    if manager is not None:
        line += (
            f"  wired: blocks={manager.wired_blocks}"
            f" drops={manager.wired_drops}"
            f" reroutes={manager.reroutes}"
            f" max-util={manager.max_utilization():.2f}"
        )
    print(line)


def main() -> None:
    print("10-cell highway on a router chain, gateway at one end\n")
    run("radio only", None)
    run(
        "best-effort backbone",
        WiredReservationManager(
            chain_backbone(10, access_capacity=250.0, trunk_capacity=450.0),
            predictive=False,
        ),
    )
    run(
        "predictive backbone",
        WiredReservationManager(
            chain_backbone(10, access_capacity=250.0, trunk_capacity=450.0),
            predictive=True,
        ),
    )
    print(
        "\nWith tight trunks the backbone becomes the real bottleneck:"
        "\nblocking shifts from the radio to the wired layer while P_HD"
        "\nstays at zero.  Note the structural reason hand-offs survive"
        "\neven best-effort wired admission: in a tree-like backbone a"
        "\nre-route only *adds* links near the mobile (access + maybe one"
        "\ntrunk); the loaded aggregation links toward the gateway are"
        "\nshared with the old route and keep their allocation.  The"
        "\npredictive variant additionally keeps trunk utilization under"
        "\n100% (reserved re-route headroom), at slightly higher P_CB."
    )


if __name__ == "__main__":
    main()
