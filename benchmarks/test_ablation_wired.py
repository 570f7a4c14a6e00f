"""Ablation: the wired-backbone extension (paper §2/§7).

Expected shape: with tight trunks, blocking moves from the radio to the
wired layer (wired blocks > 0, higher P_CB than radio-only) while the
hand-off guarantee is *structurally* preserved — in a tree-like
backbone a re-route only adds links near the mobile; the loaded
aggregation trunks are shared between old and new routes, so re-routes
never contend for them.  Predictive link reservation keeps utilization
strictly under 100%.
"""

from benchmarks.conftest import run_once
from repro.simulation import CellularSimulator, stationary
from repro.wired import (
    WiredBackboneExtension,
    WiredReservationManager,
    chain_backbone,
)


def _run(duration, predictive, manager_out):
    manager = WiredReservationManager(
        chain_backbone(10, access_capacity=250.0, trunk_capacity=450.0),
        predictive=predictive,
    )
    manager_out.append(manager)
    config = stationary(
        "AC3", offered_load=200.0, voice_ratio=0.8,
        duration=duration, warmup=duration / 4.0, seed=6,
    )
    simulator = CellularSimulator(
        config, backbone=WiredBackboneExtension(manager)
    )
    return simulator.run()


def test_wired_backbone(benchmark, bench_duration):
    duration = max(bench_duration, 400.0)
    managers = []
    radio_only = CellularSimulator(
        stationary("AC3", offered_load=200.0, voice_ratio=0.8,
                   duration=duration, warmup=duration / 4.0, seed=6)
    ).run()
    predictive = run_once(benchmark, _run, duration, True, managers)
    best_effort = _run(duration, False, managers)
    manager_predictive, manager_best = managers
    print(
        f"\nradio-only P_CB={radio_only.blocking_probability:.3f}"
        f"  best-effort P_CB={best_effort.blocking_probability:.3f}"
        f" (wired blocks {manager_best.wired_blocks})"
        f"  predictive P_CB={predictive.blocking_probability:.3f}"
        f" max-util={manager_predictive.max_utilization():.2f}"
    )
    # The backbone bottleneck raises blocking above the radio-only run.
    assert best_effort.blocking_probability > radio_only.blocking_probability
    assert manager_best.wired_blocks > 0
    # Structural protection of re-routes in tree backbones.
    assert manager_best.wired_drops == 0
    assert manager_predictive.wired_drops == 0
    # Predictive reservation holds back re-route headroom.
    assert manager_predictive.max_utilization() <= 1.0 + 1e-9
    # The hand-off target still holds end to end.
    assert predictive.dropping_probability <= 0.02
    # Accounting stayed consistent on every link.
    for manager in managers:
        for link in manager.graph.links():
            assert link.used_bandwidth <= link.capacity + 1e-9
