"""Ablation experiments for the design choices the paper discusses.

* Window-controller step growth (§4.2: additive/multiplicative step
  sizes "cause over-reactions").
* Estimator history depth ``N_quad`` (§3.1 design parameter).
* Star vs fully-connected BS interconnect (Figure 1).
* 2-D hexagonal deployment with a mixed population (§7 future work).
* CDMA soft capacity and soft hand-off (§7 future work).
* The wired-backbone extension (§2/§7).
* Head-to-head with the Naghshineh-Schwartz distributed CAC (§6, [10]).
"""

from __future__ import annotations

import math

from repro.cellular.signaling import SignalingAccountant
from repro.cellular.topology import HexTopology
from repro.core.window import StepPolicy
from repro.experiments.report import ExperimentOutput, Table
from repro.mobility.models import HexMobilityModel
from repro.simulation.scenarios import stationary
from repro.simulation.simulator import CellularSimulator


def run_ablation_window_steps(
    offered_load: float = 300.0,
    duration: float = 1000.0,
    seed: int = 42,
) -> ExperimentOutput:
    """Unit vs additive vs multiplicative ``T_est`` steps under AC3."""
    output = ExperimentOutput(
        "ablation-window-steps",
        "Step-size policies of the T_est controller (AC3, L=300)",
        parameters={"offered_load": offered_load, "duration": duration},
    )
    rows = []
    for policy in StepPolicy:
        config = stationary(
            "AC3",
            offered_load=offered_load,
            voice_ratio=1.0,
            high_mobility=True,
            duration=duration,
            seed=seed,
            step_policy=policy,
            tracked_cells=(4,),
        )
        result = CellularSimulator(config).run()
        trace = [p.value for p in result.t_est_traces[4]]
        mean = sum(trace) / len(trace) if trace else 0.0
        variance = (
            sum((value - mean) ** 2 for value in trace) / len(trace)
            if trace
            else 0.0
        )
        rows.append(
            [
                policy.value,
                result.blocking_probability,
                result.dropping_probability,
                mean,
                math.sqrt(variance),
                max(trace) if trace else 0.0,
            ]
        )
    output.tables["step policies"] = Table(
        headers=[
            "policy", "PCB", "PHD", "mean Test (cell<5>)",
            "std Test", "max Test",
        ],
        rows=rows,
    )
    output.notes.append(
        "the paper keeps unit steps: larger steps over-react, visible as"
        " a larger T_est standard deviation without a PHD benefit"
    )
    return output


def run_ablation_estimator_depth(
    depths: tuple[int, ...] = (5, 25, 100, 400),
    offered_load: float = 200.0,
    duration: float = 1000.0,
    seed: int = 43,
) -> ExperimentOutput:
    """Sensitivity to ``N_quad``, the per-pair history depth."""
    output = ExperimentOutput(
        "ablation-estimator-depth",
        "Sensitivity of AC3 to the N_quad history depth",
        parameters={"offered_load": offered_load, "duration": duration},
    )
    rows = []
    for depth in depths:
        config = stationary(
            "AC3",
            offered_load=offered_load,
            voice_ratio=0.5,
            high_mobility=True,
            duration=duration,
            seed=seed,
            n_quad=depth,
        )
        result = CellularSimulator(config).run()
        rows.append(
            [
                depth,
                result.blocking_probability,
                result.dropping_probability,
                result.average_reservation,
            ]
        )
    output.tables["history depth"] = Table(
        headers=["N_quad", "PCB", "PHD", "avg Br"],
        rows=rows,
    )
    return output


def run_ablation_signaling(
    offered_load: float = 200.0,
    duration: float = 600.0,
    seed: int = 44,
) -> ExperimentOutput:
    """Transport cost of AC1/AC2/AC3 under star vs full-mesh backhaul."""
    output = ExperimentOutput(
        "ablation-signaling",
        "Backhaul signaling cost per admission test (Figure 1 layouts)",
        parameters={"offered_load": offered_load, "duration": duration},
    )
    rows = []
    for scheme in ("AC1", "AC2", "AC3"):
        config = stationary(
            scheme,
            offered_load=offered_load,
            voice_ratio=1.0,
            high_mobility=True,
            duration=duration,
            seed=seed,
        )
        result = CellularSimulator(config).run()
        logical = result.average_messages
        per_layout = SignalingAccountant.compare(round(logical * 1000))
        rows.append(
            [
                scheme,
                logical,
                per_layout["full_mesh"].transport_hops / 1000,
                per_layout["star"].transport_hops / 1000,
            ]
        )
    output.tables["signaling"] = Table(
        headers=[
            "scheme",
            "logical msgs/test",
            "hops/test (full mesh)",
            "hops/test (star)",
        ],
        rows=rows,
    )
    return output


def run_ablation_hex2d(
    rows_cols: tuple[int, int] = (4, 5),
    offered_load: float = 150.0,
    duration: float = 1500.0,
    seed: int = 45,
) -> ExperimentOutput:
    """AC3 on a 2-D hex grid with mixed user classes (paper §7)."""
    grid_rows, grid_cols = rows_cols
    output = ExperimentOutput(
        "ablation-hex2d",
        f"AC3 on a {grid_rows}x{grid_cols} hex grid, mixed population",
        parameters={"offered_load": offered_load, "duration": duration},
    )
    topology = HexTopology(grid_rows, grid_cols, wrap=True)
    table_rows = []
    for scheme in ("static", "AC3"):
        config = stationary(
            scheme,
            offered_load=offered_load,
            voice_ratio=0.8,
            duration=duration,
            seed=seed,
        )
        simulator = CellularSimulator(
            config, mobility_model=HexMobilityModel(topology)
        )
        result = simulator.run()
        table_rows.append(
            [
                scheme,
                result.blocking_probability,
                result.dropping_probability,
                result.average_calculations,
            ]
        )
    output.tables["hex grid"] = Table(
        headers=["scheme", "PCB", "PHD", "Ncalc"],
        rows=table_rows,
    )
    output.notes.append(
        "six neighbours per cell: AC3's hybrid test matters more than in"
        " 1-D (AC2 would need 7 B_r calculations per test)"
    )
    return output


def run_ablation_cdma(
    offered_load: float = 250.0,
    duration: float = 1500.0,
    seed: int = 3,
) -> ExperimentOutput:
    """CDMA soft capacity / soft hand-off vs the hard-hand-off baseline."""
    from dataclasses import replace

    output = ExperimentOutput(
        "ablation-cdma",
        "CDMA soft capacity and soft hand-off (static scheme, L=250, "
        "Rvo=0.5)",
        parameters={"offered_load": offered_load, "duration": duration},
    )
    base = stationary(
        "static", offered_load=offered_load, voice_ratio=0.5,
        duration=duration, warmup=duration / 5.0, seed=seed,
    )
    variants = {
        "hard hand-off": base,
        "soft capacity +10%": replace(base, handoff_overload=1.10),
        "soft hand-off 5s": replace(base, soft_handoff_window=5.0),
        "both": replace(
            base, handoff_overload=1.10, soft_handoff_window=5.0
        ),
    }
    rows = []
    for name, config in variants.items():
        result = CellularSimulator(config).run()
        rows.append(
            [name, result.blocking_probability,
             result.dropping_probability]
        )
    output.tables["cdma"] = Table(headers=["variant", "PCB", "PHD"],
                                  rows=rows)
    return output


def run_ablation_wired(
    offered_load: float = 200.0,
    duration: float = 1200.0,
    seed: int = 6,
) -> ExperimentOutput:
    """The wired-backbone extension: radio-only vs best-effort vs
    predictive backhaul reservation on a router chain."""
    from repro.wired import (
        WiredBackboneExtension,
        WiredReservationManager,
        chain_backbone,
    )

    output = ExperimentOutput(
        "ablation-wired",
        "Wired backbone (router chain, tight trunks), AC3, L=200",
        parameters={"offered_load": offered_load, "duration": duration},
    )
    rows = []
    for name, predictive in (
        ("radio only", None),
        ("best-effort backbone", False),
        ("predictive backbone", True),
    ):
        config = stationary(
            "AC3", offered_load=offered_load, voice_ratio=0.8,
            duration=duration, warmup=duration / 4.0, seed=seed,
        )
        backbone = manager = None
        if predictive is not None:
            manager = WiredReservationManager(
                chain_backbone(
                    10, access_capacity=250.0, trunk_capacity=450.0
                ),
                predictive=predictive,
            )
            backbone = WiredBackboneExtension(manager)
        result = CellularSimulator(config, backbone=backbone).run()
        rows.append(
            [
                name,
                result.blocking_probability,
                result.dropping_probability,
                manager.wired_blocks if manager else 0,
                manager.reroutes if manager else 0,
                manager.max_utilization() if manager else 0.0,
            ]
        )
    output.tables["wired"] = Table(
        headers=["variant", "PCB", "PHD", "wired blocks", "reroutes",
                 "max util"],
        rows=rows,
    )
    output.notes.append(
        "re-routes never fail here: in a tree backbone a hand-off only"
        " adds edge links; the aggregation trunks are shared with the"
        " old route"
    )
    return output


def run_comparison_ns(
    offered_load: float = 250.0,
    duration: float = 600.0,
    seed: int = 4,
) -> ExperimentOutput:
    """AC3 vs the Naghshineh-Schwartz distributed CAC (§6, ref [10])."""
    from repro.core.related import NaghshinehSchwartzPolicy

    output = ExperimentOutput(
        "comparison-ns",
        "AC3 vs Naghshineh-Schwartz distributed CAC, L=250, Rvo=1.0",
        parameters={"offered_load": offered_load, "duration": duration},
    )
    rows = []
    config = stationary(
        "AC3", offered_load=offered_load, voice_ratio=1.0,
        duration=duration, seed=seed,
    )
    result = CellularSimulator(config).run()
    rows.append(
        ["AC3 (adaptive)", result.blocking_probability,
         result.dropping_probability, result.average_calculations]
    )
    for window in (2.0, 5.0, 10.0, 20.0):
        config = stationary(
            "AC3", offered_load=offered_load, voice_ratio=1.0,
            duration=duration, seed=seed,
        )
        simulator = CellularSimulator(
            config,
            policy=NaghshinehSchwartzPolicy(window=window, dwell_time=36.0),
        )
        result = simulator.run()
        rows.append(
            [f"NS T={window:g}s", result.blocking_probability,
             result.dropping_probability, result.average_calculations]
        )
    output.tables["comparison"] = Table(
        headers=["scheme", "PCB", "PHD", "calcs/test"],
        rows=rows,
    )
    output.notes.append(
        "NS needs its window hand-tuned (its exponential-residence model"
        " mis-fits road traffic; §6 criticism); AC3 adapts its window"
        " from observed drops and has no such parameter"
    )
    return output
