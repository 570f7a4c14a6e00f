"""CI-sized structural checks for the newer ablation experiments."""

from repro.experiments.ablations import (
    run_ablation_cdma,
    run_ablation_estimator_depth,
    run_ablation_signaling,
    run_ablation_window_steps,
    run_ablation_wired,
    run_comparison_ns,
)

SHORT = 120.0


def test_cdma_ablation_structure():
    output = run_ablation_cdma(duration=SHORT)
    table = output.tables["cdma"]
    assert [row[0] for row in table.rows] == [
        "hard hand-off", "soft capacity +10%", "soft hand-off 5s", "both",
    ]
    for row in table.rows:
        assert 0.0 <= row[1] <= 1.0
        assert 0.0 <= row[2] <= 1.0


def test_wired_ablation_structure():
    output = run_ablation_wired(duration=SHORT)
    table = output.tables["wired"]
    variants = {row[0]: row for row in table.rows}
    assert set(variants) == {
        "radio only", "best-effort backbone", "predictive backbone",
    }
    assert variants["radio only"][3] == 0  # no wired blocks without wires
    assert variants["predictive backbone"][5] <= 1.0  # max utilisation


def test_ns_comparison_structure():
    # The Naghshineh-Schwartz convolution dominates this experiment's
    # cost; 30 s already yields every row.  Its numbers are checked by
    # test_claims.py against results/comparison-ns.txt.
    output = run_comparison_ns(duration=30.0)
    table = output.tables["comparison"]
    assert table.rows[0][0] == "AC3 (adaptive)"
    ns_rows = [row for row in table.rows if row[0].startswith("NS")]
    assert len(ns_rows) == 4
    # NS always evaluates >= 1 distribution per test.
    for row in ns_rows:
        assert row[3] >= 1.0


def test_window_steps_covers_all_policies():
    output = run_ablation_window_steps(duration=SHORT)
    assert {row[0] for row in output.tables["step policies"].rows} == {
        "unit", "additive", "multiplicative",
    }


def test_estimator_depth_rows_match_depths():
    output = run_ablation_estimator_depth(
        depths=(5, 50), duration=SHORT
    )
    assert [row[0] for row in output.tables["history depth"].rows] == [5, 50]


def test_signaling_hops_double_under_star():
    output = run_ablation_signaling(duration=SHORT)
    for row in output.tables["signaling"].rows:
        assert row[3] >= 2 * row[2] - 1e-2
