"""Whole-run equivalence: the resident walk never changes a metric.

Runs the acceptance scenarios — the Figure 7 static policy and the
Figure 10/11 AC3 trace run — once with reservation ticks answered by
the resident Eq. 5 walk and once with the snapshot walk everywhere,
and requires every simulation-determined field of the results
(counters, probabilities, traces, N_calc, messages) to be identical.
Only wall-clock time may differ.
"""

import pytest

from repro.simulation.scenarios import stationary
from repro.simulation.simulator import CellularSimulator


@pytest.fixture
def run_both(snapshot_walk):
    def run(config):
        cached = CellularSimulator(config).run()
        with snapshot_walk():
            naive = CellularSimulator(config).run()
        return cached, naive

    return run


def test_fig07_static_scenario_is_identical(run_both):
    config = stationary(
        "static",
        offered_load=200.0,
        voice_ratio=0.8,
        high_mobility=True,
        duration=300.0,
        seed=7,
        static_guard=10.0,
    )
    cached, naive = run_both(config)
    assert cached.metrics_key() == naive.metrics_key()


def test_fig11_trace_scenario_is_identical(run_both):
    # The Figure 10/11 run: AC3, L=300, stationary traffic, cells <5>
    # and <6> tracked — this is the scheme that actually exercises the
    # Eq. 5/6 reservation path on every admission test and hand-off.
    config = stationary(
        "AC3",
        offered_load=300.0,
        voice_ratio=1.0,
        high_mobility=True,
        duration=300.0,
        seed=10,
        tracked_cells=(4, 5),
    )
    cached, naive = run_both(config)
    assert cached.metrics_key() == naive.metrics_key()
    # Sanity: the scenario is busy enough that the assertion is not
    # vacuous, and the resident run actually exercised the hot path.
    assert cached.total_handoff_attempts > 0
    assert cached.average_calculations > 0
