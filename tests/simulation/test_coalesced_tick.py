"""Coalesced estimation tick vs the literal §4.3 sequence: whole runs.

The production AC1–AC3 refresh every participating cell's ``B_r`` in one
``flush_reservation_tick``; the ``literal_policy`` fixture transcribes
§4.3 as one ``update_target_reservation`` per cell.  A run under either
must land on the same ``metrics_key()`` — and the tick must batch.
"""

import pytest

from repro.simulation.scenarios import stationary
from repro.simulation.simulator import CellularSimulator


@pytest.fixture
def run(literal_policy):
    def _run(scheme, coalesced, **overrides):
        config = stationary(
            scheme,
            offered_load=overrides.pop("offered_load", 200.0),
            duration=overrides.pop("duration", 150.0),
            seed=overrides.pop("seed", 11),
            **overrides,
        )
        policy = None
        if not coalesced and scheme != "static":
            policy = literal_policy(scheme)
        simulator = CellularSimulator(config, policy=policy)
        return simulator, simulator.run()

    return _run


def _eq4_stats(simulator):
    rows = batches = 0
    for station in simulator.network.stations:
        estimator = station.estimator
        rows += estimator.eq4_resident_rows + estimator.eq4_walk_rows
        batches += (
            estimator.eq4_resident_batches + estimator.eq4_walk_batches
        )
    return rows, batches


class TestBitIdentity:
    @pytest.mark.parametrize("scheme", ["AC1", "AC2", "AC3", "static"])
    def test_metrics_key_parity(self, run, scheme):
        _, sequential = run(scheme, coalesced=False)
        _, coalesced = run(scheme, coalesced=True)
        assert sequential.metrics_key() == coalesced.metrics_key()

    @pytest.mark.parametrize("scheme", ["AC2", "AC3"])
    def test_metrics_key_parity_python_kernel(self, run, scheme):
        _, sequential = run(scheme, coalesced=False, kernel="python")
        _, coalesced = run(scheme, coalesced=True, kernel="python")
        assert sequential.metrics_key() == coalesced.metrics_key()

    def test_parity_includes_messages_and_calculations(self, run):
        sim_off, sequential = run("AC2", coalesced=False)
        sim_on, coalesced = run("AC2", coalesced=True)
        assert (
            sequential.average_messages == coalesced.average_messages
        )
        assert (
            sequential.average_calculations
            == coalesced.average_calculations
        )
        assert sim_off.network.total_messages() == (
            sim_on.network.total_messages()
        )


class TestBatching:
    def test_mean_eq4_batch_size_rises(self, run):
        # AC2 refreshes every neighbour + self per admission test, so
        # the tick hands each supplier several targets at once.  Both
        # paths count connections x live requests per evaluation.
        sim_off, _ = run("AC2", coalesced=False, duration=200.0, seed=3)
        sim_on, _ = run("AC2", coalesced=True, duration=200.0, seed=3)
        rows_off, batches_off = _eq4_stats(sim_off)
        rows_on, batches_on = _eq4_stats(sim_on)
        assert rows_on == rows_off  # same probabilities evaluated...
        assert batches_on < batches_off  # ...in fewer, larger batches
        assert rows_on / batches_on > rows_off / batches_off

    def test_tick_counters_track_flushes(self, run):
        sim_on, _ = run("AC2", coalesced=True)
        assert sim_on.network.tick_flushes > 0
        # AC2 in a ring marks 2 neighbours + self per admission test.
        assert sim_on.network.tick_targets == 3 * sim_on.network.tick_flushes

    def test_sequential_network_never_ticks(self, run):
        sim_off, _ = run("AC2", coalesced=False)
        assert sim_off.network.tick_flushes == 0
        assert sim_off.network.tick_targets == 0

    def test_telemetry_records_tick_counters(self, run):
        sim_on, result = run("AC3", coalesced=True, telemetry=True)
        counters = result.telemetry["counters"]
        assert counters["cellular.tick_flushes"] == (
            sim_on.network.tick_flushes
        )
        assert counters["cellular.tick_targets"] == (
            sim_on.network.tick_targets
        )
