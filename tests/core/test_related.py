"""Unit tests for the Naghshineh–Schwartz comparator policy."""

import itertools
import math

import pytest

from repro.cellular.network import CellularNetwork
from repro.cellular.topology import LinearTopology
from repro.core.related import (
    NaghshinehSchwartzPolicy,
    convolve_bernoulli,
    overload_probability,
)
from repro.estimation.cache import CacheConfig
from repro.traffic.classes import VIDEO, VOICE
from repro.traffic.connection import Connection

#: Connection ids, unique across this module's tests.
_ids = itertools.count()


class TestConvolution:
    def test_single_bernoulli(self):
        pmf = convolve_bernoulli([1.0], 0.3, 2)
        assert pmf == pytest.approx([0.7, 0.0, 0.3])

    def test_two_bernoullis(self):
        pmf = convolve_bernoulli(convolve_bernoulli([1.0], 0.5, 1), 0.5, 1)
        assert pmf == pytest.approx([0.25, 0.5, 0.25])

    def test_zero_probability_identity(self):
        assert convolve_bernoulli([0.4, 0.6], 0.0, 3) == [0.4, 0.6]

    def test_mass_conserved(self):
        pmf = [1.0]
        for index in range(30):
            pmf = convolve_bernoulli(pmf, 0.1 + 0.02 * (index % 5), 1 + index % 4)
        assert sum(pmf) == pytest.approx(1.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            convolve_bernoulli([1.0], 1.5, 1)
        with pytest.raises(ValueError):
            convolve_bernoulli([1.0], 0.5, -1)

    def test_overload_probability(self):
        pmf = [0.2, 0.3, 0.5]  # values 0, 1, 2
        assert overload_probability(pmf, 1.0) == pytest.approx(0.5)
        assert overload_probability(pmf, 2.0) == 0.0
        assert overload_probability(pmf, 0.0) == pytest.approx(0.8)


def make_network(capacity=10.0):
    return CellularNetwork(
        LinearTopology(4),
        capacity=capacity,
        cache_config=CacheConfig(interval=None),
    )


def fill(network, cell_id, count, traffic_class=VOICE):
    for _ in range(count):
        network.cell(cell_id).attach(
            Connection(
                traffic_class, 0.0, cell_id, connection_id=next(_ids)
            )
        )


class TestPolicy:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            NaghshinehSchwartzPolicy(window=0.0)
        with pytest.raises(ValueError):
            NaghshinehSchwartzPolicy(overload_target=0.0)
        with pytest.raises(ValueError):
            NaghshinehSchwartzPolicy(dwell_time=-1.0)

    def test_probabilities_consistent(self):
        policy = NaghshinehSchwartzPolicy(
            window=10.0, dwell_time=36.0, mean_lifetime=120.0
        )
        alive = math.exp(-10.0 / 120.0)
        assert policy.p_stay + policy.p_depart == pytest.approx(alive)
        assert 0.0 < policy.p_stay < 1.0

    def test_admits_into_empty_network(self):
        network = make_network()
        decision = NaghshinehSchwartzPolicy().admit_new(
            network, 0, 1.0, now=0.0
        )
        assert decision.admitted
        assert decision.calculations >= 1

    def test_rejects_when_overload_certain(self):
        network = make_network(capacity=10.0)
        fill(network, 0, 10)
        policy = NaghshinehSchwartzPolicy(
            window=1.0, dwell_time=1e9, mean_lifetime=1e9
        )
        # p_stay ~= 1: everyone stays, the cell is full, the candidate
        # call pushes P(B > C) to ~1.
        decision = policy.admit_new(network, 0, 1.0, now=0.0)
        assert not decision.admitted

    def test_neighbor_pressure_blocks(self):
        network = make_network(capacity=10.0)
        # Both neighbours of cell 0 are loaded with video.
        fill(network, 1, 2, VIDEO)
        fill(network, 3, 2, VIDEO)
        fill(network, 0, 8)
        strict = NaghshinehSchwartzPolicy(
            window=30.0, overload_target=0.001, dwell_time=10.0,
            mean_lifetime=1e9,
        )
        decision = strict.admit_new(network, 0, 1.0, now=0.0)
        assert not decision.admitted

    def test_longer_window_estimates_lower_occupancy(self):
        """The §6 critique, mechanised: under the exponential-departure
        assumption a longer window predicts *emptier* cells (everyone
        has probably left), so the overload test only gets laxer —
        there is no adaptation to pull it back."""
        network = make_network(capacity=10.0)
        fill(network, 0, 10)
        overloads = []
        for window in (1.0, 30.0, 200.0):
            policy = NaghshinehSchwartzPolicy(
                window=window, dwell_time=36.0
            )
            distribution = policy._cell_distribution(network, 0)
            overloads.append(overload_probability(distribution, 9.0))
        assert overloads[0] > overloads[1] > overloads[2]

    def test_reserved_target_cleared(self):
        network = make_network()
        network.cell(0).reserved_target = 5.0
        NaghshinehSchwartzPolicy().admit_new(network, 0, 1.0, now=0.0)
        assert network.cell(0).reserved_target == 0.0

    def test_handoff_rule_unchanged(self):
        network = make_network(capacity=10.0)
        fill(network, 0, 9)
        policy = NaghshinehSchwartzPolicy()
        assert policy.admit_handoff(network, 0, 1.0)
        assert not policy.admit_handoff(network, 0, 2.0)

    def test_end_to_end_short_run(self):
        from repro.simulation.scenarios import stationary
        from repro.simulation.simulator import CellularSimulator

        config = stationary("AC3", offered_load=150.0, duration=120.0,
                            seed=2)
        simulator = CellularSimulator(
            config,
            policy=NaghshinehSchwartzPolicy(window=5.0, dwell_time=36.0),
        )
        result = simulator.run()
        assert result.scheme == "NS"
        assert result.total_new_requests > 0
        assert 0.0 <= result.dropping_probability <= 1.0
