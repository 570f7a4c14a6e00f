"""Unit tests for Static/AC1/AC2/AC3 admission control."""

from itertools import count

import pytest

from repro.cellular.network import CellularNetwork
from repro.cellular.topology import LinearTopology
from repro.core.admission import (
    AC1,
    AC2,
    AC3,
    StaticReservationPolicy,
    make_policy,
)
from repro.estimation.cache import CacheConfig
from repro.traffic.classes import VOICE
from repro.traffic.connection import Connection

#: Connection ids, unique across this module's tests.
_ids = count()


def make_network(num_cells=4, capacity=100.0, ring=True):
    return CellularNetwork(
        LinearTopology(num_cells, ring=ring),
        capacity=capacity,
        cache_config=CacheConfig(interval=None),
    )


def fill(network, cell_id, bandwidth_units, entry_time=0.0, prev=None):
    """Attach ``bandwidth_units`` one-BU connections to a cell."""
    connections = []
    for _ in range(int(bandwidth_units)):
        connection = Connection(
            VOICE,
            start_time=entry_time,
            cell_id=cell_id,
            prev_cell=prev,
            cell_entry_time=entry_time,
            connection_id=next(_ids),
        )
        network.cell(cell_id).attach(connection)
        connections.append(connection)
    return connections


def teach_mobility(network, cell_id, next_cell, sojourns, prev=None):
    """Record departures so ``cell_id`` predicts hand-offs to ``next_cell``."""
    station = network.station(cell_id)
    for index, sojourn in enumerate(sojourns):
        station.estimator.record_departure(
            float(index), prev, next_cell, sojourn
        )


class TestStatic:
    def test_install_sets_guard_everywhere(self):
        network = make_network()
        StaticReservationPolicy(10.0).install(network)
        assert all(cell.reserved_target == 10.0 for cell in network.cells)

    def test_admits_under_guard_line(self):
        network = make_network()
        policy = StaticReservationPolicy(10.0)
        policy.install(network)
        fill(network, 0, 89)
        decision = policy.admit_new(network, 0, 1.0, now=0.0)
        assert decision.admitted
        assert decision.calculations == 0

    def test_blocks_into_guard_band(self):
        network = make_network()
        policy = StaticReservationPolicy(10.0)
        policy.install(network)
        fill(network, 0, 90)
        decision = policy.admit_new(network, 0, 1.0, now=0.0)
        assert not decision.admitted

    def test_handoff_may_use_guard_band(self):
        network = make_network()
        policy = StaticReservationPolicy(10.0)
        policy.install(network)
        fill(network, 0, 95)
        assert policy.admit_handoff(network, 0, 4.0)
        fill(network, 0, 5)
        assert not policy.admit_handoff(network, 0, 1.0)

    def test_negative_guard_rejected(self):
        with pytest.raises(ValueError):
            StaticReservationPolicy(-1.0)


class TestAC1:
    def test_single_calculation(self):
        network = make_network()
        decision = AC1().admit_new(network, 0, 1.0, now=10.0)
        assert decision.calculations == 1
        assert decision.admitted  # empty network, B_r = 0

    def test_reservation_installed_on_cell(self):
        network = make_network()
        # Neighbour cell 1 predicts imminent hand-offs into cell 0.
        teach_mobility(network, 1, 0, sojourns=[5.0] * 10)
        fill(network, 1, 20, entry_time=9.0)
        network.station(0).window.t_est = 10.0
        AC1().admit_new(network, 0, 1.0, now=10.0)
        assert network.cell(0).reserved_target > 0.0

    def test_blocks_when_reservation_fills_cell(self):
        network = make_network(capacity=10.0)
        teach_mobility(network, 1, 0, sojourns=[5.0] * 20)
        fill(network, 1, 10, entry_time=9.5)
        network.station(0).window.t_est = 50.0
        fill(network, 0, 3)
        decision = AC1().admit_new(network, 0, 1.0, now=10.0)
        # B_r ~= 10 BUs expected from cell 1 -> no room for new traffic.
        assert not decision.admitted

    def test_ignores_neighbor_saturation(self):
        network = make_network(capacity=10.0)
        fill(network, 1, 10)  # neighbour full, cannot reserve anything
        decision = AC1().admit_new(network, 0, 1.0, now=0.0)
        assert decision.admitted  # AC1 never looks at the neighbours


class TestAC2:
    def test_calculates_in_all_neighbors_plus_self(self):
        network = make_network()
        decision = AC2().admit_new(network, 0, 1.0, now=0.0)
        assert decision.calculations == 3  # two ring neighbours + self

    def test_line_borders_have_fewer_calcs(self):
        network = make_network(ring=False)
        decision = AC2().admit_new(network, 0, 1.0, now=0.0)
        assert decision.calculations == 2  # one neighbour + self

    def test_blocks_when_neighbor_cannot_reserve(self):
        network = make_network(capacity=10.0)
        # Neighbour 1 is full and predicts hand-offs into cell 2: its
        # own B_r cannot be reserved.
        teach_mobility(network, 1, 2, sojourns=[5.0] * 20)
        fill(network, 1, 10, entry_time=0.0)
        # Make neighbour 2 predict into cell 1 so B_{r,1} > 0.
        teach_mobility(network, 2, 1, sojourns=[5.0] * 20)
        fill(network, 2, 10, entry_time=9.5)
        network.station(1).window.t_est = 50.0
        decision = AC2().admit_new(network, 0, 1.0, now=10.0)
        assert not decision.admitted

    def test_admits_when_everyone_fits(self):
        network = make_network()
        fill(network, 1, 10)
        decision = AC2().admit_new(network, 0, 1.0, now=0.0)
        assert decision.admitted


class TestAC3:
    def test_no_suspects_single_calculation(self):
        network = make_network()
        decision = AC3().admit_new(network, 0, 1.0, now=0.0)
        assert decision.calculations == 1

    def test_suspect_neighbor_recalculates(self):
        network = make_network(capacity=10.0)
        # Cell 1 looks unable to reserve its previous target.
        fill(network, 1, 8)
        network.cell(1).reserved_target = 5.0  # 8 + 5 > 10 -> suspect
        decision = AC3().admit_new(network, 0, 1.0, now=0.0)
        # Recalculation finds B_r = 0 (no mobility history): admitted.
        assert decision.calculations == 2
        assert decision.admitted
        assert network.cell(1).reserved_target == 0.0

    def test_suspect_still_failing_blocks(self):
        network = make_network(capacity=10.0)
        teach_mobility(network, 2, 1, sojourns=[5.0] * 20)
        fill(network, 2, 10, entry_time=9.5)
        fill(network, 1, 9)
        network.cell(1).reserved_target = 5.0  # suspect
        network.station(1).window.t_est = 50.0
        decision = AC3().admit_new(network, 0, 1.0, now=10.0)
        assert decision.calculations == 2
        assert not decision.admitted

    def test_healthy_neighbors_not_recalculated(self):
        network = make_network()
        network.cell(1).reserved_target = 5.0  # fits easily in 100
        before = network.station(1).reservation_calculations
        AC3().admit_new(network, 0, 1.0, now=0.0)
        assert network.station(1).reservation_calculations == before


class TestHandoffRule:
    @pytest.mark.parametrize("policy", [AC1(), AC2(), AC3()])
    def test_handoff_only_needs_capacity(self, policy):
        network = make_network(capacity=10.0)
        network.cell(0).reserved_target = 9.0
        fill(network, 0, 9)
        assert policy.admit_handoff(network, 0, 1.0)
        assert not policy.admit_handoff(network, 0, 2.0)


class TestFactory:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("static", StaticReservationPolicy),
            ("AC1", AC1),
            ("ac2", AC2),
            ("Ac3", AC3),
        ],
    )
    def test_known_names(self, name, expected):
        assert isinstance(make_policy(name), expected)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_policy("AC9")

    def test_static_guard_kwarg(self):
        policy = make_policy("static", guard_bandwidth=25.0)
        assert policy.guard_bandwidth == 25.0
