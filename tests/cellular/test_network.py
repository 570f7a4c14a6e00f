"""Unit tests for the network container."""

import pytest

from repro.cellular.network import CellularNetwork
from repro.cellular.topology import HexTopology, LinearTopology
from repro.estimation.estimator import KnownPathEstimator
from repro.traffic.classes import VIDEO
from repro.traffic.connection import Connection


def test_builds_one_cell_and_station_per_topology_cell():
    network = CellularNetwork(LinearTopology(10))
    assert network.num_cells == 10
    assert len(network.cells) == 10
    assert len(network.stations) == 10
    for cell_id in range(10):
        assert network.cell(cell_id).cell_id == cell_id
        assert network.station(cell_id).cell is network.cell(cell_id)


def test_uniform_capacity():
    network = CellularNetwork(LinearTopology(4), capacity=42.0)
    assert all(cell.capacity == 42.0 for cell in network)


def test_heterogeneous_capacity_callable():
    network = CellularNetwork(
        LinearTopology(4), capacity=lambda cell_id: 50.0 + cell_id
    )
    assert [cell.capacity for cell in network.cells] == [50, 51, 52, 53]


def test_custom_estimator_factory():
    network = CellularNetwork(
        LinearTopology(3),
        estimator_factory=lambda cell_id: KnownPathEstimator(),
    )
    assert all(
        isinstance(station.estimator, KnownPathEstimator)
        for station in network.stations
    )


def test_neighbors_delegate_to_topology():
    network = CellularNetwork(LinearTopology(5, ring=False))
    assert network.neighbors(0) == (1,)
    assert network.neighbors(2) == (1, 3)


def test_works_with_hex_topology():
    network = CellularNetwork(HexTopology(4, 3, wrap=True))
    assert network.num_cells == 12
    assert len(network.neighbors(4)) == 6


def test_total_used_bandwidth():
    network = CellularNetwork(LinearTopology(3))
    network.cell(0).attach(Connection(VIDEO, 0.0, 0, connection_id=0))
    network.cell(2).attach(Connection(VIDEO, 0.0, 2, connection_id=1))
    assert network.total_used_bandwidth() == 8.0


def test_total_counters_start_zero():
    network = CellularNetwork(LinearTopology(3))
    assert network.total_messages() == 0
    assert network.total_reservation_calculations() == 0


class _Adjacency:
    """A hand-rolled topology: whatever neighbour lists it is given."""

    def __init__(self, lists):
        self._lists = lists
        self.num_cells = len(lists)

    def neighbors(self, cell_id):
        return self._lists[cell_id]


@pytest.mark.parametrize(
    "lists, culprit",
    [
        ([(1,), (0, 2, 0), (1,)], 1),  # a repeated neighbour
        ([(1,), (0, 2), (2, 1)], 2),  # a cell listed as its own neighbour
    ],
)
def test_refuses_a_topology_with_a_repeated_or_self_neighbour(lists, culprit):
    with pytest.raises(ValueError, match=f"cell {culprit}'s neighbours"):
        CellularNetwork(_Adjacency(lists))
    # The same lists, de-duplicated, are fine.
    CellularNetwork(_Adjacency([(1,), (0, 2), (1,)]))
