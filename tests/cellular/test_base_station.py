"""Unit tests for the base-station control plane (Eqs. 5-6 protocol):
a station's own answers, and the network's walks over its neighbours."""

from itertools import count

import pytest

from repro.cellular.network import CellularNetwork
from repro.cellular.topology import LinearTopology
from repro.estimation.cache import CacheConfig
from repro.traffic.classes import VIDEO, VOICE
from repro.traffic.connection import Connection

#: Connection ids, unique across this module's tests.
_ids = count()


def make_network(num_cells=4):
    return CellularNetwork(
        LinearTopology(num_cells),
        capacity=100.0,
        cache_config=CacheConfig(interval=None),
    )


def attach(network, cell_id, traffic_class, entry_time, prev=None):
    connection = Connection(
        traffic_class,
        start_time=entry_time,
        cell_id=cell_id,
        prev_cell=prev,
        cell_entry_time=entry_time,
        connection_id=next(_ids),
    )
    network.cell(cell_id).attach(connection)
    return connection


def test_neighbor_stations():
    network = make_network()
    assert [s.cell_id for s in network.neighbor_stations(0)] == [3, 1]


def test_outgoing_reservation_matches_eq5():
    network = make_network()
    station = network.station(1)
    # All observed mobiles from scratch (prev=None) leave toward cell 0
    # after exactly 10 s.
    for index in range(10):
        station.estimator.record_departure(float(index), None, 0, 10.0)
    attach(network, 1, VIDEO, entry_time=95.0)  # extant sojourn 5 s
    # t_est = 10 covers the sojourn-10 mass fully: p_h = 1.
    assert station.outgoing_reservation(100.0, 0, 10.0) == pytest.approx(4.0)
    # t_est = 4 -> window (5, 9]: no mass, p_h = 0.
    assert station.outgoing_reservation(100.0, 0, 4.0) == 0.0


def test_update_target_reservation_aggregates_neighbors():
    network = make_network()
    for neighbor in (1, 3):
        station = network.station(neighbor)
        for index in range(10):
            station.estimator.record_departure(float(index), None, 0, 10.0)
        attach(network, neighbor, VOICE, entry_time=95.0)
    target = network.station(0)
    target.window.t_est = 10.0
    reservation = network.update_target_reservation(0, 100.0)
    assert reservation == pytest.approx(2.0)  # 1 BU from each side
    assert network.cell(0).reserved_target == pytest.approx(2.0)
    assert target.reservation_calculations == 1


def test_update_counts_messages():
    network = make_network()
    before = network.total_messages()
    network.update_target_reservation(0, 0.0)
    # One announcement + one reply per neighbour.
    assert network.total_messages() - before == 4


def test_neighborhood_max_sojourn():
    network = make_network()
    network.station(1).estimator.record_departure(0.0, None, 0, 33.0)
    network.station(3).estimator.record_departure(0.0, None, 0, 55.0)
    network.station(2).estimator.record_departure(0.0, None, 1, 99.0)
    # Cell 0's neighbours are 1 and 3; cell 2's history is irrelevant.
    assert network.neighborhood_max_sojourn(0, 10.0) == 55.0


def test_on_handoff_arrival_feeds_controller():
    network = make_network()
    station = network.station(0)
    network.station(1).estimator.record_departure(0.0, None, 0, 40.0)
    for _ in range(2):
        network.on_handoff_arrival(0, dropped=True, now=5.0)
    assert station.window.total_drops == 2
    assert station.window.t_est == 2.0  # bounded by max sojourn 40


def test_record_departure_computes_sojourn():
    network = make_network()
    station = network.station(0)
    station.record_departure(50.0, prev=3, next_cell=1, entry_time=20.0)
    snapshot = station.estimator.function_for(50.0, 3)
    assert snapshot.max_sojourn() == 30.0


def test_t_est_property_reflects_controller():
    network = make_network()
    station = network.station(0)
    station.window.t_est = 17.0
    assert station.t_est == 17.0


@pytest.mark.parametrize("t_int", [None, 60.0])
def test_bound_on_demand_leaves_a_run_bit_identical(monkeypatch, t_int):
    """``on_handoff_arrival`` hands the controller the function instead
    of the value.  The eager form is kept here as the reference: same
    metrics, same ``T_est`` trace, far fewer walks over the neighbours.
    With a finite ``T_int`` a walk re-cuts stale snapshots, so skipping
    one would show in the metrics: those runs keep every walk."""
    from dataclasses import replace

    from repro.cellular import network as network_module
    from repro.simulation.scenarios import stationary
    from repro.simulation.simulator import CellularSimulator

    config = replace(
        stationary("AC3", offered_load=300.0, duration=200.0, seed=4),
        t_int=t_int,
    )
    walks = []
    walk_over = network_module._max_sojourn_over

    def counted_over(stations):
        walk = walk_over(stations)

        def counted(now):
            walks.append(now)
            return walk(now)

        return counted

    monkeypatch.setattr(network_module, "_max_sojourn_over", counted_over)

    def run():
        del walks[:]
        simulator = CellularSimulator(config)
        result = simulator.run()
        trace = [
            station.window.adjustments for station in simulator.network.stations
        ]
        return result.metrics_key(), trace, len(walks)

    on_demand = run()

    def eager(self, cell_id, dropped, now):
        self.stations[cell_id].window.on_handoff(
            dropped, self.neighborhood_max_sojourn(cell_id, now), now
        )

    monkeypatch.setattr(
        network_module.CellularNetwork, "on_handoff_arrival", eager
    )
    reference = run()

    assert on_demand[:2] == reference[:2]
    steps = sum(len(adjustments) for adjustments in reference[1])
    assert steps > 0, "the scenario never stepped T_est"
    if t_int is None:
        assert 0 < on_demand[2] < reference[2] // 10
    else:
        assert on_demand[2] == reference[2]
