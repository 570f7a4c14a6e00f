"""Tests for the route-oracle Eq. 5 path (KnownPathEstimator, §7)."""

from itertools import count

import pytest

from repro.estimation.cache import CacheConfig
from repro.estimation.estimator import KnownPathEstimator, MobilityEstimator

#: Connection ids, unique across this module's tests.
_ids = count()


class FakeConnection:
    def __init__(self, bandwidth, prev_cell, cell_entry_time, route=None):
        self.bandwidth = bandwidth
        self.prev_cell = prev_cell
        self.cell_entry_time = cell_entry_time
        self.route = route


def populated(route_oracle=None):
    estimator = KnownPathEstimator(
        CacheConfig(interval=None), route_oracle=route_oracle
    )
    # Two-way history: half the mobiles go to cell 0, half to cell 2,
    # all with ~30 s sojourns.
    for index in range(50):
        estimator.record_departure(float(index), 1, 0, 30.0)
        estimator.record_departure(float(index) + 0.5, 1, 2, 30.0)
    return estimator


def test_without_oracle_behaves_like_history_only():
    estimator = populated(route_oracle=None)
    baseline = MobilityEstimator(CacheConfig(interval=None))
    for index in range(50):
        baseline.record_departure(float(index), 1, 0, 30.0)
        baseline.record_departure(float(index) + 0.5, 1, 2, 30.0)
    connections = [FakeConnection(1.0, 1, 980.0) for _ in range(5)]
    assert estimator.expected_bandwidth(
        1000.0, connections, 0, 15.0
    ) == pytest.approx(baseline.expected_bandwidth(1000.0, connections, 0, 15.0))


def test_oracle_concentrates_mass_on_known_next():
    oracle = lambda connection: connection.route
    estimator = populated(route_oracle=oracle)
    # Mobile known to head to cell 0, in the cell for 20 s already.
    toward_target = [FakeConnection(1.0, 1, 980.0, route=0)]
    away = [FakeConnection(1.0, 1, 980.0, route=2)]
    t_est = 15.0
    toward = estimator.expected_bandwidth(1000.0, toward_target, 0, t_est)
    wrong_way = estimator.expected_bandwidth(1000.0, away, 0, t_est)
    assert wrong_way == 0.0
    # The sojourn marginal covers the 30 s mass fully: p = 1.
    assert toward == pytest.approx(1.0)
    # History-only would have split the same mass 50/50.
    history_only = populated(route_oracle=None).expected_bandwidth(
        1000.0, toward_target, 0, t_est
    )
    assert history_only == pytest.approx(0.5)


def test_oracle_none_falls_back_per_connection():
    oracle = lambda connection: connection.route  # may return None
    estimator = populated(route_oracle=oracle)
    unknown = [FakeConnection(4.0, 1, 980.0, route=None)]
    value = estimator.expected_bandwidth(1000.0, unknown, 0, 15.0)
    assert value == pytest.approx(4.0 * 0.5)


def test_oracle_respects_stationary_verdict():
    oracle = lambda connection: 0
    estimator = populated(route_oracle=oracle)
    # Extant sojourn beyond all history: stationary, nothing reserved.
    lingering = [FakeConnection(1.0, 1, 900.0, route=0)]
    assert estimator.expected_bandwidth(1000.0, lingering, 0, 15.0) == 0.0


def test_oracle_zero_t_est():
    estimator = populated(route_oracle=lambda c: 0)
    connections = [FakeConnection(1.0, 1, 980.0, route=0)]
    assert estimator.expected_bandwidth(1000.0, connections, 0, 0.0) == 0.0


def test_oracle_uses_reservation_basis():
    from repro.traffic.classes import ADAPTIVE_VIDEO
    from repro.traffic.connection import Connection

    estimator = populated(route_oracle=lambda c: 0)
    connection = Connection(
        ADAPTIVE_VIDEO, 0.0, cell_id=1, prev_cell=1, cell_entry_time=980.0,
        connection_id=next(_ids),
    )
    value = estimator.expected_bandwidth(1000.0, [connection], 0, 15.0)
    # Adaptive video reserves its 1-BU floor, not its 4-BU full rate.
    assert value == pytest.approx(1.0)
