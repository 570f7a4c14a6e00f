"""Unit tests for the QoS adaptation layer."""

from itertools import count

import pytest

from repro.cellular.network import CellularNetwork
from repro.cellular.topology import LinearTopology
from repro.core.admission import AC1, StaticReservationPolicy
from repro.core.qos import AdaptiveQoSPolicy
from repro.estimation.cache import CacheConfig
from repro.traffic.classes import (
    ADAPTIVE_VIDEO,
    VOICE,
    AdaptiveTrafficClass,
)
from repro.traffic.connection import Connection

#: Connection ids, unique across this module's tests.
_ids = count()


def make_network(capacity=10.0):
    return CellularNetwork(
        LinearTopology(3),
        capacity=capacity,
        cache_config=CacheConfig(interval=None),
    )


def adaptive_connection(cell_id=0):
    return Connection(
        ADAPTIVE_VIDEO,
        start_time=0.0,
        cell_id=cell_id,
        connection_id=next(_ids),
    )


def voice_connection(cell_id=0):
    return Connection(
        VOICE, start_time=0.0, cell_id=cell_id, connection_id=next(_ids)
    )


class TestAdaptiveClass:
    def test_floor_validation(self):
        with pytest.raises(ValueError):
            AdaptiveTrafficClass("x", 4.0, min_bandwidth=0.0)
        with pytest.raises(ValueError):
            AdaptiveTrafficClass("x", 4.0, min_bandwidth=5.0)

    def test_connection_bandwidth_properties(self):
        connection = adaptive_connection()
        assert connection.bandwidth == 4.0
        assert connection.full_bandwidth == 4.0
        assert connection.min_bandwidth == 1.0
        assert connection.reservation_basis == 1.0
        assert not connection.is_degraded

    def test_rigid_class_floor_equals_rate(self):
        connection = voice_connection()
        assert connection.min_bandwidth == 1.0
        assert connection.reservation_basis == 1.0


class TestCellAdjust:
    def test_degrade_and_upgrade_accounting(self):
        network = make_network()
        cell = network.cell(0)
        connection = adaptive_connection()
        cell.attach(connection)
        cell.adjust_bandwidth(connection, 1.0)
        assert connection.is_degraded
        assert cell.used_bandwidth == 1.0
        cell.adjust_bandwidth(connection, 4.0)
        assert not connection.is_degraded
        assert cell.used_bandwidth == 4.0

    def test_adjust_below_floor_rejected(self):
        network = make_network()
        cell = network.cell(0)
        connection = adaptive_connection()
        cell.attach(connection)
        with pytest.raises(ValueError):
            cell.adjust_bandwidth(connection, 0.5)

    def test_adjust_above_rate_rejected(self):
        network = make_network()
        cell = network.cell(0)
        connection = adaptive_connection()
        cell.attach(connection)
        with pytest.raises(ValueError):
            cell.adjust_bandwidth(connection, 5.0)

    def test_adjust_unattached_rejected(self):
        network = make_network()
        from repro.cellular.cell import CapacityError

        with pytest.raises(CapacityError):
            network.cell(0).adjust_bandwidth(adaptive_connection(), 2.0)


class TestHandoffAllocation:
    def test_full_rate_when_room(self):
        network = make_network(capacity=10.0)
        policy = AdaptiveQoSPolicy(AC1())
        allocation = policy.handoff_allocation(
            network, 0, adaptive_connection()
        )
        assert allocation == 4.0
        assert policy.degradations == 0

    def test_degrades_when_tight(self):
        network = make_network(capacity=10.0)
        for _ in range(8):
            network.cell(0).attach(voice_connection())
        policy = AdaptiveQoSPolicy(AC1())
        allocation = policy.handoff_allocation(
            network, 0, adaptive_connection()
        )
        assert allocation == 2.0  # the remaining headroom
        assert policy.degradations == 1

    def test_drops_below_floor(self):
        network = make_network(capacity=10.0)
        for _ in range(10):
            network.cell(0).attach(voice_connection())
        policy = AdaptiveQoSPolicy(AC1())
        assert policy.handoff_allocation(
            network, 0, adaptive_connection()
        ) is None

    def test_rigid_connection_all_or_nothing(self):
        network = make_network(capacity=10.0)
        for _ in range(2):
            network.cell(0).attach(adaptive_connection())  # 8 BUs
        policy = AdaptiveQoSPolicy(AC1())
        # Voice (rigid) still fits in the 2 BU headroom...
        assert policy.handoff_allocation(network, 0, voice_connection()) == 1.0
        network.cell(0).attach(voice_connection())
        network.cell(0).attach(voice_connection())
        # ...but is dropped, never degraded, once the cell is full.
        assert policy.handoff_allocation(
            network, 0, voice_connection()
        ) is None


class TestUpgradeOnRelease:
    def test_upgrades_degraded_connections(self):
        network = make_network(capacity=10.0)
        cell = network.cell(0)
        degraded = adaptive_connection()
        cell.attach(degraded)
        cell.adjust_bandwidth(degraded, 1.0)
        policy = AdaptiveQoSPolicy(AC1())
        policy.on_release(network, 0, now=10.0)
        assert degraded.bandwidth == 4.0
        assert policy.upgrades == 1

    def test_upgrade_respects_reservation(self):
        network = make_network(capacity=10.0)
        cell = network.cell(0)
        degraded = adaptive_connection()
        cell.attach(degraded)
        cell.adjust_bandwidth(degraded, 1.0)
        cell.reserved_target = 8.0  # only 1 BU of unreserved headroom
        policy = AdaptiveQoSPolicy(AC1())
        policy.on_release(network, 0, now=10.0)
        assert degraded.bandwidth == 2.0

    def test_upgrade_may_ignore_reservation_if_configured(self):
        network = make_network(capacity=10.0)
        cell = network.cell(0)
        degraded = adaptive_connection()
        cell.attach(degraded)
        cell.adjust_bandwidth(degraded, 1.0)
        cell.reserved_target = 8.0
        policy = AdaptiveQoSPolicy(
            AC1(), upgrade_respects_reservation=False
        )
        policy.on_release(network, 0, now=10.0)
        assert degraded.bandwidth == 4.0

    def test_partial_budget_split_oldest_first(self):
        network = make_network(capacity=12.0)
        cell = network.cell(0)
        first, second = adaptive_connection(), adaptive_connection()
        cell.attach(first)
        cell.attach(second)
        cell.adjust_bandwidth(first, 1.0)
        cell.adjust_bandwidth(second, 1.0)
        for _ in range(6):
            cell.attach(voice_connection())  # used = 8, free = 4
        policy = AdaptiveQoSPolicy(AC1())
        policy.on_release(network, 0, now=0.0)
        assert first.bandwidth == 4.0     # oldest restored fully
        assert second.bandwidth == 2.0    # remainder
        assert cell.used_bandwidth == pytest.approx(12.0)

    def test_noop_without_degraded_connections(self):
        network = make_network()
        policy = AdaptiveQoSPolicy(AC1())
        policy.on_release(network, 0, now=0.0)
        assert policy.upgrades == 0


class TestDelegation:
    def test_name_and_install(self):
        network = make_network()
        policy = AdaptiveQoSPolicy(StaticReservationPolicy(3.0))
        policy.install(network)
        assert policy.name == "adaptive-static"
        assert all(cell.reserved_target == 3.0 for cell in network.cells)

    def test_admit_new_delegates(self):
        network = make_network(capacity=10.0)
        policy = AdaptiveQoSPolicy(StaticReservationPolicy(9.0))
        policy.install(network)
        decision = policy.admit_new(network, 0, 2.0, now=0.0)
        assert not decision.admitted


class TestEndToEnd:
    def test_simulation_with_adaptive_qos_holds_invariants(self):
        from dataclasses import replace

        from repro.simulation.scenarios import stationary
        from repro.simulation.simulator import CellularSimulator

        config = replace(
            stationary(
                "AC3", offered_load=250.0, voice_ratio=0.5,
                duration=300.0, seed=4,
            ),
            adaptive_qos=True,
        )
        simulator = CellularSimulator(config)
        result = simulator.run()
        assert result.total_handoff_attempts > 0
        for cell in simulator.network.cells:
            assert 0.0 <= cell.used_bandwidth <= cell.capacity + 1e-9
            total = sum(c.bandwidth for c in cell.connections())
            assert cell.used_bandwidth == pytest.approx(total)
        policy = simulator.policy
        assert policy.degradations > 0
        assert policy.upgrades > 0

    def test_min_qos_reservation_keeps_target_and_blocking(self):
        """With reservation on the minimum-QoS basis the window
        controller still bounds P_HD, and blocking does not get
        materially worse than the rigid run's."""
        from dataclasses import replace

        from repro.simulation.scenarios import stationary
        from repro.simulation.simulator import CellularSimulator

        rigid_config = stationary(
            "AC3", offered_load=250.0, voice_ratio=0.5,
            duration=900.0, warmup=300.0, seed=9,
        )
        rigid = CellularSimulator(rigid_config).run()
        adaptive = CellularSimulator(
            replace(rigid_config, adaptive_qos=True)
        ).run()
        assert adaptive.dropping_probability <= 0.02
        assert (
            adaptive.blocking_probability
            <= rigid.blocking_probability + 0.05
        )
