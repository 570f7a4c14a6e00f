"""Unit + integration tests for wired reservation and re-routing."""

import pytest

from repro.simulation.scenarios import stationary
from repro.simulation.simulator import CellularSimulator
from repro.wired.extension import WiredBackboneExtension
from repro.wired.graph import BackboneGraph, chain_backbone, star_backbone
from repro.wired.reservation import WiredReservationManager


def small_chain():
    # bs0-r0-gateway, bs1-r0, bs2-r1-r0
    graph = BackboneGraph()
    graph.add_link("bs0", "router0", 10.0)
    graph.add_link("bs1", "router0", 10.0)
    graph.add_link("bs2", "router1", 10.0)
    graph.add_link("router1", "router0", 10.0)
    graph.add_link("router0", "gateway", 10.0)
    return graph


class TestAdmission:
    def test_admit_reserves_whole_path(self):
        manager = WiredReservationManager(small_chain())
        assert manager.admit_new(1, 2, 4.0)
        assert manager.route_of(1) == [
            "bs2", "router1", "router0", "gateway",
        ]
        for pair in [("bs2", "router1"), ("router0", "router1"),
                     ("gateway", "router0")]:
            assert manager.graph.link(*pair).used_bandwidth == 4.0

    def test_admit_blocks_on_any_full_link(self):
        manager = WiredReservationManager(small_chain())
        assert manager.admit_new(1, 0, 8.0)   # fills gateway link to 8
        assert not manager.admit_new(2, 1, 4.0)
        assert manager.wired_blocks == 1
        # The failed admission must not leak partial allocations.
        assert manager.graph.link("bs1", "router0").used_bandwidth == 0.0

    def test_admit_respects_link_reservation_targets(self):
        manager = WiredReservationManager(small_chain())
        manager.refresh_link_targets({0: 7.0})
        # bs0's route links now reserve 7 BUs for expected hand-offs.
        assert not manager.admit_new(1, 0, 4.0)
        assert manager.admit_new(2, 2, 4.0) is False  # shares router0-gw
        assert manager.admit_new(3, 2, 3.0)

    def test_non_predictive_ignores_targets(self):
        manager = WiredReservationManager(small_chain(), predictive=False)
        manager.refresh_link_targets({0: 7.0})
        assert manager.admit_new(1, 0, 4.0)


class TestReroute:
    def test_shared_links_kept(self):
        manager = WiredReservationManager(small_chain())
        manager.admit_new(1, 1, 4.0)  # bs1-r0-gateway
        assert manager.reroute(1, 0, 4.0)  # bs0-r0-gateway
        assert manager.graph.link("bs1", "router0").used_bandwidth == 0.0
        assert manager.graph.link("bs0", "router0").used_bandwidth == 4.0
        # The shared router0-gateway link kept its single allocation.
        assert manager.graph.link("router0", "gateway").used_bandwidth == 4.0

    def test_reroute_may_use_reserved_band(self):
        manager = WiredReservationManager(small_chain())
        manager.admit_new(1, 1, 4.0)
        manager.refresh_link_targets({0: 9.0})
        # A *new* connection could not take bs0's access link now, but
        # the re-route can: reserved bandwidth exists exactly for it.
        assert manager.reroute(1, 0, 4.0)

    def test_failed_reroute_keeps_old_route(self):
        manager = WiredReservationManager(small_chain())
        manager.admit_new(1, 1, 4.0)
        # Fill bs0's access link with unrelated traffic (e.g. local
        # sessions that never touch the gateway).
        manager.graph.link("bs0", "router0").allocate(99, 8.0)
        assert not manager.reroute(1, 0, 4.0)
        assert manager.wired_drops == 1
        # The old route is preserved: the caller decides drop vs retry
        # (soft hand-off windows keep trying).
        assert manager.route_of(1) == ["bs1", "router0", "gateway"]
        assert manager.graph.link("bs1", "router0").used_bandwidth == 4.0
        # A later release (the drop path) frees everything.
        manager.release(1)
        assert manager.graph.link("bs1", "router0").used_bandwidth == 0.0
        assert manager.graph.link("router0", "gateway").used_bandwidth == 0.0
        # The unrelated allocation is untouched.
        assert manager.graph.link("bs0", "router0").used_bandwidth == 8.0

    def test_reroute_unknown_connection_raises(self):
        manager = WiredReservationManager(small_chain())
        with pytest.raises(KeyError):
            manager.reroute(42, 0, 1.0)


class TestRelease:
    def test_release_frees_all_links(self):
        manager = WiredReservationManager(small_chain())
        manager.admit_new(1, 2, 4.0)
        manager.release(1)
        assert manager.active_routes() == 0
        assert all(
            link.used_bandwidth == 0.0 for link in manager.graph.links()
        )

    def test_release_is_idempotent(self):
        manager = WiredReservationManager(small_chain())
        manager.admit_new(1, 0, 4.0)
        manager.release(1)
        manager.release(1)  # no error


class TestSimulatorIntegration:
    def run_with_backbone(self, graph, duration=200.0, load=200.0):
        manager = WiredReservationManager(graph)
        config = stationary("AC3", offered_load=load, duration=duration,
                            seed=5)
        simulator = CellularSimulator(
            config, backbone=WiredBackboneExtension(manager)
        )
        result = simulator.run()
        return simulator, manager, result

    def test_routes_track_active_connections(self):
        simulator, manager, _result = self.run_with_backbone(
            chain_backbone(10, access_capacity=300.0, trunk_capacity=500.0)
        )
        assert manager.active_routes() == len(simulator.active_connections)

    def test_wired_bottleneck_raises_blocking(self):
        _sim, tight_manager, tight = self.run_with_backbone(
            star_backbone(10, access_capacity=150.0, uplink_capacity=300.0)
        )
        _sim2, _m, roomy = self.run_with_backbone(
            star_backbone(10, access_capacity=1e6, uplink_capacity=1e6)
        )
        assert tight.blocking_probability > roomy.blocking_probability
        assert tight_manager.wired_blocks > 0

    def test_no_link_over_capacity(self):
        _sim, manager, _result = self.run_with_backbone(
            chain_backbone(10, access_capacity=200.0, trunk_capacity=400.0)
        )
        for link in manager.graph.links():
            assert link.used_bandwidth <= link.capacity + 1e-9
        # A tree backbone never fails a re-route, warm-up included.
        assert manager.wired_drops == 0

    def test_install_rejects_unreachable_cells(self):
        graph = BackboneGraph()
        graph.add_link("bs0", "gateway", 10.0)  # only cell 0 connected
        manager = WiredReservationManager(graph)
        config = stationary("AC3", offered_load=100.0, duration=50.0)
        with pytest.raises(ValueError):
            CellularSimulator(
                config, backbone=WiredBackboneExtension(manager)
            )
