"""Tests for the CDMA §7 extensions: soft capacity and soft hand-off."""

from dataclasses import replace
from itertools import count

import pytest

from repro.cellular.cell import Cell
from repro.simulation.config import SimulationConfig
from repro.simulation.scenarios import stationary
from repro.simulation.simulator import CellularSimulator
from repro.traffic.classes import VOICE
from repro.mobility.models import Transition
from repro.traffic.connection import Connection, ConnectionState

#: Connection ids, unique across this module's tests.
_ids = count()


class TestSoftCapacityCell:
    def test_handoff_capacity_above_nominal(self):
        cell = Cell(0, 100.0, handoff_overload=1.1)
        assert cell.handoff_capacity == pytest.approx(110.0)

    def test_handoffs_may_use_overload_margin(self):
        cell = Cell(0, 10.0, handoff_overload=1.2)
        for _ in range(10):
            cell.attach(Connection(VOICE, 0.0, 0, connection_id=next(_ids)))
        assert cell.fits_handoff(2.0)
        assert not cell.fits_handoff(3.0)
        assert not cell.fits_new_connection(1.0)

    def test_default_overload_is_hard_capacity(self):
        cell = Cell(0, 10.0)
        assert cell.handoff_capacity == 10.0

    def test_invalid_overload_rejected(self):
        with pytest.raises(ValueError):
            Cell(0, 10.0, handoff_overload=0.9)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(handoff_overload=0.5)
        with pytest.raises(ValueError):
            SimulationConfig(soft_handoff_window=-1.0)
        with pytest.raises(ValueError):
            SimulationConfig(soft_handoff_retry_interval=0.0)


def overloaded(seed=3, **overrides):
    base = stationary(
        "static",
        offered_load=250.0,
        voice_ratio=0.5,
        duration=400.0,
        warmup=100.0,
        seed=seed,
    )
    return replace(base, **overrides) if overrides else base


class TestSoftCapacityEndToEnd:
    def test_overload_margin_reduces_drops(self):
        hard = CellularSimulator(overloaded()).run()
        soft = CellularSimulator(
            overloaded(handoff_overload=1.1)
        ).run()
        assert soft.dropping_probability < hard.dropping_probability

    def test_usage_may_exceed_nominal_but_not_overload(self):
        simulator = CellularSimulator(overloaded(handoff_overload=1.1))
        simulator.run()
        for cell in simulator.network.cells:
            assert cell.used_bandwidth <= cell.handoff_capacity + 1e-9


class TestSoftHandoffEndToEnd:
    def test_window_reduces_drops(self):
        hard = CellularSimulator(overloaded()).run()
        soft = CellularSimulator(
            overloaded(soft_handoff_window=5.0)
        ).run()
        assert soft.dropping_probability < hard.dropping_probability

    def test_conservation_with_retries(self):
        # warmup=0: conservation is only exact when counting from t=0.
        simulator = CellularSimulator(
            overloaded(soft_handoff_window=5.0, warmup=0.0)
        )
        result = simulator.run()
        requests = sum(c.new_requests for c in result.cells)
        blocked = sum(c.blocked for c in result.cells)
        completed = sum(c.completed for c in result.cells)
        drops = sum(c.handoff_drops for c in result.cells)
        in_flight = len(simulator.active_connections)
        assert requests - blocked == completed + drops + in_flight
        for cell in simulator.network.cells:
            total = sum(c.bandwidth for c in cell.connections())
            assert cell.used_bandwidth == pytest.approx(total)

    def test_quadruplets_recorded_once_per_resolution(self):
        simulator = CellularSimulator(
            overloaded(soft_handoff_window=5.0, warmup=0.0)
        )
        result = simulator.run()
        attempts = sum(c.handoff_attempts for c in result.cells)
        exits = sum(c.exited for c in result.cells)
        recorded = sum(
            station.estimator.cache.total_recorded
            for station in simulator.network.stations
        )
        # Retried crossings must not double-record quadruplets.
        assert recorded == attempts + exits

    def test_lifetime_end_cancels_pending_soft_retry(self):
        # A connection whose lifetime expires mid-window must terminate
        # cleanly (no resurrection by the pending retry event).
        simulator = CellularSimulator(
            overloaded(soft_handoff_window=30.0, seed=8)
        )
        simulator.run()
        for connection in simulator.active_connections.values():
            assert connection.is_active

    def test_lifetime_ending_between_two_retries_completes_at_its_end(self):
        # The one-event rule against ``retry_at``: crossing refused at
        # t=1, retried (and refused) at t=2, lifetime over at t=2.5 —
        # before the t=3 retry, so the end is what gets queued.
        simulator = CellularSimulator(
            overloaded(
                soft_handoff_window=10.0,
                soft_handoff_retry_interval=1.0,
                warmup=0.0,
            )
        )
        full = simulator.network.cell(1)
        for _ in range(int(full.capacity)):
            full.attach(Connection(VOICE, 0.0, 1, connection_id=next(_ids)))
        connection = Connection(
            VOICE, 0.0, 0, planned_end=2.5, connection_id=next(_ids)
        )
        simulator.network.cell(0).attach(connection)
        simulator.active_connections[connection.connection_id] = connection
        simulator._schedule_one(connection, 1.0, Transition(1.0, 1))
        engine = simulator.engine
        fired = []
        while engine.pending:
            # One entry: the connection's single next event.
            ((time, *_),) = engine.queued()
            fired.append(time)
            engine.advance_to(time)
        assert fired == [1.0, 2.0, 2.5]
        assert connection.state is ConnectionState.COMPLETED
        assert connection.end_time == 2.5
        assert not simulator.active_connections
        assert simulator.network.cell(0).connection_count == 0
        counters = simulator.metrics.cells
        assert counters[0].completed == 1
        assert counters[1].handoff_attempts == counters[1].handoff_drops == 0

    def test_combined_mechanisms_compound(self):
        hard = CellularSimulator(overloaded()).run()
        both = CellularSimulator(
            overloaded(handoff_overload=1.1, soft_handoff_window=5.0)
        ).run()
        assert both.dropping_probability < hard.dropping_probability / 2
