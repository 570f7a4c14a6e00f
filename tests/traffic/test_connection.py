"""Unit tests for connection lifecycle state."""

import pytest

from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import CellularSimulator
from repro.traffic.classes import VIDEO, VOICE
from repro.traffic.connection import Connection, ConnectionState


def test_initial_state():
    connection = Connection(VOICE, start_time=5.0, cell_id=2, connection_id=0)
    assert connection.is_active
    assert connection.state is ConnectionState.ACTIVE
    assert connection.prev_cell is None
    assert connection.bandwidth == 1.0
    assert connection.handoff_count == 0
    assert connection.end_time is None


def test_ids_are_unique_and_increasing():
    # The simulator that admits a connection numbers it, from 0 per run.
    for _ in range(2):
        simulator = CellularSimulator(SimulationConfig(num_cells=3))
        first = simulator.admit_request(0, VOICE)
        second = simulator.admit_request(1, VOICE)
        assert (first.connection_id, second.connection_id) == (0, 1)


def test_extant_sojourn():
    connection = Connection(
        VOICE, 0.0, 0, cell_entry_time=10.0, connection_id=0
    )
    assert connection.extant_sojourn(25.0) == 15.0


def test_move_to_updates_session_state():
    connection = Connection(
        VIDEO, 0.0, cell_id=3, cell_entry_time=0.0, connection_id=0
    )
    connection.move_to(4, now=30.0)
    assert connection.cell_id == 4
    assert connection.prev_cell == 3
    assert connection.cell_entry_time == 30.0
    assert connection.handoff_count == 1
    connection.move_to(5, now=60.0)
    assert connection.prev_cell == 4
    assert connection.handoff_count == 2


def test_finish_completed():
    connection = Connection(VOICE, 0.0, 0, connection_id=0)
    connection.finish(ConnectionState.COMPLETED, now=42.0)
    assert not connection.is_active
    assert connection.end_time == 42.0


def test_finish_twice_raises():
    connection = Connection(VOICE, 0.0, 0, connection_id=0)
    connection.finish(ConnectionState.DROPPED, now=1.0)
    with pytest.raises(RuntimeError):
        connection.finish(ConnectionState.COMPLETED, now=2.0)


@pytest.mark.parametrize(
    "state",
    [ConnectionState.COMPLETED, ConnectionState.DROPPED,
     ConnectionState.EXITED],
)
def test_terminal_states(state):
    connection = Connection(VOICE, 0.0, 0, connection_id=0)
    connection.finish(state, now=1.0)
    assert connection.state is state
    assert not connection.is_active
