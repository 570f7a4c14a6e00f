"""Tests for the simulator's wired-backbone hooks, with a fake backbone."""

import pytest

from repro.simulation.scenarios import stationary
from repro.simulation.simulator import CellularSimulator


class Recorder:
    """Backbone capturing every hook invocation."""

    def __init__(self, veto_new=False, veto_handoff=False):
        self.veto_new = veto_new
        self.veto_handoff = veto_handoff
        self.calls = []

    def install(self, network):
        self.calls.append(("install", network.num_cells))

    def admit_new(self, connection, cell_id, now):
        self.calls.append(("admit_new", cell_id))
        return not self.veto_new

    def admit_handoff(self, connection, old_cell, new_cell, now):
        self.calls.append(("admit_handoff", old_cell, new_cell))
        return not self.veto_handoff

    def on_connection_end(self, connection, now):
        self.calls.append(("end", connection.state.value))

    def count(self, kind):
        return sum(1 for call in self.calls if call[0] == kind)


class TestSimulatorIntegration:
    def run(self, backbone, duration=150.0, load=150.0):
        config = stationary("AC3", offered_load=load, duration=duration,
                            seed=3)
        simulator = CellularSimulator(config, backbone=backbone)
        return simulator, simulator.run()

    def test_hooks_fire_in_plausible_volumes(self):
        recorder = Recorder()
        simulator, result = self.run(recorder)
        admitted = result.total_new_requests - sum(
            cell.blocked for cell in result.cells
        )
        assert recorder.count("install") == 1
        assert recorder.count("admit_new") == admitted  # only on accepts
        successes = sum(
            cell.handoff_attempts - cell.handoff_drops
            for cell in result.cells
        )
        assert recorder.count("admit_handoff") >= successes
        # Every admitted connection ends at most once; the rest are live.
        assert recorder.count("end") == admitted - len(
            simulator.active_connections
        )

    def test_new_veto_blocks_everything(self):
        recorder = Recorder(veto_new=True)
        _simulator, result = self.run(recorder)
        assert result.blocking_probability == 1.0
        assert recorder.count("admit_new") > 0
        assert recorder.count("end") == 0
        assert result.total_handoff_attempts == 0

    def test_handoff_veto_drops_all_handoffs(self):
        recorder = Recorder(veto_handoff=True)
        simulator, result = self.run(recorder)
        assert result.total_handoff_attempts > 0
        assert result.dropping_probability == pytest.approx(1.0)
        # Every admitted connection still terminates exactly once.
        assert recorder.count("end") == recorder.count("admit_new") - len(
            simulator.active_connections
        )

    def test_veto_drop_feeds_window_controller(self):
        recorder = Recorder(veto_handoff=True)
        simulator, _result = self.run(recorder, duration=100.0)
        drops = sum(
            station.window.total_drops
            for station in simulator.network.stations
        )
        assert drops == sum(
            cell.handoff_drops for cell in simulator.metrics.cells
        )
        assert drops > 0
