"""Observation must not perturb the simulation.

The load-bearing invariant of the observability layer: a telemetry-on
run, a telemetry-off run, and a progress-reporting run of the same
scenario produce bit-identical ``metrics_key()`` dictionaries.
"""

from repro.simulation.config import SimulationConfig
from repro.simulation.runner import run_sweep
from repro.simulation.scenarios import stationary
from repro.simulation.simulator import CellularSimulator, simulate


def _scenario(**overrides):
    return stationary(
        "AC3", offered_load=180.0, duration=200.0, seed=11, **overrides
    )


class TestTelemetryParity:
    def test_metrics_identical_on_and_off(self):
        off = simulate(_scenario())
        on = simulate(_scenario(telemetry=True))
        assert off.telemetry is None
        assert on.telemetry is not None
        assert on.metrics_key() == off.metrics_key()

    def test_snapshot_counters_match_result(self):
        result = simulate(_scenario(telemetry=True))
        counters = result.telemetry["counters"]
        assert counters["des.events_fired"] == result.events_processed
        attempts = sum(cell.handoff_attempts for cell in result.cells)
        drops = sum(cell.handoff_drops for cell in result.cells)
        assert (
            counters['cellular.admissions{kind="handoff",outcome="accepted"}']
            == attempts - drops
        )
        assert (
            counters['cellular.admissions{kind="handoff",outcome="dropped"}']
            == drops
        )
        assert counters["des.events_fired"] > 0
        assert (
            counters['estimation.eq4_batches{path="resident"}']
            + counters['estimation.eq4_batches{path="walk"}']
            > 0
        )

    def test_run_id_attached_and_excluded_from_key(self):
        result = simulate(_scenario(telemetry=True, run_id="fixed0run0id"))
        assert result.run_id == "fixed0run0id"
        assert result.telemetry["run_id"] == "fixed0run0id"
        key = result.metrics_key()
        assert "run_id" not in key
        assert "telemetry" not in key
        assert "wall_seconds" not in key

    def test_progress_heartbeat_does_not_change_metrics(self, capsys):
        quiet = simulate(_scenario())
        noisy = CellularSimulator(_scenario(progress_interval=1e-6)).run()
        assert noisy.metrics_key() == quiet.metrics_key()
        assert "events/s" in capsys.readouterr().err

    def test_config_defaults_off(self):
        config = SimulationConfig()
        assert config.telemetry is False
        assert config.progress_interval == 0.0
        assert config.run_id == ""


class TestSweepMerge:
    def test_worker_snapshots_ride_results(self):
        configs = [
            stationary(
                "AC3", offered_load=load, duration=120.0, seed=11,
                telemetry=True,
            )
            for load in (60.0, 120.0)
        ]
        sequential = run_sweep(configs)
        parallel = run_sweep(configs, workers=2)
        for result in parallel:
            assert result.telemetry is not None
            assert result.telemetry["counters"]["des.events_fired"] > 0
        # Pool workers return the same simulation (and telemetry
        # counters) as the in-process run.
        for seq, par in zip(sequential, parallel):
            assert seq.metrics_key() == par.metrics_key()
            assert (
                seq.telemetry["counters"] == par.telemetry["counters"]
            )
