"""Progress heartbeats: time-series sampler rows rendered as lines."""

import io
import json
from dataclasses import replace

import pytest

from repro.des import Engine
from repro.des.engine import OBSERVER_EVENTS
from repro.obs.logs import configure_logging
from repro.obs.timeseries import TimeSeriesSampler, progress_renderer
from repro.simulation.scenarios import hex_city
from repro.simulation.spatial import run_spatial

#: Enough events for the engine's observer to come round three times.
EVENTS = 3 * OBSERVER_EVENTS + 5


def _run_engine(engine, events=EVENTS):
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < events:
            engine.call_in(1.0, tick)

    engine.call_in(1.0, tick)
    return tick


def _row(t, wall, events=2000, rate=500.0, **extra):
    """A sampler row with the fields the renderer reads."""
    row = {"t": t, "wall": wall, "shard": None, "events": events,
           "events_per_s": rate, "heap": 3}  # fmt: skip
    row.update(extra)
    return row


def _heartbeat_sampler(engine, stream, interval=1e-9):
    sampler = TimeSeriesSampler(engine, wall_interval=interval, label="test")
    sampler.on_row = progress_renderer(float(EVENTS), interval, stream)
    return sampler


class TestProgressReporter:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            progress_renderer(100.0, 0.0)

    def test_emits_via_engine_heartbeat(self):
        engine = Engine()
        stream = io.StringIO()
        sampler = _heartbeat_sampler(engine, stream)
        _run_engine(engine)
        engine.run(observer=sampler.maybe_sample)
        sampler.final()
        lines = stream.getvalue().splitlines()
        # One per observer call plus the final row.
        assert len(lines) == sampler.total_samples == 4
        assert all(line.startswith("[test] ") for line in lines)
        assert "events/s" in lines[0]
        assert "done:" in lines[-1]

    def test_wall_throttling(self):
        stream = io.StringIO()
        render = progress_renderer(100.0, 5.0, stream)
        for t, wall in ((10.0, 1.0), (20.0, 5.0), (30.0, 9.0), (40.0, 10.0)):
            render(_row(t, wall))
        # Rows 5 s of wall apart: the first and third are throttled.
        lines = stream.getvalue().splitlines()
        assert [line.split()[0] for line in lines] == ["t=20/100s", "t=40/100s"]
        # The final row is never throttled.
        render(_row(100.0, 10.5, final=True))
        assert "done:" in stream.getvalue().splitlines()[-1]

    def test_heartbeat_does_not_change_event_count(self):
        plain = Engine()
        _run_engine(plain)
        plain.run()
        observed = Engine()
        sampler = _heartbeat_sampler(observed, io.StringIO())
        _run_engine(observed)
        observed.run(observer=sampler.maybe_sample)
        assert observed.events_processed == plain.events_processed
        assert observed.now == plain.now

    def test_line_and_done_line_read_the_row(self):
        stream = io.StringIO()
        render = progress_renderer(100.0, 1.0, stream)
        render(_row(25.0, 2.0, events=1000, rate=480.0, label="city", shard=1))
        render(_row(100.0, 4.0, label="city", shard=1, final=True))
        progress, done = stream.getvalue().splitlines()
        assert progress == (
            "[city s1] t=25/100s (25%)  480 events/s  wall=2.0s  eta=6s"
        )
        assert done == (
            "[city s1] done: t=100s in 4.0s wall, 2,000 events"
            " (500 events/s overall)"
        )

    def test_eta_is_unknown_at_t_zero(self):
        stream = io.StringIO()
        progress_renderer(100.0, 1.0, stream)(_row(0.0, 1.0))
        assert stream.getvalue().rstrip().endswith("eta=?")

    def test_logger_path_carries_the_row_as_extras(self):
        logged = io.StringIO()
        configure_logging("info", json_lines=True, stream=logged)
        stream = io.StringIO()
        render = progress_renderer(100.0, 1.0, stream)
        render(_row(0.0, 1.0, label="ring"))
        render(_row(50.0, 2.0, label="ring"))
        render(_row(100.0, 3.0, label="ring", final=True))
        assert stream.getvalue() == ""
        first, middle, last = (
            json.loads(line) for line in logged.getvalue().splitlines()
        )
        assert first["logger"] == "repro.progress"
        assert first["msg"] == "progress"
        assert first["eta_s"] is None
        assert middle["t"] == 50.0
        assert middle["events_per_s"] == 500.0
        assert middle["label"] == "ring"
        assert middle["fraction"] == 0.5
        assert middle["eta_s"] == 2.0
        assert last["msg"] == "run complete"
        assert last["final"] is True
        assert last["eta_s"] == 0.0


class TestShardedProgress:
    def test_each_shard_renders_its_own_lines(self, capsys):
        config = hex_city(
            "AC3", rows=6, cols=6, offered_load=150.0, voice_ratio=0.8,
            duration=40.0, seed=11, label="city",
        )  # fmt: skip
        quiet = run_spatial(config, 2, processes=False)
        capsys.readouterr()
        noisy = run_spatial(
            replace(config, progress_interval=1e-6), 2, processes=False
        )
        assert noisy.metrics_key() == quiet.metrics_key()
        assert noisy.timeseries is None
        lines = capsys.readouterr().err.splitlines()
        for shard in (0, 1):
            tag = f"[city s{shard}] "
            tagged = [line for line in lines if line.startswith(tag)]
            assert len(tagged) > 1
            assert "done:" in tagged[-1]
