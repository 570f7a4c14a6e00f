"""The parity proof: streaming mode == virtual-time DES, decision for
decision and counter for counter, on the same event sequence."""

import pytest

from repro.serve import StreamDriver, comparable_counters, record_run
from repro.serve.events import (
    ARRIVAL,
    COMPLETE,
    EXIT,
    HANDOFF,
    RunRecorder,
    StreamEvent,
    lifecycle_violations,
    read_events,
    write_events,
)
from repro.simulation.scenarios import stationary
from repro.simulation.simulator import simulate


def _config(**overrides):
    defaults = dict(
        offered_load=250.0, duration=300.0, seed=11, num_cells=6
    )
    defaults.update(overrides)
    scheme = defaults.pop("scheme", "AC3")
    return stationary(scheme, **defaults)


@pytest.mark.parametrize(
    "scheme, ring",
    [
        pytest.param("AC1", True, id="AC1"),
        pytest.param("AC2", True, id="AC2"),
        pytest.param("AC3", True, id="AC3"),
        pytest.param("static", True, id="static"),
        pytest.param("AC3", False, id="AC3-open-road"),
    ],
)
def test_replay_matches_des_decisions_and_counters(scheme, ring):
    events, des_result = record_run(_config(scheme=scheme, ring=ring))
    assert events, "the recorded stream should not be empty"
    assert any(event.kind == HANDOFF for event in events)
    assert any(event.kind == EXIT for event in events) is not ring

    # Both runs number their connections from zero, so the stream ids
    # the replay files connections under are the ids it re-records.
    driver = StreamDriver(_config(scheme=scheme, ring=ring))
    driver.sim.recorder = RunRecorder()
    decisions = driver.replay(events)
    driver.finish()
    live_result = driver.result()

    queries = [e for e in events if e.kind in (ARRIVAL, HANDOFF)]
    assert [d.admitted for d in decisions] == [e.admitted for e in queries]
    assert comparable_counters(live_result) == comparable_counters(des_result)
    # Record -> replay -> record is a fixed point: the driver walked the
    # simulator's own transitions, recorder hooks included, and both
    # streams are whole life-cycles.
    assert driver.sim.recorder.events == events
    assert lifecycle_violations(events) == []
    assert lifecycle_violations(driver.sim.recorder.events) == []


class TestConnectionIdsInUse:
    """An ``admit`` may not name a stream id that is live or queued:
    the second connection would displace the first in the id map and
    hold its bandwidth with no id left to release it."""

    def _driver(self):
        return StreamDriver(stationary("static", 100, duration=100, seed=1))

    def test_second_admit_of_a_live_id_is_refused(self):
        driver = self._driver()
        first = driver.apply(StreamEvent(t=1.0, kind=ARRIVAL, cell=0, conn=7))
        assert first.admitted and first.conn == 7 and first.used == 1.0
        for t in (2.0, 3.0, 4.0, 5.0):
            with pytest.raises(ValueError, match="connection id 7 is in use"):
                driver.submit(StreamEvent(t=t, kind=ARRIVAL, cell=0, conn=7))
        driver.flush()
        cell = driver.network.cell(0)
        assert cell.used_bandwidth == 1.0
        assert driver.active_connections == len(driver.sim.active_connections) == 1
        driver.apply(StreamEvent(t=6.0, kind=COMPLETE, conn=7))
        assert cell.used_bandwidth == 0.0
        assert driver.active_connections == len(driver.sim.active_connections) == 0
        assert driver.ignored == 0

    def test_an_id_queued_earlier_in_the_group_is_refused(self):
        driver = self._driver()
        first = driver.submit(StreamEvent(t=1.0, kind=ARRIVAL, cell=0, conn=7))
        with pytest.raises(ValueError, match="in use"):
            driver.submit(StreamEvent(t=1.0, kind=ARRIVAL, cell=1, conn=7))
        # A driver-allocated id never lands on one a sender chose.
        auto = driver.submit(StreamEvent(t=1.0, kind=ARRIVAL, cell=1))
        driver.flush()
        assert first.decision.conn == 7 and auto.decision.conn == 8
        assert driver.active_connections == len(driver.sim.active_connections) == 2

    def test_a_nan_timestamp_is_refused_and_files_nothing(self):
        # NaN is neither before nor after anything: let through, its
        # slot is never decided and the next flush sets the clock to NaN.
        driver = self._driver()
        pending = driver.engine.pending
        with pytest.raises(ValueError, match="timestamp nan"):
            driver.submit(
                StreamEvent(t=float("nan"), kind=ARRIVAL, cell=0, conn=1)
            )
        assert driver.engine.pending == pending
        decision = driver.apply(StreamEvent(t=1.0, kind=ARRIVAL, cell=0, conn=1))
        assert decision.admitted and decision.conn == 1
        assert driver.engine.now == 1.0

    @pytest.mark.parametrize("ending", [COMPLETE, EXIT, HANDOFF])
    def test_a_freed_id_is_admissible_again(self, ending):
        # Cell 1 filled to capacity (new calls up to the guard band,
        # hand-offs the rest of the way): a hand-off into it is dropped,
        # which frees the id like a completion or an exit.
        driver = self._driver()
        for conn in range(100):
            cell = 1 if conn < 90 else 0
            driver.apply(StreamEvent(t=0.5, kind=ARRIVAL, cell=cell, conn=conn))
        for conn in range(90, 100):
            driver.apply(StreamEvent(t=0.6, kind=HANDOFF, cell=1, conn=conn))
        assert driver.network.cell(1).used_bandwidth == 100.0
        assert driver.apply(
            StreamEvent(t=1.0, kind=ARRIVAL, cell=0, conn=700)
        ).admitted
        outcome = driver.apply(StreamEvent(t=2.0, kind=ending, cell=1, conn=700))
        if ending == HANDOFF:
            assert not outcome.admitted
        again = driver.apply(StreamEvent(t=3.0, kind=ARRIVAL, cell=0, conn=700))
        assert again.admitted and again.conn == 700
        assert driver.network.cell(0).used_bandwidth == 1.0


def test_recording_does_not_perturb_the_run():
    plain = simulate(_config())
    _events, recorded = record_run(_config())
    assert recorded.metrics_key() == plain.metrics_key()


def test_stream_roundtrips_through_jsonl(tmp_path):
    events, _ = record_run(_config(duration=60.0))
    path = tmp_path / "events.jsonl"
    with path.open("w") as handle:
        write_events(handle, events)
    with path.open() as handle:
        assert read_events(handle) == events


def test_streaming_mode_rejects_des_only_features():
    with pytest.raises(ValueError, match="retry"):
        StreamDriver(_config(retry_enabled=True))
    with pytest.raises(ValueError, match="soft_handoff"):
        StreamDriver(_config(soft_handoff_window=2.0))
