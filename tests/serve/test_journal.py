"""The run's one journal: ``repro run --trace-jsonl`` writes the recorded
decision stream, :func:`lifecycle_violations` checks it, and the stream
driver replays it; :func:`decode_event` refuses what the WebSocket
front refuses."""

import json
import math

import pytest

from repro.cli import _build_config, build_parser, main
from repro.serve import StreamDriver, comparable_counters
from repro.serve.events import (
    ARRIVAL,
    COMPLETE,
    EXIT,
    HANDOFF,
    RunRecorder,
    StreamEvent,
    decode_event,
    lifecycle_violations,
    read_events,
    record_run,
)
from repro.simulation.simulator import CellularSimulator

RUN = ["run", "--load", "200", "--duration", "120", "--seed", "4"]


def _allocations(simulator) -> dict[int, float]:
    return {
        conn: connection.bandwidth
        for conn, connection in simulator.active_connections.items()
    }


def test_back_to_back_runs_in_one_process_record_the_same_journal():
    # A run numbers its own connections and mobiles, so the runs before
    # it in this process cannot shift the ids its journal carries.
    config = _build_config(build_parser().parse_args(RUN))
    first, _ = record_run(config)
    second, _ = record_run(config)
    assert first
    assert first == second


@pytest.mark.parametrize(
    "flags",
    [
        pytest.param([], id="ac3-ring"),
        pytest.param(["--one-way"], id="one-way"),
        pytest.param(["--adaptive-qos", "--rvo", "0.5"], id="adaptive-qos"),
    ],
)
def test_cli_journal_is_the_recorded_stream_and_replays(
    capsys, tmp_path, flags
):
    journal = tmp_path / "journal.jsonl"
    argv = [*RUN, *flags, "--trace-jsonl", str(journal)]
    assert main(argv) == 0
    capsys.readouterr()
    with journal.open(encoding="utf-8") as handle:
        events = read_events(handle)

    config = _build_config(build_parser().parse_args(argv))
    simulator = CellularSimulator(config)
    simulator.recorder = RunRecorder()
    result = simulator.run()
    assert events == simulator.recorder.events
    assert lifecycle_violations(events) == []
    assert any(event.kind == HANDOFF for event in events)
    assert any(event.kind == EXIT for event in events) is ("--one-way" in flags)

    driver = StreamDriver(config)
    driver.sim.recorder = RunRecorder()
    decisions = driver.replay(events)
    driver.finish()
    queries = [event for event in events if event.kind in (ARRIVAL, HANDOFF)]
    assert [d.admitted for d in decisions] == [e.admitted for e in queries]
    assert comparable_counters(driver.result()) == comparable_counters(result)
    assert driver.sim.recorder.events == events
    # The journal carries no bandwidth column: a degraded allocation is
    # a function of the decisions before it, so the replay re-derives it.
    allocations = _allocations(simulator)
    assert _allocations(driver.sim) == allocations
    degraded = [
        conn
        for conn, connection in simulator.active_connections.items()
        if connection.bandwidth < connection.traffic_class.bandwidth
    ]
    assert bool(degraded) is ("--adaptive-qos" in flags)


class TestLifecycleViolations:
    """Each mutation of a valid recorded stream is flagged."""

    @pytest.fixture(scope="class")
    def stream(self):
        config = _build_config(
            build_parser().parse_args([*RUN, "--duration", "60"])
        )
        simulator = CellularSimulator(config)
        simulator.recorder = RunRecorder()
        simulator.run()
        events = simulator.recorder.events
        assert lifecycle_violations(events) == []
        return events

    @staticmethod
    def _first(events, predicate):
        return next(i for i, event in enumerate(events) if predicate(event))

    def test_handoff_before_its_arrival(self, stream):
        events = list(stream)
        index = self._first(events, lambda e: e.kind == HANDOFF)
        arrival = self._first(
            events, lambda e: e.kind == ARRIVAL and e.conn == events[index].conn
        )
        moved = events.pop(index)
        events.insert(
            arrival,
            StreamEvent(events[arrival].t, moved.kind, moved.cell, moved.conn,
                        moved.traffic, moved.admitted),
        )
        assert any(
            "before its arrival" in problem
            for problem in lifecycle_violations(events)
        )

    def test_event_after_a_terminal_one(self, stream):
        events = list(stream)
        index = self._first(events, lambda e: e.kind in (COMPLETE, EXIT))
        events.append(
            StreamEvent(t=events[-1].t, kind=HANDOFF, cell=0,
                        conn=events[index].conn, admitted=True)
        )
        assert any(
            "after its terminal event" in problem
            for problem in lifecycle_violations(events)
        )

    def test_out_of_order_t(self, stream):
        events = list(stream)
        events[10], events[11] = events[11], events[10]
        assert events[10].t > events[11].t
        assert lifecycle_violations(events)

    def test_second_arrival_under_a_live_conn(self, stream):
        events = list(stream)
        index = self._first(
            events, lambda e: e.kind == ARRIVAL and e.admitted
        )
        first = events[index]
        again = StreamEvent(events[index + 1].t, first.kind, first.cell,
                            first.conn, first.traffic, first.admitted)
        events.insert(index + 1, again)
        assert any(
            "second arrival of a live connection" in problem
            for problem in lifecycle_violations(events)
        )

    def test_freed_id_may_be_admitted_again(self):
        events = [
            StreamEvent(t=1.0, kind=ARRIVAL, cell=0, conn=7, admitted=True),
            StreamEvent(t=2.0, kind=HANDOFF, cell=1, conn=7, admitted=False),
            StreamEvent(t=3.0, kind=ARRIVAL, cell=0, admitted=False),
            StreamEvent(t=4.0, kind=ARRIVAL, cell=0, conn=7, admitted=True),
        ]
        assert lifecycle_violations(events) == []


class TestDecodeRefusesWhatTheWireRefuses:
    @pytest.mark.parametrize(
        "fields",
        [
            {"cell": 1.9},
            {"cell": True},
            {"conn": 2.5},
            {"conn": True},
            {"t": "5"},
            {"t": True},
            {"t": float("nan")},
            {"t": float("inf")},
            {"t": 10**400},
            {"traffic": 3},
            {"traffic": None},
            {"admitted": 1},
            {"admitted": "yes"},
        ],
        ids=repr,
    )
    def test_mistyped_field_raises_value_error(self, fields):
        raw = {"kind": "handoff", "cell": 1, "conn": 1, "t": 5.0, **fields}
        with pytest.raises(ValueError):
            decode_event(raw)
        with pytest.raises(ValueError):
            decode_event(json.dumps(raw))

    def test_well_formed_fields_pass(self):
        event = decode_event(
            '{"kind": "arrival", "cell": 2, "conn": 3, "t": 5,'
            ' "traffic": "video", "admitted": false}'
        )
        assert event == StreamEvent(
            t=5.0, kind=ARRIVAL, cell=2, conn=3, traffic="video",
            admitted=False,
        )
        assert math.isfinite(event.t) and type(event.t) is float
        assert decode_event({"kind": "complete", "conn": 1}).t is None
