"""Unit tests for the discrete-event engine."""

import pytest

from repro.des import Engine, EventPriority, SimulationError


def test_starts_at_zero():
    assert Engine().now == 0.0


def test_custom_start_time():
    assert Engine(start_time=5.0).now == 5.0


def test_call_at_fires_in_time_order():
    engine = Engine()
    fired = []
    engine.call_at(3.0, lambda: fired.append(3.0))
    engine.call_at(1.0, lambda: fired.append(1.0))
    engine.call_at(2.0, lambda: fired.append(2.0))
    engine.run()
    assert fired == [1.0, 2.0, 3.0]


def test_clock_advances_to_event_times():
    engine = Engine()
    seen = []
    engine.call_at(1.5, lambda: seen.append(engine.now))
    engine.call_at(4.25, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [1.5, 4.25]


def test_call_in_is_relative():
    engine = Engine(start_time=10.0)
    seen = []
    engine.call_in(2.0, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [12.0]


def test_call_at_in_past_raises():
    engine = Engine(start_time=5.0)
    with pytest.raises(SimulationError):
        engine.call_at(4.0, lambda: None)


def test_negative_delay_raises():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.call_in(-1.0, lambda: None)


def test_same_time_priority_order():
    engine = Engine()
    fired = []
    engine.call_at(
        1.0, lambda: fired.append("arrival"), priority=EventPriority.ARRIVAL
    )
    engine.call_at(
        1.0, lambda: fired.append("departure"),
        priority=EventPriority.DEPARTURE,
    )
    engine.run()
    assert fired == ["departure", "arrival"]


def test_same_time_same_priority_fifo():
    engine = Engine()
    fired = []
    for index in range(5):
        engine.call_at(1.0, fired.append, index)
    engine.run()
    assert fired == [0, 1, 2, 3, 4]


def test_cancelled_event_does_not_fire():
    engine = Engine()
    fired = []
    event = engine.call_at(1.0, lambda: fired.append("no"))
    event.cancel()
    engine.run()
    assert fired == []


def test_cancel_is_idempotent():
    engine = Engine()
    event = engine.call_at(1.0, lambda: None)
    event.cancel()
    event.cancel()
    engine.run()


def test_run_until_leaves_later_events():
    engine = Engine()
    fired = []
    engine.call_at(1.0, lambda: fired.append(1))
    engine.call_at(5.0, lambda: fired.append(5))
    engine.run(until=3.0)
    assert fired == [1]
    assert engine.now == 3.0
    assert engine.pending == 1


def test_run_until_then_resume():
    engine = Engine()
    fired = []
    engine.call_at(1.0, lambda: fired.append(1))
    engine.call_at(5.0, lambda: fired.append(5))
    engine.run(until=3.0)
    engine.run()
    assert fired == [1, 5]


def test_event_exactly_at_until_fires():
    engine = Engine()
    fired = []
    engine.call_at(3.0, lambda: fired.append(3))
    engine.run(until=3.0)
    assert fired == [3]


def test_stop_halts_run():
    engine = Engine()
    fired = []
    engine.call_at(1.0, lambda: (fired.append(1), engine.stop()))
    engine.call_at(2.0, lambda: fired.append(2))
    engine.run()
    assert fired == [1]


def test_max_events_budget():
    engine = Engine()
    fired = []
    for index in range(10):
        engine.call_at(float(index + 1), fired.append, index)
    engine.run(max_events=3)
    assert fired == [0, 1, 2]


def test_events_scheduled_during_run_fire():
    engine = Engine()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 3:
            engine.call_in(1.0, chain, depth + 1)

    engine.call_at(1.0, chain, 0)
    engine.run()
    assert fired == [0, 1, 2, 3]
    assert engine.now == 4.0


def test_events_processed_counter():
    engine = Engine()
    for index in range(4):
        engine.call_at(float(index + 1), lambda: None)
    engine.run()
    assert engine.events_processed == 4


def test_peek_skips_cancelled():
    engine = Engine()
    first = engine.call_at(1.0, lambda: None)
    engine.call_at(2.0, lambda: None)
    first.cancel()
    assert engine.peek() == 2.0


def test_peek_empty_returns_none():
    assert Engine().peek() is None


def test_step_returns_false_when_drained():
    engine = Engine()
    assert engine.step() is False


def test_step_fires_one_event():
    engine = Engine()
    fired = []
    engine.call_at(1.0, lambda: fired.append(1))
    engine.call_at(2.0, lambda: fired.append(2))
    assert engine.step() is True
    assert fired == [1]


def test_run_not_reentrant():
    engine = Engine()
    errors = []

    def nested():
        try:
            engine.run()
        except SimulationError as exc:
            errors.append(exc)

    engine.call_at(1.0, nested)
    engine.run()
    assert len(errors) == 1


def test_run_until_advances_clock_even_without_events():
    engine = Engine()
    engine.run(until=7.5)
    assert engine.now == 7.5


def test_callback_arguments_passed():
    engine = Engine()
    seen = []
    engine.call_at(1.0, lambda a, b: seen.append((a, b)), "x", 2)
    engine.run()
    assert seen == [("x", 2)]


def test_pending_excludes_cancelled_events():
    engine = Engine()
    keep = engine.call_at(1.0, lambda: None)
    drop = engine.call_at(2.0, lambda: None)
    drop.cancel()
    assert engine.pending == 1
    keep.cancel()
    assert engine.pending == 0


def test_mass_cancellation_compacts_the_heap():
    engine = Engine()
    events = [
        engine.call_at(1000.0 + index, lambda: None)
        for index in range(2000)
    ]
    for event in events:
        event.cancel()
    assert engine.pending == 0
    # Lazy deletion alone would keep all 2000 corpses until t=1000;
    # compaction must have physically shrunk the queue.
    assert len(engine._queue) < len(events)
    engine.run()
    assert engine.events_processed == 0


def test_compaction_preserves_live_events():
    engine = Engine()
    fired = []
    for index in range(1500):
        event = engine.call_at(10.0 + index, lambda: None)
        event.cancel()
    engine.call_at(5.0, lambda: fired.append("early"))
    engine.call_at(2000.0, lambda: fired.append("late"))
    assert engine.pending == 2
    engine.run()
    assert fired == ["early", "late"]


def test_cancel_after_fire_does_not_corrupt_pending():
    engine = Engine()
    event = engine.call_at(1.0, lambda: None)
    engine.call_at(2.0, lambda: None)
    engine.run(until=1.5)
    event.cancel()  # already fired: must not count as a dead heap entry
    assert engine.pending == 1
    engine.run()
    assert engine.pending == 0


def test_cancel_of_fired_event_is_still_a_noop_after_recycling():
    # "Recycling" was the engine's event free list; the contract
    # outlived it: a fired event reads cancelled and a late cancel()
    # counts nothing.
    engine = Engine()
    event = engine.call_at(1.0, lambda: None)
    engine.run()
    assert event.cancelled
    event.cancel()
    assert engine.pending == 0 and engine.events_cancelled == 0
    follow_up = []
    engine.call_at(2.0, lambda: follow_up.append(True))
    engine.run()
    assert follow_up == [True]
