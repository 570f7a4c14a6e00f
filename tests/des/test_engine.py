"""Unit tests for the discrete-event engine."""

import pytest

from repro.des import Engine, EventPriority, SimulationError
from repro.des.engine import OBSERVER_EVENTS


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


def test_nan_timestamp_raises_and_leaves_the_clock_alone():
    # NaN compares false with everything: a guard written ``time < now``
    # lets it through, and a NaN clock then disables every later guard.
    engine = Engine(start_time=5.0)
    with pytest.raises(SimulationError):
        engine.call_at(float("nan"), lambda: None)
    with pytest.raises(SimulationError):
        engine.advance_to(float("nan"))
    assert engine.now == 5.0 and engine.pending == 0


def test_call_at_returns_nothing():
    # An event is its heap entry; there is no handle to hold or cancel.
    assert Engine().call_at(1.0, lambda: None) is None


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


def test_heap_entry_behind_the_clock_raises():
    # call_at refuses the past, so only a corrupted heap can hold such
    # an entry; the loop must not run the clock backwards for it.
    engine = Engine(start_time=5.0)
    engine._queue.append((1.0, 0, 0, lambda: None, ()))
    with pytest.raises(SimulationError):
        engine.run()
    assert engine.now == 5.0


def test_advance_to_fires_everything_due_and_counts_it():
    engine = Engine()
    fired = []
    for time in (1.0, 2.0, 5.0):
        engine.call_at(time, fired.append, time)
    assert engine.advance_to(2.0) == 2
    assert fired == [1.0, 2.0]
    assert engine.now == 2.0 and engine.pending == 1
    assert engine.advance_to(2.0) == 0


def test_advance_to_the_past_raises():
    engine = Engine(start_time=3.0)
    with pytest.raises(SimulationError):
        engine.advance_to(2.0)


def test_queued_exposes_the_heap_entries():
    engine = Engine()
    engine.call_at(2.0, print, "x", priority=EventPriority.ARRIVAL)
    assert list(engine.queued()) == [(2.0, 2, 0, print, ("x",))]


def test_observer_fires_every_observer_events_and_changes_nothing():
    def build():
        engine = Engine()
        for index in range(3 * OBSERVER_EVENTS + 7):
            engine.call_at(float(index // 3), lambda: None)
        return engine

    bare = build()
    bare.run()
    observed = build()
    seen = []
    observed.run(observer=lambda: seen.append(observed.events_processed))
    assert seen == [OBSERVER_EVENTS, 2 * OBSERVER_EVENTS, 3 * OBSERVER_EVENTS]
    assert observed.events_processed == bare.events_processed
    assert observed.now == bare.now
