"""One connection, one pending event — in both DES drivers.

An admitted connection has exactly one possible next event (paper
§5.1): the earlier of its lifetime end and its next boundary crossing.
The drivers queue that one and nothing else, so the engine needs no
cancellation: every scheduled event either fires or is still queued at
the horizon.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.des import engine as engine_module
from repro.simulation import spatial
from repro.simulation.scenarios import hex_city, stationary
from repro.simulation.simulator import CellularSimulator
from repro.simulation.spatial import ShardEngine, run_spatial


def _watch(monkeypatch, engine, check, every: int) -> None:
    """Have each ``engine.run`` call ``check`` every ``every`` fired events."""
    monkeypatch.setattr(engine_module, "OBSERVER_EVENTS", every)
    plain_run = engine.run

    def run(until=None, observer=None):
        plain_run(until, check)

    engine.run = run


def _life_cycle_entries(engine, owner, key=lambda subject: subject) -> Counter:
    """Heap entries per connection (the handlers' first argument)."""
    handlers = (type(owner)._on_crossing, type(owner)._on_lifetime_end)
    return Counter(
        key(args[0])
        for _, _, _, callback, args in engine.queued()
        if callback in handlers
    )


def _assert_nothing_wasted(engine) -> None:
    # ``sequence`` counts every call_at/call_in ever made.
    assert engine.sequence == engine.events_processed + engine.pending


def _ring(scheme, **overrides):
    config = stationary(
        scheme,
        offered_load=200.0,
        voice_ratio=0.8,
        high_mobility=True,
        duration=240.0,
        seed=5,
    )
    return replace(config, **overrides) if overrides else config


@pytest.mark.parametrize(
    "config",
    [
        _ring("static"),
        _ring("AC3"),
        _ring(
            "static",
            offered_load=300.0,
            soft_handoff_window=5.0,
            retry_enabled=True,
        ),
    ],
    ids=["static", "ac3", "soft-handoff"],
)
def test_ring_keeps_one_live_entry_per_active_connection(config, monkeypatch):
    simulator = CellularSimulator(config)
    checks = []

    def check():
        entries = _life_cycle_entries(
            simulator.engine, simulator, lambda c: c.connection_id
        )
        assert entries == dict.fromkeys(simulator.active_connections, 1)
        checks.append(len(entries))

    _watch(monkeypatch, simulator.engine, check, every=97)
    result = simulator.run()
    check()
    assert len(checks) > 20 and max(checks) > 100
    assert result.events_processed > 5_000
    _assert_nothing_wasted(simulator.engine)


def test_two_inline_hex_shards_keep_at_most_one_entry_per_row(monkeypatch):
    shards = []

    def check(shard):
        entries = _life_cycle_entries(shard.engine, shard)
        assert set(entries.values()) <= {1}
        end_time = shard.store.columns["end_time"]
        live = [
            handle.row
            for cell in shard.owned
            for handle in shard.network.cell(cell).connections()
        ]
        assert set(entries) <= set(live)
        # The horizon clamp queues nothing past the run's end, so only
        # a row whose lifetime ends inside the run must have its event.
        for row in live:
            if end_time[row] <= shard.duration:
                assert entries[row] == 1
        shard.checks += 1

    class Watched(ShardEngine):
        def __init__(self, *args):
            super().__init__(*args)
            self.checks = 0
            # One run() per epoch, a few dozen events each.
            _watch(monkeypatch, self.engine, lambda: check(self), every=7)
            shards.append(self)

    monkeypatch.setattr(spatial, "ShardEngine", Watched)
    config = hex_city(
        "AC3",
        rows=6,
        cols=6,
        offered_load=150.0,
        voice_ratio=0.8,
        duration=40.0,
        seed=11,
    )
    result = run_spatial(config, 2, processes=False)
    assert len(shards) == 2
    assert result.total_handoff_attempts > 0
    for shard in shards:
        check(shard)
        assert shard.checks > 20
        _assert_nothing_wasted(shard.engine)
        assert not shard._outgoing or shard._outgoing[0][0] > shard.duration
