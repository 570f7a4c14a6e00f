"""A finished run is freed when its last reference goes.

The engine holds its owner (simulator or shard) weakly and queues the
owner's handler *functions*; a base station holds neither the network
nor its neighbours.  So nothing in a run points back out of it, and
dropping a simulator frees its network, cells, caches and pending
events by reference counting — with the cycle collector switched off.
"""

import gc
import weakref
from dataclasses import replace

import pytest

from repro.des.engine import Engine, SimulationError
from repro.simulation import spatial
from repro.simulation.scenarios import hex_city, stationary
from repro.simulation.simulator import CellularSimulator
from repro.state import restore_simulator, save_checkpoint

OBSERVED = {"telemetry": True, "trace": True}
SERIES = {"series_interval": 5.0}


def _config(scheme, **overrides):
    config = stationary(scheme, offered_load=200.0, duration=40.0, seed=3)
    return replace(config, **overrides)


@pytest.fixture
def collector_off():
    """The cycle collector off for the test: only reference counting
    may free what the test drops."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _run_and_watch(simulator):
    simulator.run()
    return weakref.ref(simulator), weakref.ref(simulator.network)


@pytest.mark.parametrize("scheme", ["static", "AC3"])
@pytest.mark.parametrize(
    "extra", [{}, SERIES, OBSERVED], ids=["plain", "series", "observed"]
)
def test_a_dropped_simulator_is_freed_at_once(collector_off, scheme, extra):
    simulator_ref, network_ref = _run_and_watch(
        CellularSimulator(_config(scheme, **extra))
    )
    assert simulator_ref() is None
    assert network_ref() is None


def test_a_restored_simulator_is_freed_on_drop(collector_off, tmp_path):
    config = _config("AC3", duration=20.0)
    first = CellularSimulator(config)
    first.run()
    path = save_checkpoint(first, tmp_path / "ckpt")
    del first
    simulator_ref, network_ref = _run_and_watch(
        restore_simulator(path, replace(config, duration=40.0))
    )
    assert simulator_ref() is None
    assert network_ref() is None


def test_inline_shard_engines_are_freed_with_the_run(collector_off, monkeypatch):
    watched = []

    class Watched(spatial.ShardEngine):
        def __init__(self, *args):
            super().__init__(*args)
            watched.append((weakref.ref(self), weakref.ref(self.network)))

    monkeypatch.setattr(spatial, "ShardEngine", Watched)
    config = hex_city(
        "AC3", rows=6, cols=6, offered_load=150.0, duration=20.0, seed=11
    )
    spatial.run_spatial(config, 2, processes=False)
    assert len(watched) == 2
    assert [(shard(), network()) for shard, network in watched] == [
        (None, None),
        (None, None),
    ]


def _cycles(objects) -> list[list]:
    """The reference cycles among ``objects``: every strongly connected
    component of more than one object, or of one that refers to itself
    (Tarjan, iterative)."""
    by_id = {id(obj): obj for obj in objects}

    def successors(key):
        return [id(ref) for ref in gc.get_referents(by_id[key]) if id(ref) in by_id]

    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    found = []
    for root in by_id:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors(root)))]
        while work:
            node, edges = work[-1]
            for succ in edges:
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors(succ))))
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(by_id[member])
                        if member == node:
                            break
                    if len(component) > 1 or node in successors(node):
                        found.append(component)
    return found


def test_the_cycle_finder_sees_a_cycle():
    a, b, loner = [], [], []
    a.append(b)
    b.append(a)
    assert [len(cycle) for cycle in _cycles([a, b, loner])] == [2]


@pytest.mark.parametrize("scheme", ["static", "AC3"])
@pytest.mark.parametrize(
    "extra", [{}, {**OBSERVED, **SERIES}], ids=["plain", "observed"]
)
def test_a_dropped_run_leaves_no_cycle(scheme, extra):
    config = _config(scheme, **extra)
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        simulator = CellularSimulator(config)
        simulator.run()
        del simulator
        gc.collect()
    finally:
        gc.set_debug(0)
    garbage = list(gc.garbage)
    gc.garbage.clear()
    cycles = _cycles(garbage)
    assert not cycles, [
        sorted({type(obj).__name__ for obj in cycle}) for cycle in cycles
    ]


def test_an_ownerless_engine_runs_zero_argument_callbacks():
    engine = Engine()
    fired = []
    engine.call_at(2.0, lambda: fired.append(engine.now))
    engine.call_in(1.0, lambda: fired.append(engine.now))
    engine.run()
    assert fired == [1.0, 2.0]


class _Owner:
    def __init__(self):
        self.fired = []
        self.engine = Engine(owner=self, handlers=[_Owner.tick])

    def tick(self, label):
        self.fired.append((self.engine.now, label))


def test_an_owned_engine_binds_its_owners_handlers():
    owner = _Owner()
    owner.engine.call_at(1.0, _Owner.tick, "a")
    owner.engine.call_at(2.0, _Owner.tick, "b")
    owner.engine.run()
    assert owner.fired == [(1.0, "a"), (2.0, "b")]


def test_an_engine_whose_owner_is_gone_refuses_owned_events(collector_off):
    owner = _Owner()
    engine = owner.engine
    engine.call_at(1.0, _Owner.tick, "orphan")
    del owner
    with pytest.raises(SimulationError, match="_Owner.tick.*owner is gone"):
        engine.run()
