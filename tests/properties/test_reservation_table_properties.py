"""Property: a reservation tick equals the per-connection scalar Eq. 5.

The grouped flush answers a tick from resident structures — each cell's
rows bucketed by ``prev``, each station's live sorted sojourn lists and
their per-target index (:mod:`repro._kernel`).  Whatever sequence of attaches, detaches,
departures and bulk loads led there, every ``B_r`` it installs must
equal, bit for bit, the sum over neighbours of ``expected_bandwidth`` —
the scalar per-connection walk over F_HOE snapshots that shares none of
that state.

A cell's buckets wait for their first reader, so the first tick of a
run (any step of the random sequence) also builds them from connections
that were attached and detached unobserved; a second property pins the
built buckets to the ones maintained from the start, and a third
rebuilds them in a simulator restored from a checkpoint.
"""

from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cellular.base_station import EXIT_CELL
from repro.cellular.cell import Cell
from repro.cellular.network import CellularNetwork
from repro.cellular.topology import LinearTopology
from repro.core.reservation import aggregate_reservation
from repro.estimation.cache import CacheConfig
from repro.simulation.scenarios import stationary
from repro.simulation.simulator import CellularSimulator
from repro.state import restore_simulator, save_checkpoint
from repro.traffic.classes import VIDEO, VOICE
from repro.traffic.connection import Connection

#: Connection ids, unique across this module's tests.
_ids = count()

CELLS = (0, 1, 2)
#: Few distinct values, so duplicate sojourns and exact ties between a
#: sojourn and an extant time (entry offsets share the grid) are common.
GRID = st.sampled_from([0.0, 1.0, 2.5, 4.0, 4.0, 7.5, 11.0, 30.0])
PREVS = st.sampled_from([None, 0, 1, 2])
NEXTS = st.sampled_from([EXIT_CELL, 0, 1, 2])

attach = st.tuples(
    st.just("attach"), st.sampled_from(CELLS), PREVS, GRID, st.booleans()
)
detach = st.tuples(
    st.just("detach"), st.sampled_from(CELLS), st.integers(0, 200)
)
#: Emptying a cell makes it the empty supplier.
drain = st.tuples(st.just("drain"), st.sampled_from(CELLS), st.integers(0, 3))
depart = st.tuples(
    st.just("depart"), st.sampled_from(CELLS), PREVS, NEXTS, GRID
)
#: Many departures between two ticks: past every ``N_quad`` drawn
#: below, so evictions interleave with inserts.
burst = st.tuples(
    st.just("burst"),
    st.sampled_from(CELLS),
    st.sampled_from([2, 40, 103]),
    GRID,
)
preload = st.tuples(
    st.just("preload"),
    st.sampled_from(CELLS),
    st.lists(st.tuples(PREVS, NEXTS, GRID), max_size=8),
)
advance = st.tuples(st.just("advance"), GRID)
tick = st.tuples(
    st.just("tick"),
    st.lists(
        st.tuples(
            st.sampled_from(CELLS),
            st.sampled_from([-1.0, 0.0, 0.5, 4.0, 10.0, 100.0]),
        ),
        min_size=1,
        max_size=3,
        unique_by=lambda item: item[0],
    ),
)
operations = st.lists(
    st.one_of(attach, attach, detach, drain, depart, depart, burst,
              preload, advance, tick, tick),
    min_size=1,
    max_size=40,
)


def _ranked(cell):
    """A cell's buckets with each attach ``seq`` replaced by its rank:
    a bucket built late numbers the same order from 0."""
    buckets = cell.reservation_buckets()
    rank = {
        seq: index
        for index, seq in enumerate(
            sorted(row[1] for bucket in buckets.values() for row in bucket)
        )
    }
    return {
        prev: [
            (entry_time, rank[seq], basis, key)
            for entry_time, seq, basis, key in bucket
        ]
        for prev, bucket in buckets.items()
    }


def _check_tick(network, now, targets):
    for cell_id, t_est in targets:
        network.station(cell_id).window.t_est = t_est
        network.mark_reservation_dirty(cell_id)
    network.flush_reservation_tick(now)
    for cell_id, t_est in targets:
        expected = aggregate_reservation(
            neighbor.estimator.expected_bandwidth(
                now, list(neighbor.cell.connections()), cell_id, t_est
            )
            for neighbor in network.neighbor_stations(cell_id)
        )
        assert network.cell(cell_id).reserved_target == expected


@settings(max_examples=300, deadline=None)
@given(operations, st.sampled_from([1, 3, 100]))
def test_every_tick_total_equals_the_scalar_walk(ops, max_per_pair):
    network = CellularNetwork(
        LinearTopology(3),
        capacity=10_000.0,
        cache_config=CacheConfig(interval=None, max_per_pair=max_per_pair),
    )
    now = 100.0
    # A populated start (every prev/next pairing observed, a few live
    # connections per cell), so most ticks sum non-zero contributions;
    # cell 2 has the connections but an empty, still loadable cache.
    for cell_id in CELLS:
        station = network.station(cell_id)
        for index, prev in enumerate((None, 0, 1, 2)):
            for next_cell in (EXIT_CELL, 0, 1, 2) if cell_id < 2 else ():
                station.record_departure(
                    now, prev, next_cell, now - 3.0 * index - next_cell - 2
                )
            network.cell(cell_id).attach(
                Connection(
                    VOICE, 0.0, cell_id,
                    prev_cell=prev, cell_entry_time=now - index,
                    connection_id=next(_ids),
                )
            )
    for op in ops:
        kind = op[0]
        if kind == "attach":
            _, cell_id, prev, offset, video = op
            network.cell(cell_id).attach(
                Connection(
                    VIDEO if video else VOICE, 0.0, cell_id,
                    prev_cell=prev, cell_entry_time=now - offset,
                    connection_id=next(_ids),
                )
            )
        elif kind == "detach":
            _, cell_id, index = op
            live = list(network.cell(cell_id).connections())
            if live:
                network.cell(cell_id).detach(live[index % len(live)])
        elif kind == "drain":
            _, cell_id, keep = op
            cell = network.cell(cell_id)
            for connection in list(cell.connections())[keep:]:
                cell.detach(connection)
        elif kind == "depart":
            _, cell_id, prev, next_cell, sojourn = op
            network.station(cell_id).record_departure(
                now, prev, next_cell, now - sojourn
            )
        elif kind == "burst":
            _, cell_id, count, sojourn = op
            station = network.station(cell_id)
            for index in range(count):
                station.record_departure(
                    now, None, (cell_id + 1) % 3, now - sojourn - index % 3
                )
        elif kind == "preload":
            _, cell_id, entries = op
            estimator = network.station(cell_id).estimator
            if estimator.cache.size() == 0:
                # Lists read from the empty cache must not survive the
                # bulk load.
                _check_tick(network, now, [(cell, 4.0) for cell in CELLS])
                pairs = {}
                for prev, next_cell, sojourn in entries:
                    times, sojourns = pairs.setdefault(
                        (prev, next_cell), ([], [])
                    )
                    times.append(now)
                    sojourns.append(sojourn)
                estimator.preload(pairs)
        elif kind == "advance":
            now += op[1]
        else:
            _check_tick(network, now, op[1])
    _check_tick(network, now, [(0, 10.0), (1, 4.0), (2, 0.0)])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("attach"), PREVS, GRID, st.booleans()),
            st.tuples(st.just("attach"), PREVS, GRID, st.booleans()),
            st.tuples(st.just("detach"), st.integers(0, 200)),
            st.tuples(st.just("drain"), st.integers(0, 3)),
        ),
        max_size=60,
    ),
    st.integers(0, 60),
)
def test_first_read_after_unobserved_mutations_equals_the_eager_table(
    ops, first_read
):
    eager = Cell(0, capacity=10_000.0)
    eager.reservation_buckets()  # read while empty: maintained from the start
    lazy = Cell(0, capacity=10_000.0)
    for step, op in enumerate(ops):
        if step == first_read:
            assert lazy._buckets is None
            assert _ranked(lazy) == _ranked(eager)
        if op[0] == "attach":
            _, prev, offset, video = op
            connection = Connection(
                VIDEO if video else VOICE, 0.0, 0,
                prev_cell=prev, cell_entry_time=100.0 - offset,
                connection_id=next(_ids),
            )
            eager.attach(connection)
            lazy.attach(connection)
            continue
        live = list(eager.connections())
        if not live:
            continue
        if op[0] == "detach":
            doomed = live[op[1] % len(live):][:1]
        else:
            doomed = live[op[1]:]
        for connection in doomed:
            eager.detach(connection)
            lazy.detach(connection)
    assert _ranked(lazy) == _ranked(eager)


def test_restored_simulator_rebuilds_the_rows(tmp_path):
    """A checkpoint keeps attach order, not buckets: the restored cells
    build theirs at the first tick, equal to the saved run's, and that
    tick installs what the snapshot walk computes."""
    config = stationary(
        "AC3", offered_load=200.0, high_mobility=True, duration=60.0,
        seed=4,
    )
    saved = CellularSimulator(config)
    saved.run()
    restored = restore_simulator(
        save_checkpoint(saved, tmp_path / "ckpt"), config
    )
    network = restored.network
    assert all(cell._buckets is None for cell in network.cells)
    now = restored.engine.now
    targets = [(cell_id, 25.0) for cell_id in range(network.num_cells)]
    _check_tick(network, now, targets)
    for before, after in zip(saved.network.cells, network.cells):
        assert after.connection_count > 0
        assert _ranked(after) == _ranked(before)


def test_a_static_run_never_builds_a_table():
    simulator = CellularSimulator(
        stationary(
            "static", offered_load=200.0, high_mobility=True,
            duration=120.0, seed=5,
        )
    )
    result = simulator.run()
    assert result.total_handoff_attempts > 500
    assert len(simulator.network.cells) == 10
    for cell in simulator.network.cells:
        assert cell.connection_count > 0
        assert cell._buckets is None
