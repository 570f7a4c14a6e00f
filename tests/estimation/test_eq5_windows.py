"""The resident Eq. 5 walk reads only each ``(prev, target)`` window.

:class:`repro._kernel.FlushBatch` bisects every ``prev`` bucket to the
rows that are neither *old* (``now - entry >= pair[-1]``) nor *young*
(``(now - entry) + t_est < pair[0]``) and folds each request's terms in
attach ``seq``.  The properties below hold every total bit for bit to
the snapshot walk (``expected_bandwidth_multi``) and every window to
its brute-force size, on exact window boundaries, equal entry times,
out-of-order attaches, detach and re-attach of one id, ``prev`` buckets
without a list, targets without an index entry, ``t_est <= 0``, several
suppliers in one batch, :class:`ColumnarCell` rows, and the buckets a
checkpoint restore rebuilds.
"""

from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._kernel import FlushBatch
from repro.cellular.cell import Cell
from repro.estimation.cache import CacheConfig
from repro.estimation.estimator import MobilityEstimator
from repro.simulation.columnar import ColumnarCell, ConnectionStore
from repro.simulation.scenarios import stationary
from repro.simulation.simulator import CellularSimulator
from repro.state import restore_simulator, save_checkpoint
from repro.traffic.classes import VIDEO, VOICE
from repro.traffic.connection import Connection

#: Connection ids, unique across this module's tests.
_ids = count()

NOW = 1_000.0
#: Dyadic values: ``NOW - (NOW - x) == x`` and their sums are exact, so
#: extants land exactly on sojourns (``extant == pair[-1]``) and
#: ``extant + t_est`` exactly on a list's first sojourn.
GRID = (0.0, 0.5, 1.0, 2.5, 4.0, 7.5, 11.0, 30.0)
times = st.one_of(
    st.sampled_from(GRID), st.floats(min_value=0.0, max_value=60.0)
)
#: ``prev`` 3 never has history; target 4 never has a list.
history = st.lists(
    st.tuples(
        st.sampled_from((None, 1, 2)), st.sampled_from((0, 1, 2)), times
    ),
    max_size=40,
)
population = st.lists(
    st.tuples(st.sampled_from((None, 1, 2, 3)), times, st.booleans()),
    min_size=1,
    max_size=30,
)
requests = st.lists(
    st.tuples(
        st.sampled_from((0, 1, 2, 4)),
        st.one_of(
            st.sampled_from((-1.0, 0.0, 0.5, 1.5, 3.5, 4.0, 26.0)),
            st.floats(min_value=-5.0, max_value=40.0),
        ),
    ),
    min_size=1,
    max_size=5,
)
#: Detach a live row, or re-attach a detached one (same id).
churn = st.lists(
    st.tuples(st.sampled_from(("detach", "attach")), st.integers(0, 999)),
    max_size=12,
)
#: History, population, churn before and after the first tick, whether
#: the cell is columnar, and whether its buckets are read before the
#: first attach (maintained throughout) or built at the first tick.
supplier = st.tuples(
    history, population, churn, churn, st.booleans(), st.booleans()
)


def _estimator(items):
    estimator = MobilityEstimator(CacheConfig(interval=None))
    for index, (prev, next_cell, sojourn) in enumerate(items):
        estimator.record_departure(float(index), prev, next_cell, sojourn)
    return estimator


class _Rows:
    """One supplier cell, a :class:`Cell` or a :class:`ColumnarCell`,
    behind the same attach / detach."""

    def __init__(self, columnar, people, early):
        self.columnar = columnar
        if columnar:
            self.store = ConnectionStore(num_cells=6, capacity=8)
            self.cell = ColumnarCell(5, 1e9, self.store)
        else:
            self.cell = Cell(5, capacity=1e9)
        if early:
            self.cell.reservation_buckets()
        self.live, self.gone = [], []
        for seq, (prev, extant, video) in enumerate(people):
            self.attach(self.new(seq, prev, extant, video))

    def new(self, seq, prev, extant, video):
        if not self.columnar:
            return Connection(
                VIDEO if video else VOICE, 0.0, 5,
                prev_cell=prev, cell_entry_time=NOW - extant,
                connection_id=next(_ids),
            )
        row = self.store.alloc()
        columns = self.store.columns
        columns["entry_time"][row] = NOW - extant
        columns["prev"][row] = -1 if prev is None else prev
        columns["birth_cell"][row] = 0
        columns["birth_seq"][row] = seq
        columns["bw_code"][row] = int(video)
        return row

    def attach(self, member):
        if self.columnar:
            self.cell.attach_row(member)
        else:
            self.cell.attach(member)
        self.live.append(member)

    def churn(self, ops):
        """Detach live members and re-attach detached ones (same id)."""
        for op, pick in ops:
            if op == "detach" and self.live:
                member = self.live.pop(pick % len(self.live))
                if self.columnar:
                    self.cell.detach_row(member)
                else:
                    self.cell.detach(member)
                self.gone.append(member)
            elif op == "attach" and self.gone:
                self.attach(self.gone.pop(pick % len(self.gone)))


def _build(items, people, ops, columnar=False, early=False):
    rows = _Rows(columnar, people, early)
    rows.churn(ops)
    return _estimator(items), rows


def _window_size(estimator, cell, now, asked):
    """Row-requests neither old nor young, counted row by row."""
    index = estimator.cache.lists_by_target()
    count = 0
    for target, t_est in asked:
        if t_est <= 0:
            continue
        for prev, _union, pair in index.get(target, ()):
            for connection in cell.connections():
                if connection.prev_cell != prev:
                    continue
                extant = now - connection.cell_entry_time
                if not (extant >= pair[-1] or extant + t_est < pair[0]):
                    count += 1
    return count


def _assert_batch_matches_walk(suppliers, asked, now=NOW):
    """All suppliers in one batch: each total equals the snapshot walk
    bit for bit, and the batch read exactly the windows' rows."""
    batch = FlushBatch()
    slots = [
        estimator.grouped_flush_parts(now, asked, cell, batch)
        for estimator, cell in suppliers
    ]
    totals = batch.resolve()
    assert batch.outputs == len(totals)
    for (estimator, cell), part in zip(suppliers, slots):
        resolved = [0.0 if slot is None else totals[slot] for slot in part]
        walked = estimator.expected_bandwidth_multi(
            now, cell.connections(), asked
        )
        assert resolved == walked
        assert [repr(x) for x in resolved] == [repr(x) for x in walked]
    registered = [
        (estimator, cell)
        for (estimator, cell), part in zip(suppliers, slots)
        if any(slot is not None for slot in part)
    ]
    assert batch.window_rows == sum(
        _window_size(estimator, cell, now, asked)
        for estimator, cell in registered
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(supplier, min_size=1, max_size=3), requests)
def test_every_total_and_window_matches_the_snapshot_walk(specs, asked):
    built = [
        _build(items, people, before, columnar, early)
        for items, people, before, _after, columnar, early in specs
    ]
    suppliers = [(estimator, rows.cell) for estimator, rows in built]
    _assert_batch_matches_walk(suppliers, asked)
    # Attach and detach maintain what the first tick built.
    for (_estimator, rows), spec in zip(built, specs):
        rows.churn(spec[3])
    _assert_batch_matches_walk(suppliers, asked)


def test_exact_boundaries_are_reached():
    """The grid really lands rows on both window edges: one supplier
    with a row at ``extant == pair[-1]`` (old), one at ``extant + t_est
    == pair[0]`` (inside: the edge sojourn counts), equal entry times,
    rows out of entry order and a ``prev`` without a list."""
    items = [(1, 2, 4.0), (1, 2, 11.0), (1, 0, 30.0), (None, 2, 7.5)]
    people = [
        (1, 11.0, False),  # extant == pair[-1]: old under both windows
        (1, 0.5, True),  # 0.5 + 3.5 == pair[0]: inside, 4.0 counts
        (1, 0.0, False),  # 0.0 + 3.5 < 4.0: young under t_est 3.5
        (1, 4.0, False),  # extant == pair[0]
        (1, 4.0, False),  # the same entry time
        (3, 2.5, False),  # prev 3 has no list
        (None, 7.5, True),  # extant == the only sojourn: old
    ]
    asked = [(2, 3.5), (4, 10.0), (2, 7.0), (0, -1.0)]
    for columnar in (False, True):
        estimator, rows = _build(items, people, [], columnar)
        cell = rows.cell
        _assert_batch_matches_walk([(estimator, cell)], asked)
        batch = FlushBatch()
        slots = estimator.grouped_flush_parts(NOW, asked, cell, batch)
        assert slots == [0, None, 1, None]  # no index entry; t_est <= 0
        totals = batch.resolve()
        # Inside t_est 3.5: 0.5, 4.0, 4.0; inside 7.0: 0.5, 0.0, 4.0, 4.0.
        assert batch.window_rows == 3 + 4
        # Prev 1's union is [4, 11, 30]: 4 BU x 1/3 from extant 0.5;
        # extant 4.0 has (4, 7.5] empty, (4, 11] holding 11 of 2 above.
        assert totals == [4.0 * (1 / 3), 4.0 * (1 / 3) + 1 / 3 + 0.5 + 0.5]


@pytest.fixture(scope="module")
def restored(tmp_path_factory):
    """A 60 s AC3 ring, checkpointed and restored: no buckets yet."""
    config = stationary(
        "AC3", offered_load=200.0, high_mobility=True, duration=60.0,
        seed=6,
    )
    saved = CellularSimulator(config)
    saved.run()
    simulator = restore_simulator(
        save_checkpoint(saved, tmp_path_factory.mktemp("ckpt")), config
    )
    assert all(cell._buckets is None for cell in simulator.network.cells)
    return simulator


@settings(max_examples=30, deadline=None)
@given(
    windows=st.lists(
        st.one_of(
            st.sampled_from((0.0, -1.0, 5.0, 25.0)),
            st.floats(min_value=-10.0, max_value=120.0),
        ),
        min_size=1,
        max_size=3,
    )
)
def test_restored_buckets_match_the_snapshot_walk(restored, windows):
    """A checkpoint carries no buckets: the restored cells build theirs
    at the first read, and every station's totals toward its
    neighbours still equal the snapshot walk's."""
    now = restored.engine.now
    for station in restored.network.stations:
        asked = [
            (neighbor.cell_id, t_est)
            for neighbor in restored.network.neighbor_stations(
                station.cell_id
            )
            for t_est in windows
        ]
        _assert_batch_matches_walk(
            [(station.estimator, station.cell)], asked, now
        )
