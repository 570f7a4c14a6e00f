"""Resident Eq. 5 walk vs the snapshot walk (property-based).

Eq. 5 is evaluated two ways: the scalar walk over F_HOE snapshots
(``MobilityEstimator.expected_bandwidth_multi`` — every configuration)
and, where the masses are plain counts, one ``FlushBatch`` walk of a
cell's ``prev`` buckets over the cache's live sorted lists
(``grouped_flush_parts``).  The contract is *bit-identity* — the same
floats out, not just close ones — because whole runs are asserted
metric-equal across the two paths elsewhere.  These tests drive
randomized quadruplet stores and connection populations through both,
one supplier at a time, and tie the resident walk back to the scalar
Eq. 4 query.  Neither path needs numpy.
"""

import random
from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from repro._kernel import FlushBatch
from repro.cellular.cell import Cell
from repro.estimation.cache import CacheConfig
from repro.estimation.estimator import MobilityEstimator
from repro.traffic.classes import VIDEO, VOICE
from repro.traffic.connection import Connection

#: Connection ids, unique across this module's tests.
_ids = count()

NOW = 1_000.0

sojourns = st.floats(
    min_value=0.0, max_value=10_000.0, allow_nan=False, allow_infinity=False
)
next_cells = st.integers(min_value=0, max_value=4)
observations = st.lists(
    st.tuples(sojourns, next_cells), min_size=0, max_size=60
)
#: Extant sojourns of the queried connections (entry time NOW - extant).
query_batches = st.lists(
    st.floats(min_value=0.0, max_value=NOW), min_size=0, max_size=50
)
windows = st.floats(
    min_value=0.0, max_value=5_000.0, allow_nan=False, allow_infinity=False
)


def build_estimator(items):
    estimator = MobilityEstimator(CacheConfig(interval=None))
    for index, (sojourn, next_cell) in enumerate(items):
        estimator.record_departure(float(index), 1, next_cell, sojourn)
    return estimator


def cell_of(entries, prev=1):
    """A cell carrying one voice connection per ``(prev, entry time)``."""
    cell = Cell(5, capacity=10_000.0)
    for entry in entries:
        cell.attach(
            Connection(
                VOICE, 0.0, 5, prev_cell=prev, cell_entry_time=entry,
                connection_id=next(_ids),
            )
        )
    return cell


def kernel_totals(estimator, cells, requests):
    """Each cell's ``requests`` through one resident-walk batch."""
    batch = FlushBatch()
    slots = [
        estimator.grouped_flush_parts(NOW, requests, cell, batch)
        for cell in cells
    ]
    totals = batch.resolve()
    return [
        [0.0 if slot is None else totals[slot] for slot in part]
        for part in slots
    ]


def single_row_probabilities(estimator, extants, next_cell, t_est):
    """Eq. 4 per query out of the walk: one single-row part each (a
    voice connection's basis is 1.0, so its total *is* ``p_h``).
    Returns the probabilities and the extant sojourns as queried
    (``NOW - (NOW - extant)``, which rounding may move off ``extant``)."""
    cells = [cell_of([NOW - extant]) for extant in extants]
    parts = kernel_totals(estimator, cells, [(next_cell, t_est)])
    queried = [
        NOW - next(cell.connections()).cell_entry_time for cell in cells
    ]
    return [part[0] for part in parts], queried


# ----------------------------------------------------------------------
# Eq. 4 out of the resident walk
# ----------------------------------------------------------------------
@given(observations, query_batches, windows, next_cells)
def test_batch_probabilities_match_scalar_queries(
    items, extants, t_est, next_cell
):
    estimator = build_estimator(items)
    batched, queried = single_row_probabilities(
        estimator, extants, next_cell, t_est
    )
    scalar = [
        estimator.handoff_probability(NOW, 1, extant, next_cell, t_est)
        for extant in queried
    ]
    assert batched == scalar


@given(query_batches, windows, next_cells)
def test_empty_store_batch_is_all_zero(extants, t_est, next_cell):
    estimator = MobilityEstimator(CacheConfig(interval=None))
    cell = cell_of(NOW - extant for extant in extants)
    requests = [(next_cell, t_est), (next_cell, 2 * t_est)]
    if extants:  # the station never registers an empty cell
        assert kernel_totals(estimator, [cell], requests) == [[0.0, 0.0]]
    assert estimator.expected_bandwidth_multi(
        NOW, cell.connections(), requests
    ) == [0.0, 0.0]


@given(sojourns, query_batches, windows)
def test_single_sample_store_across_kernels(sojourn, extants, t_est):
    estimator = MobilityEstimator(CacheConfig(interval=None))
    estimator.record_departure(0.0, 1, 2, sojourn)
    batched, queried = single_row_probabilities(estimator, extants, 2, t_est)
    walked = [
        estimator.expected_bandwidth(
            NOW, cell_of([NOW - extant]).connections(), 2, t_est
        )
        for extant in extants
    ]
    assert batched == walked
    # A single observation yields all-or-nothing probabilities.
    for extant, probability in zip(queried, batched):
        if extant >= sojourn or t_est <= 0:
            assert probability == 0.0  # no mass above, or empty window
        else:
            assert probability in (0.0, 1.0)


# ----------------------------------------------------------------------
# Eq. 5: a whole supplier, several requests
# ----------------------------------------------------------------------
@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2**31), windows)
def test_grouped_expected_bandwidth_identical_across_kernels(seed, t_est):
    """One supplier's rows through the resident walk vs the snapshot
    walk vs Eq. 4."""
    rng = random.Random(seed)
    estimator = MobilityEstimator(CacheConfig(interval=None))
    for index in range(rng.randrange(0, 120)):
        estimator.record_departure(
            float(index),
            rng.choice((None, 1, 2)),
            rng.choice((0, 2, 3)),
            rng.uniform(0.0, 90.0),
        )
    cell = Cell(5, capacity=10_000.0)
    for _ in range(rng.randrange(0, 90)):
        cell.attach(
            Connection(
                VOICE,
                0.0,
                5,
                prev_cell=rng.choice((None, 1, 2)),
                cell_entry_time=rng.uniform(0.0, NOW),
                connection_id=next(_ids),
            )
        )
    requests = [(0, t_est), (2, t_est / 2), (3, 0.0), (0, 2 * t_est)]
    naive = []
    for target, window in requests:
        total = 0.0
        for connection in cell.connections():
            total += connection.bandwidth * estimator.handoff_probability(
                NOW,
                connection.prev_cell,
                NOW - connection.cell_entry_time,
                target,
                window,
            )
        naive.append(total)
    assert estimator.expected_bandwidth_multi(
        NOW, cell.connections(), requests
    ) == naive
    if cell.connection_count:
        assert kernel_totals(estimator, [cell], requests) == [naive]


# ----------------------------------------------------------------------
# the rows the walk skips
# ----------------------------------------------------------------------
# The walk counts numerators only for rows whose ``prev`` has a pair
# list toward a live target and whose Eq. 4 denominator is nonzero.
# The cases below build every kind of row it skips — estimated
# stationary (older than every cached sojourn, or from a ``prev``
# without history), a whole supplier without history — next to rows it
# keeps, through detaches and re-attaches of the same connection, and
# hold each supplier to the snapshot walk bit for bit.

#: ``prev`` 3 never has history; ``None`` and 1, 2 do (when drawn).
HISTORY_PREVS = st.sampled_from((None, 1, 2))
TABLE_PREVS = st.sampled_from((None, 1, 2, 3))
#: Cached sojourns stay below 90 s while extant sojourns reach NOW, so
#: many rows are older than every cached sojourn of their ``prev``.
short_sojourns = st.floats(min_value=0.0, max_value=90.0)
histories = st.lists(
    st.tuples(HISTORY_PREVS, next_cells, short_sojourns), max_size=60
)
populations = st.lists(
    st.tuples(
        TABLE_PREVS,
        st.one_of(short_sojourns, st.floats(min_value=0.0, max_value=NOW)),
        st.sampled_from((VOICE, VIDEO)),
    ),
    min_size=1,
    max_size=60,
)
#: Dead (``t_est <= 0``) requests mixed among live ones, in any order.
mixed_requests = st.lists(
    st.tuples(
        next_cells,
        st.one_of(
            st.sampled_from((0.0, -1.0)),
            st.floats(min_value=-100.0, max_value=200.0),
        ),
    ),
    min_size=1,
    max_size=6,
)
#: Detach a connection, re-attach a detached one, or run a tick.
table_ops = st.lists(
    st.tuples(
        st.sampled_from(("detach", "detach", "attach", "tick")),
        st.integers(min_value=0, max_value=10**6),
    ),
    max_size=80,
)


def history_estimator(items):
    estimator = MobilityEstimator(CacheConfig(interval=None))
    for index, (prev, next_cell, sojourn) in enumerate(items):
        estimator.record_departure(float(index), prev, next_cell, sojourn)
    return estimator


def assert_tick_matches_walk(estimator, cell, requests):
    """One supplier through the resident walk == the snapshot walk."""
    if not cell.connection_count:
        return  # the station never registers an empty cell
    walked = estimator.expected_bandwidth_multi(
        NOW, cell.connections(), requests
    )
    assert kernel_totals(estimator, [cell], requests) == [walked]


@settings(max_examples=150, deadline=None)
@given(histories, populations, mixed_requests, table_ops)
def test_pruned_rows_through_detach_and_reattach(
    items, population, requests, ops
):
    estimator = history_estimator(items)
    cell = Cell(5, capacity=1e9)
    attached = []
    for prev, extant, traffic_class in population:
        connection = Connection(
            traffic_class, 0.0, 5, prev_cell=prev,
            cell_entry_time=NOW - extant,
            connection_id=next(_ids),
        )
        cell.attach(connection)
        attached.append(connection)
    detached = []
    assert_tick_matches_walk(estimator, cell, requests)
    for op, pick in ops:
        if op == "detach" and attached:
            connection = attached.pop(pick % len(attached))
            cell.detach(connection)
            detached.append(connection)
        elif op == "attach" and detached:
            # Re-attached, the same id gets a fresh row at the end.
            connection = detached.pop(pick % len(detached))
            cell.attach(connection)
            attached.append(connection)
        elif op == "tick":
            assert_tick_matches_walk(estimator, cell, requests)
    assert_tick_matches_walk(estimator, cell, requests)


def test_detach_and_reattach_are_reached():
    """The property above really visits a detach, a re-attach of the
    same id, stationary rows and an empty pair list: a deterministic
    walk through all of them."""
    estimator = history_estimator(
        [(1, 2, 30.0), (1, 3, 60.0), (None, 2, 10.0), (2, 2, 80.0)]
    )
    cell = Cell(5, capacity=1e9)
    connections = [
        Connection(
            VIDEO if index % 3 else VOICE, 0.0, 5,
            prev_cell=(None, 1, 2, 3)[index % 4],
            cell_entry_time=NOW - 7.0 * index,
            connection_id=next(_ids),
        )
        for index in range(12)
    ]
    for connection in connections:
        cell.attach(connection)
    # Target 4 has no pair list from any prev; prev 3 has no history.
    requests = [(2, 25.0), (3, 0.0), (2, -5.0), (3, 70.0), (4, 50.0)]
    assert_tick_matches_walk(estimator, cell, requests)
    buckets = cell._buckets
    for connection in connections[:7]:
        cell.detach(connection)
    assert sum(map(len, buckets.values())) == 5
    assert_tick_matches_walk(estimator, cell, requests)
    cell.attach(connections[0])  # re-attach: a fresh seq, not restored
    assert max(
        (row[1], row[3]) for bucket in buckets.values() for row in bucket
    )[1] == connections[0].connection_id
    assert_tick_matches_walk(estimator, cell, requests)
    assert cell._buckets is buckets  # maintained, never rebuilt


@given(populations, mixed_requests, histories)
def test_empty_key_column_registers_nothing(population, requests, items):
    """A supplier with connections but no history — no sorted column
    keyed by any ``prev``: every slot is ``None``, nothing enters the
    batch, and the dispatch still counts every row × live request.
    After history arrives, the resident walk answers like the snapshot
    walk."""
    estimator = MobilityEstimator(CacheConfig(interval=None))
    cell = cell_of([])
    for prev, extant, traffic_class in population:
        cell.attach(
            Connection(
                traffic_class, 0.0, 5, prev_cell=prev,
                cell_entry_time=NOW - extant,
                connection_id=next(_ids),
            )
        )
    batch = FlushBatch()
    slots = estimator.grouped_flush_parts(NOW, requests, cell, batch)
    live = sum(1 for _, t_est in requests if t_est > 0)
    assert slots == [None] * len(requests)
    assert batch.outputs == 0 and batch.resolve() == []
    assert estimator.eq4_resident_rows == len(population) * live
    assert estimator.expected_bandwidth_multi(
        NOW, cell.connections(), requests
    ) == [0.0] * len(requests)
    for index, (prev, next_cell, sojourn) in enumerate(items):
        estimator.record_departure(float(index), prev, next_cell, sojourn)
    assert_tick_matches_walk(estimator, cell, requests)


@settings(max_examples=50, deadline=None)
@given(histories, st.lists(populations, min_size=2, max_size=4),
       mixed_requests)
def test_suppliers_share_one_batch(items, tables, requests):
    """Several suppliers — one of them without history — in one batch:
    every slot still points at its own total."""
    estimators = [history_estimator(items), history_estimator([])]
    cells = []
    for population in tables:
        cell = cell_of([])
        for prev, extant, traffic_class in population:
            cell.attach(
                Connection(
                    traffic_class, 0.0, 5, prev_cell=prev,
                    cell_entry_time=NOW - extant,
                    connection_id=next(_ids),
                )
            )
        cells.append(cell)
    batch = FlushBatch()
    pairs = [
        (estimators[index % 2], cell) for index, cell in enumerate(cells)
    ]
    slots = [
        estimator.grouped_flush_parts(NOW, requests, cell, batch)
        for estimator, cell in pairs
    ]
    totals = batch.resolve()
    for (estimator, cell), part in zip(pairs, slots):
        assert [
            0.0 if slot is None else totals[slot] for slot in part
        ] == estimator.expected_bandwidth_multi(
            NOW, cell.connections(), requests
        )
