"""Resident Eq. 5 kernel vs the scalar walk (property-based).

Eq. 5 is evaluated two ways: the scalar walk over F_HOE snapshots
(``MobilityEstimator.expected_bandwidth_multi`` — every kernel, every
configuration) and, under the numpy kernel, one ``FlushBatch`` search of
a cell's table in the station's resident key columns
(``grouped_flush_parts``).  The contract is *bit-identity* — the same
floats out, not just close ones — because whole runs are asserted
metric-equal across kernels elsewhere.  These tests drive randomized
quadruplet stores and connection populations through both, one supplier
at a time, and tie the kernel back to the scalar Eq. 4 query.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._kernel import FlushBatch
from repro.cellular.cell import Cell
from repro.estimation.cache import CacheConfig
from repro.estimation.estimator import MobilityEstimator
from repro.traffic.classes import VOICE
from repro.traffic.connection import Connection

np = pytest.importorskip("numpy")

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
            Connection(VOICE, 0.0, 5, prev_cell=prev, cell_entry_time=entry)
        )
    return cell


def kernel_totals(estimator, cells, requests):
    """Each cell's ``requests`` through one resident-kernel batch."""
    batch = FlushBatch(np)
    slots = [
        estimator.grouped_flush_parts(
            np, NOW, requests, cell.reservation_table(np), batch
        )
        for cell in cells
    ]
    totals = batch.resolve()
    return [
        [0.0 if slot is None else totals[slot] for slot in part]
        for part in slots
    ]


def single_row_probabilities(estimator, extants, next_cell, t_est):
    """Eq. 4 per query out of the kernel: one single-row part each (a
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
# Eq. 4 out of the kernel
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
    """One supplier's table through the kernel vs the walk vs Eq. 4."""
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
