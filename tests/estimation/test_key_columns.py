"""The cache's sorted sojourn columns, keyed by ``prev`` and by
``(prev, next)``: the live lists the reservation tick counts Eq. 4 in,
and the resident index that names them per target
(:meth:`QuadrupletCache.lists_by_target`)."""

import random

import pytest

from repro.cellular.base_station import EXIT_CELL
from repro.estimation.cache import CacheConfig, QuadrupletCache


def _record(cache, time, prev, next_cell, sojourn):
    cache.record(time, prev, next_cell, sojourn)


def _expected(cache):
    """``lists_by_target()`` straight from the live history, as
    ``{target: {prev: (union, pair)}}``."""
    history = cache.export_columns()
    expected = {}
    for (prev, target), (_times, sojourns) in history.items():
        union = sorted(
            sojourn
            for (stored_prev, _next), (_times, column) in history.items()
            if stored_prev == prev
            for sojourn in column
        )
        expected.setdefault(target, {})[prev] = (union, sorted(sojourns))
    return expected


def _read(index):
    """The index as ``{target: {prev: (union, pair)}}``, each ``prev``
    once per target."""
    read = {}
    for target, lists in index.items():
        read[target] = {prev: (union, pair) for prev, union, pair in lists}
        assert len(read[target]) == len(lists)
    return read


def test_patched_columns_track_inserts_and_evictions():
    """The lists are patched in place on every record and eviction, and
    the index gains an entry as a pair list first fills: one read at
    the start sees exactly the live history ever after."""
    rng = random.Random(7)
    cache = QuadrupletCache(CacheConfig(interval=None, max_per_pair=4))
    index = cache.lists_by_target()
    assert index == {}
    for step in range(400):
        _record(
            cache,
            float(step),
            rng.choice([None, 0, 2]),
            rng.choice([EXIT_CELL, 0, 2]),
            rng.choice([1.0, 2.0, 2.0, 5.5, 9.0, rng.uniform(0.0, 50.0)]),
        )
        if step % 3 == 0:
            assert cache.lists_by_target() is index
            assert _read(index) == _expected(cache)
    # N_quad eviction never empties a list, so no entry ever left.
    assert all(pair for lists in index.values() for _p, _u, pair in lists)


def test_preload_builds_sorted_columns():
    """A bulk load sorts each column once and indexes it; the tick reads
    them sorted."""
    cache = QuadrupletCache(CacheConfig(interval=None))
    assert cache.lists_by_target() == {}
    cache.preload({
        (None, 1): ([0.0, 1.0, 2.0], [9.0, 3.0, 5.0]),
        (2, 1): ([0.0], [4.0]),
        (2, 3): ([], []),
    })
    assert _read(cache.lists_by_target()) == {
        1: {
            None: ([3.0, 5.0, 9.0], [3.0, 5.0, 9.0]),
            2: ([4.0], [4.0]),
        }
    }
    # The empty (2, 3) list enters the index when it first fills.
    _record(cache, 3.0, 2, 3, 1.0)
    assert _read(cache.lists_by_target())[3] == {2: ([1.0, 4.0], [1.0])}


@pytest.mark.parametrize(
    "config",
    [
        CacheConfig(interval=600.0),
        CacheConfig(interval=None, weights=(0.5, 0.5)),
    ],
)
def test_no_columns_when_masses_are_not_plain_counts(config):
    cache = QuadrupletCache(config)
    _record(cache, 0.0, None, 1, 5.0)
    assert cache.lists_by_target() is None
