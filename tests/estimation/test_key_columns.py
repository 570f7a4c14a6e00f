"""The cache's resident Eq. 4 key columns: build, patch, drop."""

import random

import pytest

from repro._kernel import prev_key
from repro.cellular.base_station import EXIT_CELL
from repro.estimation.cache import (
    _JOURNAL_LIMIT,
    _MIN_KEY_ROWS,
    CacheConfig,
    QuadrupletCache,
)
from repro.estimation.quadruplet import HandoffQuadruplet

np = pytest.importorskip("numpy")


def _record(cache, time, prev, next_cell, sojourn):
    cache.record(HandoffQuadruplet(time, prev, next_cell, sojourn))


def _expected(cache):
    """Both columns straight from the live history."""
    union, pair = [], []
    for (prev, next_cell), (_times, sojourns) in cache.export_columns().items():
        for sojourn in sojourns:
            union.append((prev_key(prev), sojourn))
            pair.append((prev_key(prev) + next_cell + 2, sojourn))
    return sorted(union), sorted(pair)


def _as_pairs(column):
    return [(key.real, key.imag) for key in column.tolist()]


def _current(cache):
    columns = cache.key_columns()
    if columns is None:
        columns = cache.build_key_columns(np)
    return columns


def test_patched_columns_track_inserts_and_evictions():
    rng = random.Random(7)
    cache = QuadrupletCache(CacheConfig(interval=None, max_per_pair=4))
    assert cache.key_columns() is None  # nothing resident before a build
    builds = 0
    for step in range(400):
        _record(
            cache,
            float(step),
            rng.choice([None, 0, 2]),
            rng.choice([EXIT_CELL, 0, 2]),
            rng.choice([1.0, 2.0, 2.0, 5.5, 9.0, rng.uniform(0.0, 50.0)]),
        )
        if step % 3 == 0:
            if cache.key_columns() is None:
                builds += 1
            union, pair = _current(cache)
            expected_union, expected_pair = _expected(cache)
            assert _as_pairs(union) == expected_union
            assert _as_pairs(pair) == expected_pair
    assert builds == 1  # every later use patched the resident columns


def test_journal_overflow_drops_the_columns_and_stops_journaling():
    cache = QuadrupletCache(CacheConfig(interval=None))
    cache.build_key_columns(np)
    for step in range(_JOURNAL_LIMIT):
        _record(cache, float(step), None, 1, float(step))
    assert len(cache._journal) == _JOURNAL_LIMIT
    assert cache.key_columns() is not None  # exactly at the limit: patched
    for step in range(_JOURNAL_LIMIT + 1):
        _record(cache, 100.0 + step, 0, 1, float(step))
    assert cache._journal is None and cache.key_columns() is None
    _record(cache, 500.0, 0, 1, 3.0)  # not journaled: nothing to patch
    assert cache._journal is None
    union, pair = cache.build_key_columns(np)
    expected_union, expected_pair = _expected(cache)
    assert _as_pairs(union) == expected_union
    assert _as_pairs(pair) == expected_pair


def test_a_cache_never_queried_never_journals():
    cache = QuadrupletCache(CacheConfig(interval=None, max_per_pair=2))
    for step in range(50):
        _record(cache, float(step), None, 1, float(step % 7))
    assert cache._journal is None and cache._key_columns is None


def test_full_buffer_is_rebuilt_larger():
    cache = QuadrupletCache(CacheConfig(interval=None, max_per_pair=10_000))
    cache.build_key_columns(np)
    for step in range(_MIN_KEY_ROWS + 10):
        _record(cache, float(step), None, 1, float(step % 13))
        if step % 5 == 0:
            union, _pair = _current(cache)
            assert len(union) == step + 1
    union, pair = _current(cache)
    assert len(cache._key_columns[0]) > _MIN_KEY_ROWS
    expected_union, expected_pair = _expected(cache)
    assert _as_pairs(union) == expected_union
    assert _as_pairs(pair) == expected_pair


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
    assert cache.build_key_columns(np) is None
    assert cache.key_columns() is None and cache._journal is None
