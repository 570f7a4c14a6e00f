"""The cache's sorted sojourn columns, keyed by ``prev`` and by
``(prev, next)``: the live lists the reservation tick counts Eq. 4 in
(:meth:`QuadrupletCache.sorted_lists`)."""

import random

import pytest

from repro.cellular.base_station import EXIT_CELL
from repro.estimation.cache import CacheConfig, QuadrupletCache
from repro.estimation.quadruplet import HandoffQuadruplet


def _record(cache, time, prev, next_cell, sojourn):
    cache.record(HandoffQuadruplet(time, prev, next_cell, sojourn))


def _expected(cache, requests):
    """``sorted_lists(requests)`` straight from the live history."""
    history = cache.export_columns()
    expected = {}
    for prev in {prev for prev, _next in history}:
        union = sorted(
            sojourn
            for (stored_prev, _next), (_times, sojourns) in history.items()
            if stored_prev == prev
            for sojourn in sojourns
        )
        pairs = [
            (index, sorted(history[(prev, target)][1]), t_est)
            for index, (target, t_est) in enumerate(requests)
            if (prev, target) in history
        ]
        if pairs:
            expected[prev] = (union, pairs)
    return expected


def test_patched_columns_track_inserts_and_evictions():
    """The lists are patched in place on every record and eviction, so
    each read sees exactly the live history."""
    rng = random.Random(7)
    cache = QuadrupletCache(CacheConfig(interval=None, max_per_pair=4))
    assert cache.sorted_lists([(0, 1.0), (2, 1.0)]) == {}
    for step in range(400):
        _record(
            cache,
            float(step),
            rng.choice([None, 0, 2]),
            rng.choice([EXIT_CELL, 0, 2]),
            rng.choice([1.0, 2.0, 2.0, 5.5, 9.0, rng.uniform(0.0, 50.0)]),
        )
        if step % 3 == 0:
            requests = [
                (target, rng.uniform(0.5, 20.0))
                for target in rng.sample(
                    [EXIT_CELL, 0, 2, 7], rng.randrange(0, 4)
                )
            ]
            assert cache.sorted_lists(requests) == _expected(cache, requests)


def test_preload_builds_sorted_columns():
    """A bulk load sorts each column once; the tick reads them sorted."""
    cache = QuadrupletCache(CacheConfig(interval=None))
    assert cache.sorted_lists([(1, 4.0)]) == {}
    cache.preload({(None, 1): ([0.0, 1.0, 2.0], [9.0, 3.0, 5.0])})
    assert cache.sorted_lists([(1, 4.0)]) == {
        None: ([3.0, 5.0, 9.0], [(0, [3.0, 5.0, 9.0], 4.0)])
    }


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
    assert cache.sorted_lists([(1, 4.0)]) is None
