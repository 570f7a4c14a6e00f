"""The quadruplet cache as columns: random departures in time order.

Each ``(prev, next)`` pair keeps its event and sojourn times in record
order; an infinite interval also keeps each pair's sojourns, and each
``prev``'s union of them, sorted.  These properties pin what the
columns must equal, that ``export_columns`` -> ``preload`` loses
nothing a query can see, and the two refusals of ``record``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cellular.base_station import EXIT_CELL
from repro.estimation.cache import CacheConfig, QuadrupletCache

PREVS = [None, 0, 1, 2]
#: The cache keys pairs by value, so even a ``None`` next is a pair.
NEXTS = [EXIT_CELL, None, 0, 1, 2]

#: ``(time step, prev, next, sojourn)``: steps of 0 give equal times.
DEPARTURES = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 3.0, 20.0, 70.0]),
        st.sampled_from(PREVS),
        st.sampled_from(NEXTS),
        st.sampled_from([0.0, 1.0, 2.5, 4.0, 7.5, 30.0]),
    ),
    max_size=60,
)

#: ``T_int = None`` with ``w_0`` 1 or below 1, and a finite ``T_int``
#: over a short period with two day weights.
CONFIGS = st.one_of(
    st.builds(
        lambda n_quad, w_0: CacheConfig(
            interval=None, max_per_pair=n_quad, weights=(w_0, w_0)
        ),
        st.sampled_from([1, 2, 3, 5]),
        st.sampled_from([1.0, 0.5]),
    ),
    st.builds(
        lambda n_quad, weights: CacheConfig(
            interval=15.0, max_per_pair=n_quad, weights=weights, period=100.0
        ),
        st.sampled_from([1, 2, 3, 5]),
        st.sampled_from([(1.0, 0.5), (0.8, 0.8)]),
    ),
)


def _record_all(config, departures):
    """The cache after ``departures``, and each pair's sojourns in order."""
    cache = QuadrupletCache(config)
    history: dict[tuple, list[float]] = {}
    now = 0.0
    for step, prev, next_cell, sojourn in departures:
        now += step
        cache.record(now, prev, next_cell, sojourn)
        history.setdefault((prev, next_cell), []).append(sojourn)
    return cache, history, now


@settings(max_examples=200, deadline=None)
@given(DEPARTURES, st.sampled_from([1, 2, 3, 5]))
def test_infinite_interval_columns_are_the_sorted_last_n_quad(
    departures, n_quad
):
    cache, history, now = _record_all(
        CacheConfig(interval=None, max_per_pair=n_quad), departures
    )
    kept = {pair: sojourns[-n_quad:] for pair, sojourns in history.items()}
    assert cache.size() == sum(len(sojourns) for sojourns in kept.values())
    assert cache.total_recorded == len(departures)
    for prev in PREVS:
        columns = cache.active_columns(now, prev)
        mine = {
            next_cell: sojourns
            for (stored_prev, next_cell), sojourns in kept.items()
            if stored_prev == prev
        }
        assert columns.per_next == {
            next_cell: sorted(sojourns) for next_cell, sojourns in mine.items()
        }
        assert columns.union == sorted(
            sojourn for sojourns in mine.values() for sojourn in sojourns
        )
    by_target = cache.lists_by_target()
    for next_cell, entries in by_target.items():
        for prev, union, pair in entries:
            assert pair == sorted(kept[(prev, next_cell)])
            assert union == cache.active_columns(now, prev).union
    assert {
        (prev, next_cell)
        for next_cell, entries in by_target.items()
        for prev, _union, _pair in entries
    } == set(kept)
    assert cache.max_active_sojourn() == max(
        (max(sojourns) for sojourns in kept.values()), default=0.0
    )


@settings(max_examples=200, deadline=None)
@given(
    DEPARTURES,
    CONFIGS,
    st.lists(st.sampled_from([0.0, 10.0, 50.0, 100.0, 230.0]), max_size=4),
)
def test_export_preload_round_trip_answers_every_query_alike(
    departures, config, offsets
):
    cache, _history, now = _record_all(config, departures)
    loaded = QuadrupletCache(config)
    loaded.preload(cache.export_columns())
    assert loaded.export_columns() == cache.export_columns()
    assert loaded.lists_by_target() == cache.lists_by_target()
    assert loaded.max_active_sojourn() == cache.max_active_sojourn()
    assert loaded.size() == cache.size()
    for instant in [now] + [now + offset for offset in offsets]:
        for prev in PREVS:
            assert loaded.active(instant, prev) == cache.active(instant, prev)
            active_columns = cache.active_columns(instant, prev)
            if active_columns is not None:
                again = loaded.active_columns(instant, prev)
                assert again.per_next == active_columns.per_next
                assert again.union == active_columns.union


@settings(max_examples=100, deadline=None)
@given(DEPARTURES, CONFIGS, st.sampled_from([-0.5, -30.0]))
def test_refused_records_leave_the_columns_alone(departures, config, sojourn):
    cache, _history, now = _record_all(config, departures)
    before = cache.export_columns()
    with pytest.raises(ValueError, match=f"negative sojourn time {sojourn}"):
        cache.record(now, 1, 2, sojourn)
    for (prev, next_cell), (times, _sojourns) in before.items():
        with pytest.raises(
            ValueError, match="quadruplets must be recorded in time order"
        ):
            cache.record(times[-1] - 1.0, prev, next_cell, 4.0)
    assert cache.export_columns() == before
    assert cache.total_recorded == len(departures)
