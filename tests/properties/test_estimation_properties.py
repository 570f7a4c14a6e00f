"""Property-based tests for the estimation stack (hypothesis)."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cellular.base_station import EXIT_CELL
from repro.estimation.cache import CacheConfig, QuadrupletCache
from repro.estimation.estimator import MobilityEstimator
from repro.estimation.function import HandoffEstimationFunction

sojourns = st.floats(
    min_value=0.0, max_value=10_000.0, allow_nan=False, allow_infinity=False
)
next_cells = st.integers(min_value=0, max_value=5)

observation = st.tuples(sojourns, next_cells)
observations = st.lists(observation, min_size=0, max_size=60)


def build_estimator(items):
    estimator = MobilityEstimator(CacheConfig(interval=None))
    for index, (sojourn, next_cell) in enumerate(items):
        estimator.record_departure(float(index), 1, next_cell, sojourn)
    return estimator


@given(observations, sojourns, sojourns, next_cells)
def test_probability_in_unit_interval(items, extant, t_est, next_cell):
    estimator = build_estimator(items)
    probability = estimator.handoff_probability(
        1e6, 1, extant, next_cell, t_est
    )
    assert 0.0 <= probability <= 1.0
    assert not math.isnan(probability)


@given(observations, sojourns, sojourns)
def test_probabilities_sum_to_at_most_one(items, extant, t_est):
    estimator = build_estimator(items)
    total = sum(
        estimator.handoff_probabilities(1e6, 1, extant, t_est).values()
    )
    assert total <= 1.0 + 1e-9


@given(observations, sojourns, next_cells)
def test_monotone_in_t_est(items, extant, next_cell):
    estimator = build_estimator(items)
    previous = 0.0
    for t_est in (1.0, 10.0, 100.0, 1_000.0, 100_000.0):
        value = estimator.handoff_probability(
            1e6, 1, extant, next_cell, t_est
        )
        assert value >= previous - 1e-12
        previous = value


@given(observations, sojourns)
def test_stationary_iff_no_mass_beyond_extant(items, extant):
    estimator = build_estimator(items)
    has_longer = any(sojourn > extant for sojourn, _next in items)
    assert estimator.is_stationary(1e6, 1, extant) == (not has_longer)


@given(observations, sojourns, sojourns)
def test_full_window_probabilities_sum_to_one(items, extant, _unused):
    """With t_est covering all mass, the conditional masses sum to 1."""
    estimator = build_estimator(items)
    if estimator.is_stationary(1e6, 1, extant):
        return
    total = sum(
        estimator.handoff_probabilities(1e6, 1, extant, 1e9).values()
    )
    assert abs(total - 1.0) < 1e-9


@given(observations)
def test_max_sojourn_matches_history(items):
    estimator = build_estimator(items)
    expected = max((sojourn for sojourn, _ in items), default=0.0)
    assert estimator.max_sojourn(1e6) == expected


@given(observations, sojourns, sojourns)
def test_union_mass_equals_sum_of_parts(items, low, span):
    snapshot = HandoffEstimationFunction(
        build_estimator(items).cache.active(1e6, 1)
    )
    high = low + abs(span)
    per_cell = sum(
        snapshot.mass_between(next_cell, low, high)
        for next_cell in snapshot.next_cells()
    )
    assert abs(per_cell - snapshot.total_mass_between(low, high)) < 1e-6
    per_cell_above = sum(
        snapshot.mass_above(next_cell, low)
        for next_cell in snapshot.next_cells()
    )
    assert abs(per_cell_above - snapshot.total_mass_above(low)) < 1e-6


@settings(max_examples=30)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=200_000.0),
            sojourns,
        ),
        min_size=0,
        max_size=40,
    ),
    st.floats(min_value=0.0, max_value=400_000.0),
)
def test_cache_selection_never_exceeds_quota(events, now):
    config = CacheConfig(interval=3600.0, max_per_pair=5)
    cache = QuadrupletCache(config)
    for event_time, sojourn in sorted(events):
        cache.record(event_time, 1, 2, sojourn)
    active = cache.active(now, 1)
    for items in active.values():
        assert len(items) <= config.max_per_pair
        for _sojourn, weight in items:
            assert weight in config.weights


# ----------------------------------------------------------------------
# Eq. 5: the multi-request walk vs one walk per request vs Eq. 4
# ----------------------------------------------------------------------
#: Few distinct values, so duplicate sojourns and exact ties between a
#: sojourn and an extant time (entry times share the grid) are common.
GRID = st.sampled_from([0.0, 1.0, 2.5, 4.0, 4.0, 7.5, 11.0, 30.0])
PREVS = st.sampled_from([None, 0, 1, 2])
NEXTS = st.sampled_from([EXIT_CELL, 0, 1, 2])
NOW = 100.0


class _Attached:
    """The duck-typed connection Eq. 5 reads."""

    def __init__(self, prev_cell, cell_entry_time, bandwidth, basis):
        self.prev_cell = prev_cell
        self.cell_entry_time = cell_entry_time
        self.bandwidth = bandwidth
        if basis is not None:
            self.reservation_basis = basis


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(GRID, PREVS, NEXTS, GRID), max_size=40),
    st.sampled_from([1, 3, 100]),
    st.sampled_from([None, 20.0, 60.0]),
    st.sampled_from([1.0, 0.5]),
    st.lists(
        st.tuples(
            PREVS, GRID, st.sampled_from([1.0, 4.0]),
            st.sampled_from([None, 1.0, 2.0]),
        ),
        max_size=30,
    ),
    st.lists(
        st.tuples(
            NEXTS, st.sampled_from([-1.0, 0.0, 0.5, 4.0, 10.0, 100.0])
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_multi_request_walk_equals_one_walk_per_request(
    history, max_per_pair, interval, w_0, attached, requests
):
    """``expected_bandwidth_multi`` shares snapshots, denominators and
    bases between its requests; none of that may show in a total."""
    estimator = MobilityEstimator(
        CacheConfig(
            interval=interval, max_per_pair=max_per_pair, weights=(w_0, w_0)
        )
    )
    # A populated start (every prev/next pairing observed), so most
    # examples sum non-zero contributions; then the drawn history,
    # oldest first.  max_per_pair 1 and 3 evict; T_int = 20 cuts the
    # start and the oldest draws, T_int = 60 keeps everything.
    for index, prev in enumerate((None, 0, 1, 2)):
        for next_cell in (EXIT_CELL, 0, 1, 2):
            estimator.record_departure(
                NOW - 50.0, prev, next_cell, 3.0 * index + next_cell + 2
            )
    for age, prev, next_cell, sojourn in sorted(
        history, key=lambda item: -item[0]
    ):
        estimator.record_departure(NOW - 1.5 * age, prev, next_cell, sojourn)
    connections = [
        _Attached(prev, NOW - offset, bandwidth, basis)
        for prev, offset, bandwidth, basis in attached
    ]
    together = estimator.expected_bandwidth_multi(NOW, connections, requests)
    assert together == [
        estimator.expected_bandwidth(NOW, connections, target_cell, t_est)
        for target_cell, t_est in requests
    ]
    # ... and each is Eq. 5 as written: the sum, in connection order, of
    # basis x the scalar Eq. 4 query.
    literal = []
    for target_cell, t_est in requests:
        total = 0.0
        for connection in connections:
            total += getattr(
                connection, "reservation_basis", connection.bandwidth
            ) * estimator.handoff_probability(
                NOW,
                connection.prev_cell,
                NOW - connection.cell_entry_time,
                target_cell,
                t_est,
            )
        literal.append(total)
    assert together == literal
