"""Unit tests for the F_HOE snapshot's mass queries."""

from repro.estimation.function import HandoffEstimationFunction


def weighted(sojourn, weight=1.0):
    """One active quadruplet as the cache's selection yields it."""
    return sojourn, weight


def build(mapping):
    return HandoffEstimationFunction(mapping)


def test_empty_function():
    function = build({})
    assert function.is_empty
    assert function.total_mass_above(0.0) == 0.0
    assert function.max_sojourn() == 0.0
    assert function.next_cells() == ()


def test_mass_above_counts_strictly_greater():
    function = build({2: [weighted(10.0), weighted(20.0)]})
    assert function.mass_above(2, 10.0) == 1.0
    assert function.mass_above(2, 9.99) == 2.0
    assert function.mass_above(2, 20.0) == 0.0


def test_mass_between_half_open():
    function = build({2: [weighted(10.0), weighted(20.0), weighted(30.0)]})
    # (low, high]: excludes low, includes high.
    assert function.mass_between(2, 10.0, 20.0) == 1.0
    assert function.mass_between(2, 9.0, 10.0) == 1.0
    assert function.mass_between(2, 20.0, 30.0) == 1.0
    assert function.mass_between(2, 0.0, 100.0) == 3.0


def test_mass_between_empty_interval():
    function = build({2: [weighted(10.0)]})
    assert function.mass_between(2, 10.0, 10.0) == 0.0
    assert function.mass_between(2, 20.0, 5.0) == 0.0


def test_weights_respected():
    function = build({2: [weighted(10.0, weight=0.5), weighted(20.0, 0.25)]})
    assert function.mass_above(2, 0.0) == 0.75
    assert function.mass_between(2, 5.0, 15.0) == 0.5


def test_total_mass_spans_next_cells():
    function = build(
        {
            2: [weighted(10.0)],
            3: [weighted(30.0)],
        }
    )
    assert function.total_mass_above(0.0) == 2.0
    assert function.total_mass_above(15.0) == 1.0
    assert function.total_mass_between(5.0, 35.0) == 2.0


def test_unknown_next_cell_zero_mass():
    function = build({2: [weighted(10.0)]})
    assert function.mass_above(99, 0.0) == 0.0
    assert function.mass_between(99, 0.0, 100.0) == 0.0


def test_max_sojourn():
    function = build(
        {
            2: [weighted(10.0)],
            3: [weighted(45.0)],
        }
    )
    assert function.max_sojourn() == 45.0


def test_sample_count_above_unweighted():
    function = build(
        {2: [weighted(10.0, weight=0.1), weighted(20.0, weight=0.1)]}
    )
    assert function.sample_count_above(5.0) == 2
    assert function.sample_count_above(15.0) == 1


def test_duplicate_sojourns_accumulate():
    function = build({2: [weighted(10.0), weighted(10.0), weighted(10.0)]})
    assert function.mass_above(2, 9.0) == 3.0
    assert function.mass_between(2, 9.0, 10.0) == 3.0
    assert function.mass_above(2, 10.0) == 0.0


def test_footprint_structure():
    function = build({2: [weighted(10.0), weighted(20.0)]})
    footprint = function.footprint()
    assert list(footprint) == [2]
    assert footprint[2] == [(10.0, 1.0), (20.0, 2.0)]


def test_matches_naive_computation():
    import random

    rng = random.Random(0)
    items = {
        next_cell: [
            weighted(rng.uniform(0, 100), rng.choice((0.5, 1.0)))
            for _ in range(50)
        ]
        for next_cell in (2, 3, 4)
    }
    function = build(items)
    for low, high in [(0, 10), (5, 50), (30, 31), (90, 200)]:
        for next_cell in (2, 3, 4):
            naive = sum(
                weight
                for sojourn, weight in items[next_cell]
                if low < sojourn <= high
            )
            got = function.mass_between(next_cell, low, high)
            assert abs(got - naive) < 1e-9
        naive_above = sum(
            weight
            for cell_items in items.values()
            for sojourn, weight in cell_items
            if sojourn > low
        )
        assert abs(function.total_mass_above(low) - naive_above) < 1e-9
