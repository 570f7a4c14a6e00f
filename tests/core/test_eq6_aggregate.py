"""Eq. 6: ``B_r`` is a plain left fold, the same bits on every Python."""

from repro.core.reservation import aggregate_reservation


def test_eq6_is_an_uncompensated_left_fold():
    # CPython >= 3.12's float sum() is compensated and returns 1.0 here;
    # the fold from 0.0 gives what 3.11's sum() gave.
    assert aggregate_reservation([0.1] * 10) == 0.9999999999999999


def test_eq6_adds_in_neighbour_order():
    values = [1e16, 1.0, -1e16, 1.0]
    assert aggregate_reservation(values) == ((1e16 + 1.0) - 1e16) + 1.0
    assert aggregate_reservation(iter(values)) == 1.0
    assert aggregate_reservation([]) == 0.0
