"""Unit tests for the interval estimates."""

import math

import pytest

from repro.analysis.stats import batch_means, t_quantile, wilson_interval


class TestWilson:
    def test_midpoint_estimate(self):
        estimate = wilson_interval(50, 100)
        assert estimate.point == 0.5
        assert estimate.low < 0.5 < estimate.high
        assert 0.08 < estimate.high - estimate.low < 0.22

    def test_zero_successes_interval_excludes_negative(self):
        estimate = wilson_interval(0, 1000)
        assert estimate.point == 0.0
        assert estimate.low == 0.0
        assert 0.0 < estimate.high < 0.01

    def test_all_successes(self):
        estimate = wilson_interval(100, 100)
        assert estimate.point == 1.0
        assert estimate.high == 1.0
        assert estimate.low > 0.95

    def test_zero_trials_is_vacuous(self):
        estimate = wilson_interval(0, 0)
        assert (estimate.low, estimate.high) == (0.0, 1.0)

    def test_interval_narrows_with_trials(self):
        small = wilson_interval(5, 100)
        large = wilson_interval(500, 10_000)
        assert (large.high - large.low) < (small.high - small.low)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 3)
        with pytest.raises(ValueError):
            wilson_interval(-1, 3)

    def test_str_format(self):
        rendered = str(wilson_interval(1, 100))
        assert "[" in rendered and "]" in rendered


class TestTQuantile:
    #: Two-sided 95% critical values, Student-t tables.
    REFERENCE_95 = {
        1: 12.706,
        2: 4.303,
        3: 3.182,
        5: 2.571,
        10: 2.228,
        30: 2.042,
        100: 1.984,
    }

    @pytest.mark.parametrize("dof,expected", sorted(REFERENCE_95.items()))
    def test_matches_tables_at_95(self, dof, expected):
        assert t_quantile(0.95, dof) == pytest.approx(expected, rel=2e-3)

    def test_99_level_dof_5(self):
        assert t_quantile(0.99, 5) == pytest.approx(4.032, rel=5e-3)

    def test_approaches_normal_quantile(self):
        assert t_quantile(0.95, 10_000) == pytest.approx(1.96, abs=1e-2)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            t_quantile(1.0, 5)
        with pytest.raises(ValueError):
            t_quantile(0.0, 5)
        with pytest.raises(ValueError):
            t_quantile(0.95, 0)


class TestBatchMeans:
    def test_known_small_sample(self):
        estimate = batch_means([1.0, 2.0, 3.0, 4.0])
        assert estimate.mean == pytest.approx(2.5)
        # s = sqrt(5/3), half-width = t_{.975,3} * s / 2
        expected = t_quantile(0.95, 3) * math.sqrt(5.0 / 3.0) / 2.0
        assert estimate.half_width == pytest.approx(expected)
        assert estimate.covers(2.5)
        assert not estimate.covers(100.0)

    def test_single_batch_is_infinite(self):
        estimate = batch_means([0.25])
        assert estimate.mean == 0.25
        assert math.isinf(estimate.half_width)
        assert estimate.covers(1e9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            batch_means([])

    def test_constant_batches_collapse(self):
        estimate = batch_means([0.5] * 8)
        assert estimate.half_width == pytest.approx(0.0)
