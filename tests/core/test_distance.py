"""Tests for the equation (1) and (2) distance metrics."""

import numpy as np
import pytest

import _refresh_oracle as oracle
from repro.core.distance import (
    amdf_at_lag,
    amdf_profile,
    event_distance_at_lag,
    event_distance_profile,
    matching_lags,
    normalized_amdf_profile,
)
from repro.util.validation import ValidationError


class TestAmdfAtLag:
    def test_zero_for_exact_period(self):
        window = np.tile([1.0, 5.0, 2.0, 7.0], 6)
        assert amdf_at_lag(window, 4) == 0.0
        assert amdf_at_lag(window, 8) == 0.0

    def test_positive_for_wrong_lag(self):
        window = np.tile([1.0, 5.0, 2.0, 7.0], 6)
        assert amdf_at_lag(window, 3) > 0.0

    def test_matches_direct_formula(self, rng):
        window = rng.normal(size=50)
        lag = 7
        expected = np.mean(np.abs(window[lag:] - window[:-lag]))
        assert amdf_at_lag(window, lag) == pytest.approx(expected)

    def test_lag_bounds(self):
        window = np.arange(10.0)
        with pytest.raises(ValidationError):
            amdf_at_lag(window, 0)
        with pytest.raises(ValidationError):
            amdf_at_lag(window, 10)

    def test_rejects_bad_window(self):
        with pytest.raises(ValidationError):
            amdf_at_lag([], 1)
        with pytest.raises(ValidationError):
            amdf_at_lag(np.zeros((3, 3)), 1)


class TestAmdfProfile:
    def test_profile_indexed_by_lag(self):
        window = np.tile([0.0, 1.0, 2.0], 8)
        profile = amdf_profile(window, 9)
        assert profile.size == 10
        assert np.isnan(profile[0])
        assert profile[3] == 0.0
        assert profile[6] == 0.0
        assert profile[2] > 0.0

    def test_profile_matches_pointwise(self, rng):
        window = rng.normal(size=40)
        profile = amdf_profile(window, 12)
        for lag in range(1, 13):
            assert profile[lag] == pytest.approx(amdf_at_lag(window, lag))

    def test_max_lag_clamped_to_window(self):
        window = np.arange(8.0)
        profile = amdf_profile(window, 100)
        assert profile.size == 8

    def test_min_lag_greater_than_max_rejected(self):
        with pytest.raises(ValidationError):
            amdf_profile(np.arange(10.0), 3, min_lag=5)

    def test_minimum_at_true_period_of_noisy_signal(self, rng):
        pattern = rng.normal(size=10)
        window = np.tile(pattern, 8) + rng.normal(0, 0.01, size=80)
        profile = amdf_profile(window, 25)
        finite = np.nan_to_num(profile, nan=np.inf)
        assert int(np.argmin(finite)) in (10, 20)


class TestNormalizedProfile:
    def test_mean_of_finite_values_is_one(self, rng):
        window = rng.normal(size=64)
        profile = normalized_amdf_profile(window, 30)
        finite = profile[np.isfinite(profile)]
        assert finite.mean() == pytest.approx(1.0)

    def test_constant_signal(self):
        profile = normalized_amdf_profile(np.full(20, 3.0), 10)
        finite = profile[np.isfinite(profile)]
        assert np.all(finite == 0.0)


class TestEventDistance:
    def test_zero_only_for_exact_match(self):
        window = np.tile([10, 20, 30], 6)
        assert event_distance_at_lag(window, 3) == 0
        assert event_distance_at_lag(window, 6) == 0
        assert event_distance_at_lag(window, 2) == 1
        assert event_distance_at_lag(window, 4) == 1

    def test_profile_values_are_binary(self):
        window = np.tile([1, 2, 3, 4], 5)
        profile = event_distance_profile(window, 10)
        evaluated = profile[1:]
        assert set(np.unique(evaluated)).issubset({0, 1})
        assert profile[0] == -1

    def test_single_sample_difference_breaks_match(self):
        window = np.tile([1, 2, 3], 6).astype(np.int64)
        window[10] = 99
        assert event_distance_at_lag(window, 3) == 1


class TestMatchingLags:
    def test_exact_periodic_stream(self):
        window = np.tile([7, 8, 9, 10], 8)
        lags = matching_lags(window, 16)
        assert lags[0] == 4
        assert all(lag % 4 == 0 for lag in lags)

    def test_repetition_requirement(self):
        window = np.tile(np.arange(10), 2)  # exactly 2 repetitions
        assert 10 in matching_lags(window, min_repetitions=2)
        assert 10 not in matching_lags(window, min_repetitions=3)

    def test_aperiodic_stream_has_no_matches(self):
        window = np.arange(50)
        assert matching_lags(window) == []


class TestAmdfPairSumsBatch:
    def test_rows_match_scalar_bitwise(self):
        from repro.core.distance import amdf_pair_sums, amdf_pair_sums_batch

        rng = np.random.default_rng(3)
        for n, max_lag in ((64, 63), (64, 10), (7, 3), (2, 1)):
            windows = rng.normal(size=(9, n)) * 1e4
            batch = amdf_pair_sums_batch(windows, max_lag)
            assert batch.shape == (9, max_lag + 1)
            for row in range(9):
                assert np.array_equal(batch[row], amdf_pair_sums(windows[row], max_lag))
            # Both now run the refresh kernel, so hold them to the oracle too.
            assert np.array_equal(batch, oracle.pair_sums_batch(windows, max_lag))

    def test_rejects_bad_shapes(self):
        from repro.core.distance import amdf_pair_sums_batch
        from repro.util.validation import ValidationError

        with pytest.raises(ValidationError):
            amdf_pair_sums_batch(np.zeros(8), 4)
        with pytest.raises(ValidationError):
            amdf_pair_sums_batch(np.zeros((0, 8)), 4)
