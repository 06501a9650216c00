"""Tests for local-minimum search and harmonic filtering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _selection_oracle as oracle
from repro.core.distance import amdf_profile
from repro.core.minima import PeriodCandidate, filter_harmonics, find_local_minima, select_period


def fields(candidate):
    return None if candidate is None else (candidate.lag, candidate.distance, candidate.depth)


def matches_oracle(profile, **options):
    """``select_period`` equals the literal reference, bit for bit."""
    return fields(select_period(profile, **options)) == fields(
        oracle.select_period(profile, **options)
    )


def profile_for(pattern, repetitions, max_lag, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    window = np.tile(np.asarray(pattern, dtype=float), repetitions)
    if noise:
        window = window + rng.normal(0, noise, size=window.size)
    return amdf_profile(window, max_lag)


class TestFindLocalMinima:
    def test_finds_period_and_harmonics(self):
        profile = profile_for([0, 3, 1, 4, 2], 8, 20)
        lags = {c.lag for c in find_local_minima(profile)}
        assert {5, 10, 15, 20} <= lags

    def test_depth_is_one_for_exact_match(self):
        profile = profile_for([0, 3, 1, 4, 2], 8, 12)
        by_lag = {c.lag: c for c in find_local_minima(profile)}
        assert by_lag[5].depth == pytest.approx(1.0)
        assert by_lag[5].distance == 0.0

    def test_empty_profile(self):
        assert find_local_minima(np.full(10, np.nan)) == []

    def test_min_lag_respected(self):
        profile = profile_for([0, 1], 10, 10)
        lags = {c.lag for c in find_local_minima(profile, min_lag=3)}
        assert 2 not in lags

    @given(
        values=st.lists(
            st.one_of(
                st.just(np.nan),
                st.integers(min_value=0, max_value=4).map(float),
                st.floats(min_value=0.0, max_value=10.0),
            ),
            max_size=40,
        ),
        min_lag=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_loop_oracle(self, values, min_lag):
        profile = np.array(values, dtype=float)
        got = find_local_minima(profile, min_lag=min_lag)
        expected = oracle.find_local_minima(profile, min_lag=min_lag)
        assert [fields(c) for c in got] == [fields(c) for c in expected]

    def test_candidate_requires_positive_lag(self):
        with pytest.raises(ValueError):
            PeriodCandidate(lag=0, distance=0.0, depth=1.0)


class TestFilterHarmonics:
    def test_drops_multiples(self):
        cands = [
            PeriodCandidate(5, 0.0, 1.0),
            PeriodCandidate(10, 0.0, 1.0),
            PeriodCandidate(15, 0.0, 1.0),
        ]
        kept = filter_harmonics(cands)
        assert [c.lag for c in kept] == [5]

    def test_keeps_unrelated_periods(self):
        cands = [PeriodCandidate(5, 0.0, 1.0), PeriodCandidate(7, 0.0, 1.0)]
        kept = filter_harmonics(cands)
        assert {c.lag for c in kept} == {5, 7}

    def test_keeps_much_deeper_multiple(self):
        # The lag-10 minimum is far deeper than the shallow lag-5 one, so it
        # is considered a genuine period rather than a harmonic.
        cands = [PeriodCandidate(5, 0.5, 0.2), PeriodCandidate(10, 0.0, 0.95)]
        kept = filter_harmonics(cands, tolerance=0.15)
        assert 10 in {c.lag for c in kept}

    def test_empty_input(self):
        assert filter_harmonics([]) == []


class TestFilterHarmonicsMatchesLoop:
    """Property: the broadcast implementation equals the loop oracle."""

    @given(
        lag_depths=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=60),
                st.floats(min_value=-0.5, max_value=1.0),
            ),
            min_size=1,
            max_size=24,
            unique_by=lambda t: t[0],
        ),
        tolerance=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_loop_on_random_candidates(self, lag_depths, tolerance):
        cands = [
            PeriodCandidate(lag=lag, distance=abs(1.0 - depth), depth=depth)
            for lag, depth in lag_depths
        ]
        got = filter_harmonics(cands, tolerance=tolerance)
        expected = oracle.filter_harmonics_loop(cands, tolerance=tolerance)
        assert [(c.lag, c.depth) for c in got] == [(c.lag, c.depth) for c in expected]

    def test_matches_loop_on_random_profiles(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            pattern = rng.integers(0, 6, size=rng.integers(2, 9))
            window = np.tile(pattern.astype(float), 12)
            window += rng.normal(0, rng.uniform(0, 0.3), size=window.size)
            profile = amdf_profile(window, min(48, window.size - 1))
            cands = find_local_minima(profile)
            got = filter_harmonics(cands)
            expected = oracle.filter_harmonics_loop(cands)
            assert [c.lag for c in got] == [c.lag for c in expected], trial

    def test_dropped_harmonic_does_not_suppress(self):
        # Lag 4 is dropped as a harmonic of lag 2; it must then not drop
        # lag 8, which survives against lag 2 alone (kept-set semantics).
        cands = [
            PeriodCandidate(2, 0.5, 0.50),
            PeriodCandidate(4, 0.4, 0.60),
            PeriodCandidate(8, 0.3, 0.70),
        ]
        kept = filter_harmonics(cands, tolerance=0.15)
        assert [c.lag for c in kept] == [2, 8]


class TestSelectPeriod:
    def test_selects_fundamental(self):
        profile = profile_for([0, 3, 1, 4, 2, 9], 8, 30)
        choice = select_period(profile)
        assert choice is not None
        assert choice.lag == 6
        assert matches_oracle(profile)

    def test_returns_none_for_aperiodic(self, rng):
        window = rng.normal(size=128)
        profile = amdf_profile(window, 60)
        choice = select_period(profile, min_depth=0.5)
        assert choice is None
        assert matches_oracle(profile, min_depth=0.5)

    def test_noisy_periodic_signal(self):
        profile = profile_for(np.arange(9), 10, 40, noise=0.05, seed=3)
        choice = select_period(profile, min_depth=0.2)
        assert choice is not None
        assert choice.lag == 9
        assert matches_oracle(profile, min_depth=0.2)

    def test_min_depth_threshold(self):
        profile = profile_for([0, 3, 1, 4, 2], 8, 20)
        assert select_period(profile, min_depth=0.99) is not None
        # A nearly flat profile never qualifies with a strict threshold.
        flat = np.ones(20)
        flat[0] = np.nan
        assert select_period(flat, min_depth=0.5) is None
        assert matches_oracle(profile, min_depth=0.99)
        assert matches_oracle(flat, min_depth=0.5)

    def test_min_lag_must_be_positive(self):
        # select_period is the batched kernel on one row, whose result
        # uses lag 0 as its no-period marker.
        profile = profile_for([0, 3, 1, 4, 2], 8, 20)
        with pytest.raises(ValueError, match="min_lag"):
            select_period(profile, min_lag=0)
