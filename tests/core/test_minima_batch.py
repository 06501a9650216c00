"""Property tests: batched period selection == the literal oracle.

``select_periods_batch`` is the one period selection: the magnitude
bank runs it over its whole profile matrix and ``select_period`` over a
one-row matrix.  Every row of its result must be *exactly* what the
Python-loop reference in ``tests/_selection_oracle.py`` produces —
including NaN padding, plateau handling, the ``min_depth`` gate,
harmonic suppression and the deepest-then-smallest-lag tie break.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _selection_oracle as oracle
from repro.core.distance import amdf_profile
from repro.core.minima import select_periods_batch


@st.composite
def profile_matrices(draw):
    streams = draw(st.integers(min_value=1, max_value=6))
    lags = draw(st.integers(min_value=2, max_value=40))
    # Values with repeats (plateaus), zeros and NaN stretches: the shapes
    # that exercise every branch of the minima search.
    value = st.one_of(
        st.just(np.nan),
        st.just(0.0),
        st.integers(min_value=0, max_value=6).map(float),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    rows = draw(
        st.lists(
            st.lists(value, min_size=lags, max_size=lags),
            min_size=streams,
            max_size=streams,
        )
    )
    return np.array(rows, dtype=float)


class TestBatchEqualsOracle:
    # The kernel_backend fixture only swaps which (stateless) kernel
    # module the batch call dispatches to, so reusing it across
    # hypothesis examples is sound.
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        matrix=profile_matrices(),
        min_lag=st.integers(min_value=1, max_value=6),
        min_depth=st.floats(min_value=0.0, max_value=1.0),
        tolerance=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_every_row_matches_select_period(
        self, kernel_backend, matrix, min_lag, min_depth, tolerance
    ):
        lags, distances, depths = select_periods_batch(
            matrix, min_lag=min_lag, min_depth=min_depth, harmonic_tolerance=tolerance
        )
        expected = oracle.select_rows(
            matrix, min_lag=min_lag, min_depth=min_depth, harmonic_tolerance=tolerance
        )
        got = list(zip(lags.tolist(), distances.tolist(), depths.tolist()))
        assert got == expected

    def test_realistic_periodic_profiles(self):
        # A sharp profile with harmonics: minima at 5, 10, 15, ... must
        # resolve to the fundamental in every row.
        lags = np.arange(41, dtype=float)
        profile = np.where(lags % 5 == 0, 0.1, 3.0)
        profile[0] = np.nan
        matrix = np.stack([profile, profile * 2.0, np.full(41, np.nan)])
        selected, _, _ = select_periods_batch(matrix, min_lag=2)
        assert selected.tolist() == [5, 5, 0]

    @pytest.mark.parametrize("min_depth", [0.1, 0.25])
    @pytest.mark.parametrize("tolerance", [0.0, 0.15, 0.3])
    def test_phase_jumped_noisy_profiles_match_the_oracle(
        self, kernel_backend, min_depth, tolerance
    ):
        # Real AMDF profiles of windows that jump phase part-way and carry
        # noise: competing minima and near-threshold harmonics, many rows
        # at once, so every row segment meets both fast paths and the
        # slow resolution.
        rng = np.random.default_rng(5)
        rows = []
        for _ in range(120):
            pattern = rng.integers(0, 6, size=rng.integers(2, 16)).astype(float)
            jump = rng.integers(8, 56)
            shifted = np.roll(pattern, rng.integers(1, pattern.size))
            window = np.concatenate(
                (np.resize(pattern, jump), np.resize(shifted, 64 - jump))
            )
            window += rng.normal(0.0, rng.choice([0.0, 0.05, 0.3]), 64)
            rows.append(amdf_profile(window, 48))
        matrix = np.array(rows)
        lags, distances, depths = select_periods_batch(
            matrix, min_depth=min_depth, harmonic_tolerance=tolerance
        )
        expected = oracle.select_rows(
            matrix, min_lag=1, min_depth=min_depth, harmonic_tolerance=tolerance
        )
        got = list(zip(lags.tolist(), distances.tolist(), depths.tolist()))
        assert got == expected

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            select_periods_batch(np.zeros(8))

    def test_empty_lag_axis(self):
        lags, distances, depths = select_periods_batch(np.empty((3, 0)))
        assert lags.tolist() == [0, 0, 0]
        assert distances.tolist() == [0.0, 0.0, 0.0]
        assert depths.tolist() == [0.0, 0.0, 0.0]
