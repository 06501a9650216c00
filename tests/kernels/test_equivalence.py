"""Bit-for-bit equivalence of every kernel backend with the NumPy reference.

The registry's contract is that switching backends can never change
detector behaviour — float state included.  These tests drive each
non-reference backend and the NumPy reference with the same inputs and
require ``np.array_equal`` (no tolerance), including adversarial floats:
denormals, exact ties in the minima selection, huge magnitudes and
non-finite entries.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _selection_oracle as oracle
from repro import kernels
from repro.kernels import numpy_backend

TINY = np.finfo(np.float64).tiny  # smallest normal; /8 gives denormals


def _other_backends():
    params = [pytest.param("python")]
    params.append(
        pytest.param(
            "numba",
            marks=pytest.mark.skipif(
                not kernels.numba_available(), reason="numba not installed"
            ),
        )
    )
    return params


@pytest.fixture(params=_other_backends())
def backend(request):
    module = kernels._load(request.param)
    if request.param == "numba":
        previous = kernels.set_backend("numba")
        kernels.warmup()
        kernels.set_backend(previous)
    return module


adversarial_float = st.one_of(
    st.just(0.0),
    st.just(TINY / 8),  # denormal
    st.just(TINY),
    st.just(1e300),
    st.sampled_from([0.25, 0.5, 1.0, 2.0]),  # exact-tie building blocks
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


class TestMagnitudeKernel:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_matches_numpy_reference(self, backend, data):
        window = data.draw(st.integers(min_value=2, max_value=24), label="window")
        top = data.draw(st.integers(min_value=1, max_value=window), label="top")
        length = data.draw(st.integers(min_value=1, max_value=window), label="length")
        streams = data.draw(st.integers(min_value=1, max_value=4), label="streams")
        ext = np.array(
            data.draw(
                st.lists(
                    st.lists(
                        adversarial_float,
                        min_size=window + length,
                        max_size=window + length,
                    ),
                    min_size=streams,
                    max_size=streams,
                )
            )
        )
        sums = np.array(
            data.draw(
                st.lists(
                    st.lists(adversarial_float, min_size=top + 1, max_size=top + 1),
                    min_size=streams,
                    max_size=streams,
                )
            )
        )
        expected = sums.copy()
        numpy_backend.magnitude_advance_sums(expected, ext, window, length)
        got = sums.copy()
        backend.magnitude_advance_sums(got, ext, window, length)
        np.testing.assert_array_equal(got, expected)


class TestEventKernel:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_matches_numpy_reference(self, backend, data):
        window = data.draw(st.integers(min_value=2, max_value=10), label="window")
        top = data.draw(st.integers(min_value=1, max_value=window - 1), label="top")
        fill = data.draw(st.integers(min_value=0, max_value=window), label="fill")
        length = data.draw(st.integers(min_value=1, max_value=3 * window))
        rows = data.draw(st.sampled_from([1, 2, 3, 40]), label="rows")
        min_lag = data.draw(st.integers(min_value=1, max_value=window - 1))
        reps = data.draw(st.integers(min_value=1, max_value=4), label="reps")
        full = data.draw(st.booleans(), label="full")
        event = st.integers(min_value=0, max_value=3)
        ext = np.array(
            data.draw(
                st.lists(
                    st.lists(event, min_size=fill + length, max_size=fill + length),
                    min_size=rows,
                    max_size=rows,
                )
            ),
            dtype=np.int64,
        )
        # Any starting counts, not only ones consistent with the ring:
        # both bodies must agree on the arithmetic itself.
        mismatches = np.array(
            data.draw(
                st.lists(
                    st.lists(
                        st.integers(min_value=-2, max_value=3),
                        min_size=top + 1,
                        max_size=top + 1,
                    ),
                    min_size=rows,
                    max_size=rows,
                )
            ),
            dtype=np.int64,
        )
        args = (fill, window, min_lag, reps, full)
        expected = mismatches.copy()
        expected_out = np.full((rows, length), -1, dtype=np.int64)
        numpy_backend.event_advance_counts(ext, expected, expected_out, *args)
        got = mismatches.copy()
        got_out = np.full((rows, length), -1, dtype=np.int64)
        backend.event_advance_counts(ext, got, got_out, *args)
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(got_out, expected_out)


class TestSelectionKernel:
    @settings(
        max_examples=250,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_matches_numpy_reference_and_scalar_oracle(self, backend, data):
        streams = data.draw(st.integers(min_value=1, max_value=4), label="streams")
        lags = data.draw(st.integers(min_value=1, max_value=30), label="lags")
        # NaN/inf padding plus exact repeats: plateaus, ties between
        # minima, and empty (all-NaN) rows.
        value = st.one_of(
            st.just(np.nan),
            st.just(np.inf),
            adversarial_float.map(abs),
        )
        P = np.array(
            data.draw(
                st.lists(
                    st.lists(value, min_size=lags, max_size=lags),
                    min_size=streams,
                    max_size=streams,
                )
            )
        )
        min_lag = data.draw(st.integers(min_value=1, max_value=6), label="min_lag")
        min_depth = data.draw(
            st.floats(min_value=0.0, max_value=1.0), label="min_depth"
        )
        tolerance = data.draw(
            st.floats(min_value=0.0, max_value=0.5), label="tolerance"
        )
        expected = numpy_backend.select_periods_batch_impl(
            P, min_lag, min_depth, tolerance
        )
        got = backend.select_periods_batch_impl(P, min_lag, min_depth, tolerance)
        for g, e in zip(got, expected):
            np.testing.assert_array_equal(g, e)
        # And both must equal the literal per-row oracle, bit for bit.
        for s, (lag, distance, depth) in enumerate(
            oracle.select_rows(
                P, min_lag=min_lag, min_depth=min_depth, harmonic_tolerance=tolerance
            )
        ):
            if lag == 0:
                assert got[0][s] == 0
            else:
                assert got[0][s] == lag
                assert got[1][s] == distance
                assert got[2][s] == depth

    def test_exact_tie_breaks_toward_the_smaller_lag(self, backend):
        # Two equally deep non-harmonic minima (lags 4 and 7): the
        # smaller lag must win in every backend.
        profile = np.full(12, 2.0)
        profile[4] = profile[7] = 0.5
        profile[0] = np.nan
        P = np.stack([profile, profile])
        lags, _, _ = backend.select_periods_batch_impl(P, 2, 0.1, 0.15)
        assert lags.tolist() == [4, 4]

    def test_denormal_profiles_do_not_flip_the_depth_gate(self, backend):
        # Depths computed from denormal means must agree exactly with
        # the reference (the gate comparison is >=, so one ulp matters).
        P = np.array([[np.nan, TINY / 8, TINY / 2, TINY / 8, TINY, TINY / 4]])
        expected = numpy_backend.select_periods_batch_impl(P, 1, 0.25, 0.15)
        got = backend.select_periods_batch_impl(P, 1, 0.25, 0.15)
        for g, e in zip(got, expected):
            np.testing.assert_array_equal(g, e)
