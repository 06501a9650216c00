"""Bit-for-bit equivalence of every kernel backend with the NumPy reference.

The registry's contract is that switching backends can never change
detector behaviour — float state included.  These tests drive each
non-reference backend and the NumPy reference with the same inputs and
require ``np.array_equal`` (no tolerance), including adversarial floats:
denormals, exact ties in the minima selection, huge magnitudes and
non-finite entries.  The magnitude advance of every backend, the NumPy
one included, is also held to the literal per-step replay of
``tests/_amdf_oracle.py``, bit for bit up to NaN signs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _amdf_oracle as amdf_oracle
import _selection_oracle as oracle
from repro import kernels
from repro.core.detector import (
    DetectorConfig,
    DynamicPeriodicityDetector,
    exact_sample_bound,
)
from repro.kernels import numpy_backend
from repro.service.soa import MagnitudeSoABank
from test_event_advance_counts import arg_types

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
#: Samples a magnitude stream may carry: non-finite and signed zeros too.
magnitude_sample = st.one_of(
    adversarial_float, st.sampled_from([np.nan, np.inf, -np.inf, -0.0])
)


def magnitude_ext(data, rows, width, window):
    """``rows`` x ``width`` samples: adversarial floats, and exact
    integers up to (and just past) the detectors' exact bound."""
    bound = int(exact_sample_bound(window))
    sample = st.one_of(
        magnitude_sample,
        st.integers(min_value=-bound, max_value=bound).map(float),
        st.sampled_from([bound, -bound, bound + 1]).map(float),
    )
    return np.array(
        data.draw(
            st.lists(
                st.lists(sample, min_size=width, max_size=width),
                min_size=rows,
                max_size=rows,
            )
        ),
        dtype=np.float64,
    ).reshape(rows, width)


def assert_matches_amdf_oracle(sums, ext, fill, window):
    """Advance ``sums`` in place and hold every row to the oracle."""
    start = sums.copy()
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is NaN
        kernels.magnitude_advance_sums(sums, ext, fill, window)
    for row, got in enumerate(sums):
        expected = amdf_oracle.advance(
            start[row], ext[row, :fill], ext[row, fill:], window
        )
        assert amdf_oracle.same_bits(got, expected), row


class TestMagnitudeKernel:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_matches_numpy_reference(self, backend, data):
        window = data.draw(st.integers(min_value=2, max_value=24), label="window")
        top = data.draw(st.integers(min_value=1, max_value=window - 1), label="top")
        fill = data.draw(st.integers(min_value=0, max_value=window), label="fill")
        length = data.draw(st.integers(min_value=1, max_value=window), label="length")
        streams = data.draw(st.integers(min_value=1, max_value=4), label="streams")
        ext = magnitude_ext(data, streams, fill + length, window)
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
        got = sums.copy()
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is NaN
            numpy_backend.magnitude_advance_sums(expected, ext, fill, window)
            backend.magnitude_advance_sums(got, ext, fill, window)
        np.testing.assert_array_equal(got, expected)

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_matches_the_literal_oracle(self, kernel_backend, data):
        # Filling and full rings, chunks that cross the full window,
        # max_lag below window - 1, and arbitrary starting sums.
        window = data.draw(st.integers(min_value=2, max_value=20), label="window")
        top = data.draw(st.integers(min_value=1, max_value=window - 1), label="top")
        fill = data.draw(st.integers(min_value=0, max_value=window), label="fill")
        length = data.draw(st.integers(min_value=1, max_value=window), label="length")
        rows = data.draw(st.integers(min_value=1, max_value=3), label="rows")
        ext = magnitude_ext(data, rows, fill + length, window)
        sums = np.array(
            data.draw(
                st.lists(
                    st.lists(adversarial_float, min_size=top + 1, max_size=top + 1),
                    min_size=rows,
                    max_size=rows,
                )
            )
        )
        assert_matches_amdf_oracle(sums, ext, fill, window)

    @pytest.mark.parametrize("fill", [0, 1, 5, 31, 32])
    @pytest.mark.parametrize("top", [31, 6])
    def test_chunk_of_one_and_of_the_cap(self, kernel_backend, fill, top):
        rng = np.random.default_rng(fill * 100 + top)
        window, rows = 32, 3
        cap = min(window, kernels.chunk_columns(rows, top))
        for length in (1, cap):
            ext = rng.normal(size=(rows, fill + length))
            ext[0] = np.round(ext[0] * 1000)  # an exact-integer row
            assert_matches_amdf_oracle(np.zeros((rows, top + 1)), ext, fill, window)

    def test_non_finite_and_signed_zero_samples(self, kernel_backend):
        window = 6
        row = [0.0, -0.0, np.nan, 1.0, np.inf, -np.inf, TINY / 8, -0.0, 2.0, np.inf]
        ext = np.array([row, row[::-1]])
        for fill in (0, 3, window):
            assert_matches_amdf_oracle(
                np.zeros((2, window)), ext[:, : fill + 4], fill, window
            )


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


def test_magnitude_engines_call_with_the_warmup_signature(kernel_backend, monkeypatch):
    # The magnitude twin of test_event_advance_counts' signature test:
    # numba would compile a second specialisation inside the first
    # ingest for any other array layout or scalar kind.
    impl = kernels._resolve()
    seen = []
    kernel = impl.magnitude_advance_sums

    def recording(*args):
        seen.append(arg_types(args))
        kernel(*args)

    monkeypatch.setattr(impl, "magnitude_advance_sums", recording)
    monkeypatch.setattr(kernels, "_warmed", set())
    kernels.warmup()
    (compiled,) = seen
    config = DetectorConfig(window_size=16, evaluation_interval=4)
    stream = np.arange(40.0) % 5
    DynamicPeriodicityDetector(config).update_batch(stream[:20])
    bank = MagnitudeSoABank(["a", "b", "c"], config)
    matrix = np.stack([stream, stream + 1, stream * 2])
    bank.process(matrix[:, :20])  # fresh: fills the window mid-run
    assert bank._chunk_cap > 3
    bank.process(matrix[:, 20:23])  # full window, a chunk below the cap
    assert len(seen) >= 25
    assert set(seen) == {compiled}
