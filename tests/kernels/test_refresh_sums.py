"""The ``refresh_sums`` kernel against the literal pair-sum oracle.

Every backend (through the ``kernel_backend`` fixture, so the CI
``kernels`` job covers numba) must equal ``tests/_refresh_oracle.py``
bit for bit, on windows with NaN, ``±inf``, ``-0.0``, denormals and
large integer-rounded magnitudes, in single-row and batch shapes.  The
library's ``amdf_pair_sums`` and ``amdf_pair_sums_batch`` run this
kernel, so they are held to the same oracle rather than to each other.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _refresh_oracle as oracle
from repro import kernels
from repro.core.distance import amdf_pair_sums, amdf_pair_sums_batch

TINY = np.finfo(np.float64).tiny  # smallest normal; /8 gives denormals

sample = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, TINY / 8, -TINY / 8]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(min_value=-1e15, max_value=1e15, allow_nan=False).map(round).map(float),
    st.integers(min_value=-(2**53), max_value=2**53).map(float),
    st.integers(min_value=-50, max_value=50).map(float),
)

SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def assert_bits_equal(got, expected):
    got = np.asarray(got, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64)), (
        got,
        expected,
    )


@st.composite
def windows_and_lag(draw, max_rows=4, max_n=40):
    rows = draw(st.integers(min_value=1, max_value=max_rows), label="rows")
    n = draw(st.integers(min_value=2, max_value=max_n), label="n")
    top = draw(st.integers(min_value=1, max_value=n - 1), label="top")
    row = st.lists(sample, min_size=n, max_size=n)
    windows = np.array(
        draw(st.lists(row, min_size=rows, max_size=rows)), dtype=np.float64
    )
    return windows, top


class TestKernelAgainstOracle:
    @SETTINGS
    @given(case=windows_and_lag())
    def test_overwrites_sums_with_the_oracle(self, kernel_backend, case):
        windows, top = case
        # Garbage in the output must not leak into the result.
        sums = np.full((windows.shape[0], top + 1), -7.5)
        kernels.refresh_sums(windows, sums)
        assert_bits_equal(sums, oracle.pair_sums_batch(windows, top))

    @SETTINGS
    @given(case=windows_and_lag(max_rows=1))
    def test_single_row_pair_sums(self, kernel_backend, case):
        windows, top = case
        got = amdf_pair_sums(windows[0], top)
        assert_bits_equal(got, oracle.pair_sums(windows[0], top))

    @SETTINGS
    @given(case=windows_and_lag())
    def test_batch_pair_sums(self, kernel_backend, case):
        windows, top = case
        got = amdf_pair_sums_batch(windows, top)
        assert_bits_equal(got, oracle.pair_sums_batch(windows, top))

    @pytest.mark.parametrize("n", [2, 3, 97, 257])
    def test_long_float_windows(self, kernel_backend, n):
        rng = np.random.default_rng(n)
        windows = rng.normal(size=(2, n)) * np.array([[1e-5], [1e7]])
        windows[1, ::3] = np.round(windows[1, ::3])
        got = amdf_pair_sums_batch(windows, n - 1)
        assert_bits_equal(got, oracle.pair_sums_batch(windows, n - 1))

    def test_nan_and_infinite_pairs_are_dropped(self, kernel_backend):
        window = np.array([1.0, np.nan, 3.0, np.inf, np.inf, -np.inf, 2.0])
        got = amdf_pair_sums(window, 6)
        # Lag 1: |nan-1|, |3-nan| dropped; |inf-3| = inf; inf-inf dropped ...
        assert got[0] == 0.0
        assert np.isinf(got[1])
        assert_bits_equal(got, oracle.pair_sums(window, 6))

    def test_registered_on_every_backend(self):
        assert "refresh_sums" in kernels.KERNEL_NAMES
        for name in ("numpy", "python"):
            assert callable(getattr(kernels._load(name), "refresh_sums"))
