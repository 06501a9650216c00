"""The NumPy magnitude advance keeps a chunk-independent working set.

``magnitude_advance_sums`` runs on every lockstep chunk of a magnitude
bank.  Its NumPy body steps through the chunk with one ``(rows, lags)``
scratch, so the peak of what it allocates must stay a small multiple of
one such matrix at any chunk length — not grow with ``rows x chunk x
lags`` the way a materialised per-chunk block would.
"""

import tracemalloc

import numpy as np
import pytest

from repro.kernels import numpy_backend

ROWS = 1000
LAGS = 127
WINDOW = 128


def _peak_bytes(length: int) -> int:
    rng = np.random.default_rng(length)
    ext = rng.normal(size=(ROWS, WINDOW + length))
    sums = np.zeros((ROWS, LAGS + 1))
    tracemalloc.start()
    try:
        numpy_backend.magnitude_advance_sums(sums, ext, WINDOW, WINDOW)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("length", [1, 8, 16])
def test_peak_allocation_is_bounded_by_one_lag_matrix(length):
    one_matrix = ROWS * LAGS * 8
    assert _peak_bytes(length) < 2 * one_matrix
