"""A literal reference for the exact AMDF pair sums, shared by the tests.

Every ``refresh_sums`` kernel backend, ``amdf_pair_sums`` and
``amdf_pair_sums_batch`` (which run that kernel) are held to this
oracle.  It reuses none of the library's code: a Python double loop
over ``(m, k)`` in Python floats, adding the pairs of each lag in
ascending ``k`` and skipping NaN pairs (a NaN sample, or ``inf - inf``),
which is the definition ``S[m] = sum_k |x[k+m] - x[k]|`` with the
streaming detectors' NaN rule.
"""

from __future__ import annotations

import math

import numpy as np


def pair_sums(window, max_lag: int) -> list[float]:
    """``S[m]`` for ``m = 0 .. max_lag`` by a loop over every pair."""
    values = [float(v) for v in np.asarray(window, dtype=float)]
    n = len(values)
    sums = []
    for m in range(max_lag + 1):
        total = 0.0
        for k in range(n - m):
            term = abs(values[k + m] - values[k])
            if not math.isnan(term):
                total += term
        sums.append(total)
    return sums


def pair_sums_batch(windows, max_lag: int) -> np.ndarray:
    """Row-wise :func:`pair_sums` of a ``(streams, n)`` matrix."""
    return np.array(
        [pair_sums(row, max_lag) for row in np.asarray(windows, dtype=float)],
        dtype=float,
    ).reshape(len(windows), max_lag + 1)
