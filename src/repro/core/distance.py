"""Distance metrics of the Dynamic Periodicity Detector.

The paper defines two distances between the current data window and the
window shifted by a lag ``m``:

* Equation (1) — the *magnitude* metric, an average-magnitude-difference
  function (AMDF) borrowed from speech processing [Deller87]::

      d(m) = (1/N) * sum_{n} | x[n] - x[n - m] |

  ``d(m)`` is zero when the window repeats exactly with period ``m`` and
  grows with the dissimilarity of the two shifted views otherwise.  The lag
  at which ``d(m)`` attains a (deep) local minimum is the detected period.

* Equation (2) — the *event* metric, used when the sample values are not
  meaningful magnitudes (e.g. a sequence of function addresses)::

      d(m) = sign( sum_{n} | x[n] - x[n - m] | )

  ``d(m)`` is 0 only for an exact periodic repetition and 1 otherwise.

Both metrics are provided in a batch (whole profile) and a single-lag form.
The profiles are the quantities plotted in Figure 4 of the paper.

No whole-profile evaluation loops over lags in Python.  The magnitude
sums run the :func:`repro.kernels.refresh_sums` kernel, one pass per
``k`` over every lag at once; the event counts compare a lag-shifted
matrix built with :func:`numpy.lib.stride_tricks.sliding_window_view`
against the window in cache-sized lag blocks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro import kernels
from repro.util.validation import ValidationError, check_positive_int

__all__ = [
    "amdf_at_lag",
    "amdf_profile",
    "amdf_pair_sums",
    "amdf_pair_sums_batch",
    "event_distance_at_lag",
    "event_distance_profile",
    "event_mismatch_counts",
    "normalized_amdf_profile",
    "matching_lags",
]


def _as_window(window: Sequence[float] | np.ndarray) -> np.ndarray:
    arr = np.asarray(window, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError("data window must be one-dimensional")
    if arr.size == 0:
        raise ValidationError("data window must not be empty")
    return arr


def _as_event_window(window: Sequence[int] | np.ndarray) -> np.ndarray:
    """Like :func:`_as_window` but preserves integer dtypes.

    Event streams carry identifiers (function addresses); converting them
    to float64 would make equality tests unreliable above 2**53, so exact
    comparisons run on the original integer values.
    """
    arr = np.asarray(window)
    if arr.ndim != 1:
        raise ValidationError("data window must be one-dimensional")
    if arr.size == 0:
        raise ValidationError("data window must not be empty")
    return arr


def _lagged_matrix(arr: np.ndarray, max_lag: int, pad_value) -> np.ndarray:
    """Matrix ``L`` with ``L[k, m] = x[k + m]`` (``pad_value`` past the end).

    Built as a zero-copy strided view over a single padded buffer; shape is
    ``(n, max_lag + 1)``.
    """
    padded = np.concatenate([arr, np.full(max_lag, pad_value, dtype=arr.dtype)])
    return sliding_window_view(padded, max_lag + 1)


#: Upper bound on the number of matrix entries materialised per vectorised
#: block of a whole-profile evaluation; keeps the working set cache-sized
#: for large windows without a Python loop over individual lags.
_MAX_BLOCK_ELEMENTS = 1 << 21


def _lag_block_width(n: int, max_lag: int) -> int:
    return max(1, min(max_lag + 1, _MAX_BLOCK_ELEMENTS // max(n, 1)))


def amdf_pair_sums(
    window: Sequence[float] | np.ndarray, max_lag: int | None = None
) -> np.ndarray:
    """Un-normalised AMDF sums ``S[m] = sum_k |x[k+m] - x[k]|`` for all lags.

    Returns an array of length ``max_lag + 1`` (``S[0]`` is 0).  This is the
    quantity the streaming detectors maintain incrementally; the exact
    recompute at refresh boundaries and the vectorised
    :func:`amdf_profile` both derive from it.  It is the one-row case of
    :func:`amdf_pair_sums_batch`.
    """
    arr = _as_window(window)
    return amdf_pair_sums_batch(arr[None, :], max_lag)[0]


def amdf_pair_sums_batch(
    windows: np.ndarray, max_lag: int | None = None
) -> np.ndarray:
    """Row-wise :func:`amdf_pair_sums` over a ``(streams, n)`` matrix.

    Returns a ``(streams, max_lag + 1)`` matrix.  Runs the
    :func:`repro.kernels.refresh_sums` kernel: every sum accumulates its
    pairs in ascending ``k`` and drops NaN pairs (a NaN sample, or
    ``inf - inf``), so row ``s`` is bit-for-bit what a sequential loop
    over ``windows[s]`` gives — and what the structure-of-arrays bank's
    refresh-interval drift guard writes for that stream.
    """
    arr = np.ascontiguousarray(windows, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError("windows must be a 2-D (streams, n) matrix")
    streams, n = arr.shape
    if streams == 0 or n == 0:
        raise ValidationError("windows must not be empty")
    if max_lag is None:
        max_lag = n - 1
    check_positive_int(max_lag, "max_lag")
    max_lag = min(max_lag, n - 1)
    sums = np.empty((streams, max_lag + 1), dtype=np.float64)
    kernels.refresh_sums(arr, sums)
    return sums


def amdf_at_lag(window: Sequence[float] | np.ndarray, lag: int) -> float:
    """Evaluate equation (1) for a single lag.

    Parameters
    ----------
    window:
        The data window ``x`` in chronological order (oldest first).
    lag:
        The delay ``m`` (``1 <= m < len(window)``).

    Returns
    -------
    float
        ``(1 / (N - m)) * sum_{n=m}^{N-1} |x[n] - x[n-m]|``.  The sum is
        normalised by the number of compared pairs so that profiles at
        different lags are comparable, matching the ``1/N`` normalisation
        of the paper for a fixed comparison span.
    """
    arr = _as_window(window)
    check_positive_int(lag, "lag")
    if lag >= arr.size:
        raise ValidationError(
            f"lag {lag} must be smaller than the window size {arr.size}"
        )
    diffs = np.abs(arr[lag:] - arr[:-lag])
    return float(diffs.mean())


def amdf_profile(
    window: Sequence[float] | np.ndarray,
    max_lag: int | None = None,
    *,
    min_lag: int = 1,
) -> np.ndarray:
    """Evaluate equation (1) for every lag in ``[min_lag, max_lag]``.

    Returns an array ``profile`` of length ``max_lag + 1`` where
    ``profile[m]`` is ``d(m)``; entries below ``min_lag`` (including lag 0)
    are set to ``nan`` so that indexing by lag stays natural.
    """
    arr = _as_window(window)
    n = arr.size
    if max_lag is None:
        max_lag = n - 1
    check_positive_int(max_lag, "max_lag")
    check_positive_int(min_lag, "min_lag")
    if max_lag >= n:
        max_lag = n - 1
    if min_lag > max_lag:
        raise ValidationError(
            f"min_lag {min_lag} must not exceed max_lag {max_lag}"
        )
    sums = amdf_pair_sums(arr, max_lag)
    lags = np.arange(min_lag, max_lag + 1)
    profile = np.full(max_lag + 1, np.nan, dtype=np.float64)
    profile[lags] = sums[lags] / (n - lags)
    return profile


def normalized_amdf_profile(
    window: Sequence[float] | np.ndarray,
    max_lag: int | None = None,
    *,
    min_lag: int = 1,
) -> np.ndarray:
    """AMDF profile divided by its finite mean.

    Normalising makes minimum-depth thresholds independent of the signal's
    amplitude, which is required when the same detector configuration is
    applied to streams as different as "number of active CPUs" and raw
    hardware-counter values.
    """
    profile = amdf_profile(window, max_lag, min_lag=min_lag)
    finite = profile[np.isfinite(profile)]
    if finite.size == 0:
        return profile
    mean = float(finite.mean())
    if mean == 0.0:
        # Perfectly flat (or exactly periodic everywhere) signal: the
        # profile is already all zeros, return it unchanged.
        return profile
    return profile / mean


def event_mismatch_counts(
    window: Sequence[int] | np.ndarray, max_lag: int | None = None
) -> np.ndarray:
    """Number of mismatching pairs ``C[m] = #{k : x[k+m] != x[k]}`` per lag.

    Returns an array of length ``max_lag + 1`` (``C[0]`` is 0).  This is
    the quantity :class:`~repro.core.events.EventPeriodicityDetector`
    maintains incrementally; equation (2) is ``sign(C[m])``.
    """
    arr = _as_event_window(window)
    n = arr.size
    if max_lag is None:
        max_lag = n - 1
    check_positive_int(max_lag, "max_lag")
    max_lag = min(max_lag, n - 1)
    lagged = _lagged_matrix(arr, max_lag, 0)
    col = arr[:, None]
    raw = np.empty(max_lag + 1, dtype=np.int64)
    width = _lag_block_width(n, max_lag)
    for start in range(0, max_lag + 1, width):
        stop = min(start + width, max_lag + 1)
        raw[start:stop] = np.count_nonzero(lagged[:, start:stop] != col, axis=0)
    # Column m compared x[k] against the zero padding for k >= n - m; those
    # spurious mismatches are exactly the non-zero entries in the last m
    # window elements, which a reversed cumulative count removes.
    suffix_nonzero = np.concatenate(
        ([0], np.cumsum(arr[::-1] != 0))
    )[: max_lag + 1]
    return raw - suffix_nonzero


def event_distance_at_lag(window: Sequence[float] | np.ndarray, lag: int) -> int:
    """Evaluate equation (2) for a single lag.

    Returns 0 when the window repeats *exactly* with period ``lag`` and 1
    otherwise.
    """
    arr = _as_event_window(window)
    check_positive_int(lag, "lag")
    if lag >= arr.size:
        raise ValidationError(
            f"lag {lag} must be smaller than the window size {arr.size}"
        )
    return int(np.any(arr[lag:] != arr[:-lag]))


def event_distance_profile(
    window: Sequence[float] | np.ndarray,
    max_lag: int | None = None,
    *,
    min_lag: int = 1,
) -> np.ndarray:
    """Evaluate equation (2) for every lag in ``[min_lag, max_lag]``.

    Entries below ``min_lag`` are set to ``-1`` (meaning "not evaluated").
    """
    arr = _as_event_window(window)
    n = arr.size
    if max_lag is None:
        max_lag = n - 1
    check_positive_int(max_lag, "max_lag")
    check_positive_int(min_lag, "min_lag")
    if max_lag >= n:
        max_lag = n - 1
    if min_lag > max_lag:
        raise ValidationError(
            f"min_lag {min_lag} must not exceed max_lag {max_lag}"
        )
    counts = event_mismatch_counts(arr, max_lag)
    lags = np.arange(min_lag, max_lag + 1)
    profile = np.full(max_lag + 1, -1, dtype=np.int64)
    profile[lags] = (counts[lags] > 0).astype(np.int64)
    return profile


def matching_lags(
    window: Sequence[float] | np.ndarray,
    max_lag: int | None = None,
    *,
    min_lag: int = 1,
    min_repetitions: int = 2,
) -> list[int]:
    """Return every lag ``m`` for which equation (2) evaluates to zero.

    Parameters
    ----------
    min_repetitions:
        Require the window to contain at least ``min_repetitions`` full
        periods of length ``m`` (i.e. ``len(window) >= min_repetitions*m``)
        before ``m`` is reported.  Two repetitions is the weakest evidence
        of periodicity; the detector uses this to avoid declaring a period
        from a single partial match at large lags.
    """
    arr = _as_event_window(window)
    n = arr.size
    if max_lag is None:
        max_lag = n - 1
    max_lag = min(max_lag, n - 1)
    check_positive_int(min_repetitions, "min_repetitions")
    if n < 2 or max_lag < min_lag:
        return []
    counts = event_mismatch_counts(arr, max_lag)
    lags = np.arange(min_lag, max_lag + 1)
    ok = (counts[lags] == 0) & (n >= min_repetitions * lags)
    return [int(lag) for lag in lags[ok]]
