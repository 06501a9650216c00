"""Nopython-compatible kernel bodies shared by the numba and python backends.

Every function here is written in the restricted subset of Python/NumPy
that numba's ``@njit`` understands — scalar indexing, plain loops,
allocation only via ``np.empty`` — so one source text serves two
backends:

* :mod:`repro.kernels.numba_backend` compiles these functions with
  ``numba.njit(cache=True)`` — the production fast path;
* :mod:`repro.kernels` also exposes them *interpreted* as the ``python``
  backend, which exists so the kernel logic stays covered by the
  bit-for-bit equivalence suites even on machines without numba
  (interpreted execution is far too slow for production, but exact).

Floating-point discipline — the heart of the equivalence contract: each
kernel performs only elementwise arithmetic, per element in exactly the
operation order of the vectorised NumPy reference in
:mod:`repro.kernels.numpy_backend`, so results are bit-for-bit
identical.  The one reduction computed here, the refresh's AMDF pair
sums, is sequential in both backends: the NumPy reference adds one
``k``-slice at a time.  Reductions that NumPy associates differently
(the row means of the profile matrix: NumPy sums pairwise, a plain loop
sums sequentially) are deliberately *not* computed here — the caller
passes them in, computed with the one NumPy expression both backends
share (see :mod:`repro.kernels._rowwise`).
"""

from __future__ import annotations

import numpy as np


def magnitude_advance_sums(
    sums: np.ndarray, ext: np.ndarray, window: int, length: int
) -> None:
    """Advance the incremental AMDF sums of a full-window bank by a chunk.

    ``ext`` is the chunk's extended sample matrix — the ring contents
    oldest-first followed by the ``length`` incoming lockstep columns —
    and ``sums`` is the bank's ``(streams, max_lag + 1)`` running-sum
    matrix, updated in place.  Step ``t`` inserts ``ext[s, window + t]``
    and evicts ``ext[s, t]``; per element the add is applied before the
    evict, exactly as each step of the NumPy reference applies them, so
    the float state stays bit-for-bit the scalar engine's.
    """
    streams = sums.shape[0]
    top = sums.shape[1] - 1
    for s in range(streams):
        for t in range(length):
            inserted = ext[s, window + t]
            evicted = ext[s, t]
            for lag in range(1, top + 1):
                grown = sums[s, lag] + abs(inserted - ext[s, window + t - lag])
                sums[s, lag] = grown - abs(ext[s, t + lag] - evicted)


def event_advance_counts(
    ext: np.ndarray,
    mismatches: np.ndarray,
    out: np.ndarray,
    fill: int,
    window: int,
    min_lag: int,
    min_repetitions: int,
    require_full_window: bool,
) -> None:
    """Advance the event mismatch counts by a chunk; per-step fundamentals.

    ``ext`` holds each row's ring contents oldest-first (``fill``
    events) followed by the ``out.shape[1]`` incoming events, and
    ``mismatches`` is the ``(rows, max_lag + 1)`` count matrix, updated
    in place.  Step ``t`` counts the new event against the
    ``min(max_lag, fill_t)`` events before it and, once the window is
    full, retracts the pairs of the evicted event — the scalar engine's
    per-event update.  ``out[s, t]`` receives the smallest lag that then
    repeats exactly (0 when none does): at least ``min_lag``, at most
    ``fill - 1`` and ``fill // min_repetitions``, and none while the
    window fills when ``require_full_window`` is set.  All arithmetic is
    integer, so every backend is exact by construction.
    """
    rows = mismatches.shape[0]
    top = mismatches.shape[1] - 1
    length = out.shape[1]
    for s in range(rows):
        f = fill
        for t in range(length):
            p = fill + t
            sample = ext[s, p]
            for lag in range(1, min(top, f) + 1):
                if ext[s, p - lag] != sample:
                    mismatches[s, lag] += 1
            if f == window and f > 1:
                base = p - window
                evicted = ext[s, base]
                for lag in range(1, min(top, f - 1) + 1):
                    if ext[s, base + lag] != evicted:
                        mismatches[s, lag] -= 1
            if f < window:
                f += 1
            found = 0
            if f >= 2 and (f == window or not require_full_window):
                hi = min(top, f - 1, f // min_repetitions)
                for lag in range(min_lag, hi + 1):
                    if mismatches[s, lag] == 0:
                        found = lag
                        break
            out[s, t] = found


def refresh_sums(windows: np.ndarray, sums: np.ndarray) -> None:
    """Overwrite ``sums[s, m]`` with ``sum_k |x[s, k+m] - x[s, k]|``.

    The exact recompute of the AMDF sums: ``windows`` is
    ``(streams, n)`` oldest-first, ``sums`` is ``(streams, top + 1)``
    with ``top < n``.  Each sum accumulates its terms in ascending
    ``k``, the order of the NumPy reference's per-``k`` slice passes.
    A NaN term (a NaN sample, or ``inf - inf``) is skipped, which is
    what the reference's ``fmax(|d|, 0)`` guard amounts to: adding
    ``+0.0`` to a sum that is ``>= +0.0`` leaves it unchanged.
    """
    streams, n = windows.shape
    top = sums.shape[1] - 1
    for s in range(streams):
        for m in range(top + 1):
            sums[s, m] = 0.0
        for k in range(n - 1):
            width = min(top, n - 1 - k)
            base = windows[s, k]
            for m in range(1, width + 1):
                term = abs(windows[s, k + m] - base)
                if term >= 0.0:
                    sums[s, m] += term


def select_rows(
    P: np.ndarray,
    means: np.ndarray,
    min_lag: int,
    min_depth: float,
    tolerance: float,
    out_lags: np.ndarray,
    out_dist: np.ndarray,
    out_depth: np.ndarray,
) -> None:
    """Row-wise period selection over a ``(streams, lags)`` profile matrix.

    The fused per-row form of the period selection: local-minimum
    search (with the plateau rule), relative-depth computation against
    the precomputed row mean, the ``min_depth`` gate, the harmonic
    filter and the deepest-then-smallest-lag tie break — one pass per
    row, no whole-matrix intermediates.  ``out_lags[s] == 0`` marks a
    row that selected no period.  ``means`` must be the NumPy-computed
    row means (see module docstring); everything else is elementwise
    and ordered to match the vectorised reference bit for bit.
    """
    streams, n = P.shape
    cand_lags = np.empty(n, np.int64)
    cand_depths = np.empty(n, np.float64)
    kept = np.empty(n, np.bool_)
    for s in range(streams):
        mean = means[s]
        count = 0
        for j in range(min_lag, n):
            value = P[s, j]
            if not np.isfinite(value):
                continue
            # Neighbour values, +inf standing in for neighbours outside
            # the eligible (finite, >= min_lag) lag set.
            left_eligible = j - 1 >= min_lag and np.isfinite(P[s, j - 1])
            left = P[s, j - 1] if left_eligible else np.inf
            right = np.inf
            if j + 1 < n and np.isfinite(P[s, j + 1]):
                right = P[s, j + 1]
            if value > left or value > right:
                continue  # not a local minimum
            if left_eligible and P[s, j - 1] == value and left <= right:
                continue  # plateau: keep only its first lag
            if mean > 0.0:
                depth = 1.0 - value / mean
            elif value == 0.0:
                depth = 1.0
            else:
                depth = 0.0
            if depth >= min_depth:
                cand_lags[count] = j
                cand_depths[count] = depth
                count += 1
        best = -1
        best_depth = -np.inf
        for a in range(count):
            # Harmonic filter: only a *kept* smaller lag can explain a
            # multiple away.  Candidates are in ascending lag order, so
            # every earlier candidate has a strictly smaller lag.
            keep = True
            for b in range(a):
                if (
                    kept[b]
                    and cand_lags[a] % cand_lags[b] == 0
                    and cand_depths[a] <= cand_depths[b] + tolerance
                ):
                    keep = False
                    break
            kept[a] = keep
            # Deepest kept candidate wins; the strict > keeps the first
            # (smallest-lag) candidate on an exact depth tie.
            if keep and cand_depths[a] > best_depth:
                best_depth = cand_depths[a]
                best = a
        if best < 0:
            out_lags[s] = 0
            out_dist[s] = 0.0
            out_depth[s] = 0.0
        else:
            lag = cand_lags[best]
            out_lags[s] = lag
            out_dist[s] = P[s, lag]
            out_depth[s] = cand_depths[best]
