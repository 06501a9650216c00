"""Pure-NumPy reference implementations of the columnar hot-path kernels.

This backend is the portable fallback of the registry in
:mod:`repro.kernels` — always importable, no compiled dependencies —
and the *reference* the compiled backends are held to: the equivalence
contract is bit-for-bit against these functions.  They in turn are held
to test-side oracles written as plain loops: the scalar engines for the
AMDF and mismatch recurrences (``tests/service/test_soa.py``) and the
literal selection reference ``tests/_selection_oracle.py`` for the
period selection (``tests/core/test_minima_batch.py``,
``tests/core/test_detector_oracle.py``).

The period selection here is also the single-stream one:
:func:`repro.core.minima.select_period` runs it on a one-row matrix,
and :func:`repro.core.minima.find_local_minima` and
:func:`~repro.core.minima.filter_harmonics` reuse its minima pass and
harmonic mask.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "best_candidate_index",
    "event_step_mismatches",
    "harmonic_kept_mask",
    "magnitude_advance_sums",
    "select_periods_batch_impl",
]


# ----------------------------------------------------------------------
# (a) chunked magnitude AMDF insert/evict recurrence
# ----------------------------------------------------------------------
def magnitude_advance_sums(
    sums: np.ndarray, ext: np.ndarray, window: int, length: int
) -> None:
    """Advance the incremental AMDF sums of a full-window bank by a chunk.

    The per-step insert/evict terms of the recurrence are materialised
    for the whole chunk in two strided 3-D passes over ``ext`` (window
    contents oldest-first ++ incoming columns), then applied step by
    step as plain 2-D adds — same values, same order, bit-for-bit the
    arithmetic of the scalar engine's per-sample update.
    """
    top = sums.shape[1] - 1
    # sw[s, j, k] = ext[s, j + k]; row j spans ext[j .. j + top].
    sw = sliding_window_view(ext, top + 1, axis=1)
    # Insert terms: step t adds |x_new - x_prev(m)| at lag m, where
    # x_new = ext[:, window + t]; column k of the block is lag top-k.
    base = window - top
    add_rev = np.abs(
        sw[:, base : base + length, top : top + 1] - sw[:, base : base + length, :top]
    )
    # Evict terms: step t removes |x_old(m) - x_evicted| at lag m,
    # where x_evicted = ext[:, t]; column k of the block is lag k+1.
    sub = np.abs(sw[:, :length, 1 : top + 1] - sw[:, :length, :1])
    body = sums[:, 1 : top + 1]
    for step_t in range(length):
        body += add_rev[:, step_t, ::-1]
        body -= sub[:, step_t, :]


# ----------------------------------------------------------------------
# (c) event-bank incremental mismatch update
# ----------------------------------------------------------------------
def event_step_mismatches(
    buffers: np.ndarray,
    mismatches: np.ndarray,
    column: np.ndarray,
    head: int,
    fill: int,
    window: int,
) -> None:
    """One lockstep step of the event bank's mismatch counts (in place).

    Identical slice arithmetic to ``EventPeriodicityDetector.update``,
    lifted to 2-D: every stream shares ``head``/``fill`` because the
    bank advances in lockstep.  The caller writes ``column`` into the
    ring afterwards.
    """
    top = mismatches.shape[1] - 1
    sample = column[:, None]
    if fill:
        m = min(top, fill)
        if m <= head:
            mismatches[:, 1 : m + 1] += buffers[:, head - m : head][:, ::-1] != sample
        else:
            if head:
                mismatches[:, 1 : head + 1] += buffers[:, head - 1 :: -1] != sample
            tail = m - head
            mismatches[:, head + 1 : m + 1] += (
                buffers[:, -1 : -tail - 1 : -1] != sample
            )
    if fill == window and fill > 1:
        evicted = buffers[:, head].copy()[:, None]
        m = min(top, fill - 1)
        first = min(m, fill - 1 - head)
        if first:
            mismatches[:, 1 : first + 1] -= (
                buffers[:, head + 1 : head + 1 + first] != evicted
            )
        if m > first:
            mismatches[:, first + 1 : m + 1] -= buffers[:, : m - first] != evicted


# ----------------------------------------------------------------------
# (b) compact-candidate period selection
# ----------------------------------------------------------------------
def harmonic_kept_mask(
    lags: np.ndarray, depths: np.ndarray, tolerance: float
) -> np.ndarray:
    """Harmonic-filter survivor mask over lag-sorted candidate arrays.

    The array-level core of :func:`repro.core.minima.filter_harmonics`,
    shared with the period selection so both keep identical candidates.
    """
    # suppresses[i, j]: candidate i, *if kept*, drops candidate j.
    ratio_exact = (lags[None, :] % lags[:, None]) == 0
    suppresses = (
        ratio_exact
        & (lags[:, None] < lags[None, :])
        & (depths[None, :] <= depths[:, None] + tolerance)
    )
    kept_mask = np.ones(lags.size, dtype=bool)
    if not suppresses.any():
        return kept_mask
    for j in range(lags.size):
        kept_mask[j] = not np.any(kept_mask[:j] & suppresses[:j, j])
    return kept_mask


def best_candidate_index(
    lags: np.ndarray, depths: np.ndarray, tolerance: float
) -> int:
    """Index of the winning candidate among lag-sorted candidate arrays.

    Applies the harmonic filter, then picks the deepest survivor with
    ties broken in favour of the smaller lag — exactly the
    ``min(candidates, key=(-depth, lag))`` rule of the selection.
    """
    kept = np.flatnonzero(harmonic_kept_mask(lags, depths, tolerance))
    order = np.lexsort((lags[kept], -depths[kept]))
    return int(kept[order[0]])




def local_minima(
    P: np.ndarray, min_lag: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Compact row-wise local-minimum search over a profile matrix.

    Returns ``(rows, lags, values, depths)``, one entry per local
    minimum in row-major order.  Non-finite entries and lags below
    ``min_lag`` are ignored; a minimum is not larger than either
    neighbour (a missing neighbour counts as ``+inf``, so endpoints
    qualify) and a plateau reports its first lag only.  The depth is
    ``1 - d(m) / mean`` against the row mean of the finite entries,
    computed with the one order-sensitive expression every backend
    shares (see :mod:`repro.kernels._rowwise`).
    """
    streams, n = P.shape
    lo = min(max(min_lag, 0), n)
    finite = np.isfinite(P)
    means = np.where(finite, P, 0.0).sum(axis=1) / np.maximum(finite.sum(axis=1), 1)
    # The rows' eligible values laid end to end in one flat buffer, each
    # row followed by a +inf and the first preceded by one.  +inf also
    # stands in for every ineligible lag: such a lag is never a minimum,
    # and as a neighbour it never blocks one.
    width = n - lo + 1
    flat = np.full(streams * width + 2, np.inf)
    np.copyto(
        flat[1:-1].reshape(streams, width)[:, :-1], P[:, lo:], where=finite[:, lo:]
    )
    mid = flat[1:-1]
    # Strictly below the left neighbour: a lag equal to it continues a
    # plateau whose first lag is the one reported.
    found = np.flatnonzero((mid < flat[:-2]) & (mid <= flat[2:]))
    rows, cols = np.divmod(found, width)
    values = mid[found]
    mean = means[rows]
    positive = mean > 0
    if positive.all():
        depths = 1.0 - values / mean
    else:
        depths = np.where(
            positive,
            1.0 - values / np.where(positive, mean, 1.0),
            np.where(values == 0, 1.0, 0.0),
        )
    return rows, cols + lo, values, depths


def select_periods_batch_impl(
    P: np.ndarray, min_lag: int, min_depth: float, harmonic_tolerance: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact-candidate period selection (see ``minima.select_periods_batch``).

    One whole-matrix pass finds the local minima; everything after runs
    on the compact ``(row, lag)`` arrays of the minima that pass the
    ``min_depth`` gate — a few dozen of a thousand lags on a periodic
    profile.  Two sufficient-condition fast paths settle ~all rows of a
    locked periodic stream without per-row Python; only rows with
    genuinely competing minima pay the harmonic resolution of
    :func:`best_candidate_index`.
    """
    streams = P.shape[0]
    out_lags = np.zeros(streams, dtype=np.int64)
    out_dist = np.zeros(streams, dtype=np.float64)
    out_depth = np.zeros(streams, dtype=np.float64)
    rows, lags, values, depths = local_minima(P, min_lag)
    keep = depths >= min_depth
    if not keep.all():
        rows, lags, values, depths = rows[keep], lags[keep], values[keep], depths[keep]
    if rows.size == 0:
        return out_lags, out_dist, out_depth
    tol = harmonic_tolerance
    # The fast paths, per row (a segment of the compact arrays):
    #
    # (A) Let m0 be the row's smallest qualifying lag.  Nothing can
    #     suppress m0 (suppression needs a smaller kept lag), so m0
    #     always survives the harmonic filter.  When every qualifying
    #     multiple of m0 lies within the harmonic tolerance of m0's
    #     depth (m0 suppresses it) and every qualifying non-multiple is
    #     no deeper than m0 (it cannot out-rank m0, and ties break
    #     toward the smaller lag — m0), the winner is m0.
    # (B) Let j* be the row's deepest qualifying lag (smallest lag on a
    #     depth tie — the lexsort order).  When no qualifying strict
    #     divisor of j* is deep enough to suppress it (kept lags are a
    #     subset of qualifying ones, so this is conservative), j*
    #     survives the filter, and as the pre-filter deepest it wins.
    #
    # When A and B both hold they provably agree, so precedence is moot.
    if rows[0] == rows[-1]:
        # One row: the same tests as whole-array reductions.
        d0 = depths[0]
        if np.where(lags % lags[0] == 0, depths <= d0 + tol, depths <= d0).all():
            best = 0
        else:
            best = int(depths.argmax())
            jstar, dmax = lags[best], depths[best]
            if ((lags < jstar) & (jstar % lags == 0) & (depths + tol >= dmax)).any():
                best = best_candidate_index(lags, depths, tol)
        out_lags[rows[0]] = lags[best]
        out_dist[rows[0]] = values[best]
        out_depth[rows[0]] = depths[best]
        return out_lags, out_dist, out_depth
    new_row = np.empty(rows.size, dtype=bool)
    new_row[0] = True
    np.not_equal(rows[1:], rows[:-1], out=new_row[1:])
    starts = np.flatnonzero(new_row)
    ends = np.append(starts[1:], rows.size)
    seg = np.cumsum(new_row) - 1
    d0 = depths[starts][seg]
    explained = np.where(lags % lags[starts][seg] == 0, depths <= d0 + tol, depths <= d0)
    fast_a = np.logical_and.reduceat(explained, starts)
    dmax = np.maximum.reduceat(depths, starts)[seg]
    tops = np.flatnonzero(depths == dmax)
    top_seg = seg[tops]
    first_top = np.ones(tops.size, dtype=bool)
    np.not_equal(top_seg[1:], top_seg[:-1], out=first_top[1:])
    jbest = tops[first_top]
    jstar = lags[jbest][seg]
    threat = (lags < jstar) & (jstar % lags == 0) & (depths + tol >= dmax)
    fast_b = ~np.logical_or.reduceat(threat, starts)
    best = np.where(fast_a, starts, jbest)
    for s in np.flatnonzero(~fast_a & ~fast_b):
        lo, hi = starts[s], ends[s]
        best[s] = lo + best_candidate_index(lags[lo:hi], depths[lo:hi], tol)
    out_rows = rows[starts]
    out_lags[out_rows] = lags[best]
    out_dist[out_rows] = values[best]
    out_depth[out_rows] = depths[best]
    return out_lags, out_dist, out_depth
