"""Pure-NumPy reference implementations of the columnar hot-path kernels.

This backend is the portable fallback of the registry in
:mod:`repro.kernels` — always importable, no compiled dependencies —
and the *reference* the compiled backends are held to: the equivalence
contract is bit-for-bit against these functions.  They in turn are held
to test-side oracles written as plain loops: the scalar engine for the
AMDF recurrence (``tests/service/test_soa.py``), the literal per-step
window recount ``tests/_event_oracle.py`` for the event counts
(``tests/kernels/test_event_advance_counts.py``), the literal pair-sum
reference ``tests/_refresh_oracle.py`` for the refresh
(``tests/kernels/test_refresh_sums.py``) and the literal selection
reference ``tests/_selection_oracle.py`` for the period selection
(``tests/core/test_minima_batch.py``,
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
    "event_advance_counts",
    "harmonic_kept_mask",
    "magnitude_advance_sums",
    "refresh_sums",
    "select_periods_batch_impl",
]


# ----------------------------------------------------------------------
# (a) chunked magnitude AMDF insert/evict recurrence
# ----------------------------------------------------------------------
def magnitude_advance_sums(
    sums: np.ndarray, ext: np.ndarray, window: int, length: int
) -> None:
    """Advance the incremental AMDF sums of a full-window bank by a chunk.

    The per-step recurrence of the ``_source.py`` loop body, vectorised
    over ``(rows, lags)``: step ``t`` adds ``|x_new - x_prev(lag)|`` for
    ``x_new = ext[:, window + t]``, then subtracts
    ``|x_old(lag) - x_evicted|`` for ``x_evicted = ext[:, t]``.  Both
    terms pass through one ``(rows, max_lag)`` scratch, so the working
    set is independent of the chunk length; same operands, same order,
    bit-for-bit the arithmetic of the scalar engine's per-sample update.
    The insert term is computed oldest-first and added through a
    reversed view: NumPy's SIMD and scalar loops propagate a NaN
    operand's sign differently, and this layout keeps even NaN bits equal
    to those of the strided ``(rows, chunk, lags)`` formulation.
    """
    top = sums.shape[1] - 1
    body = sums[:, 1 : top + 1]
    scratch = np.empty_like(body)
    for t in range(length):
        new = window + t
        # Insert: scratch column k pairs x_new with ext[:, new - top + k],
        # so lag m is column top - m, read reversed.
        np.subtract(ext[:, new : new + 1], ext[:, new - top : new], out=scratch)
        np.abs(scratch, out=scratch)
        np.add(body, scratch[:, ::-1], out=body)
        # Evict: column m - 1 (lag m) pairs ext[:, t + m] with x_evicted.
        np.subtract(ext[:, t + 1 : t + top + 1], ext[:, t : t + 1], out=scratch)
        np.abs(scratch, out=scratch)
        np.subtract(body, scratch, out=body)


# ----------------------------------------------------------------------
# (c) chunked event mismatch counts and per-step fundamentals
# ----------------------------------------------------------------------
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

    ``ext`` is each row's ring contents oldest-first (``fill`` events)
    followed by the ``out.shape[1]`` incoming events.  The insert and
    evict comparisons of the whole chunk are two strided passes over
    ``ext``; a running sum over time turns them into every step's counts
    relative to the starting ``mismatches``, and one first-zero
    ``argmax`` per step writes the smallest exactly-matching lag into
    ``out`` (0 when none matches).  Lags above ``fill // min_repetitions``
    or ``fill - 1`` of the step, below ``min_lag``, or in a filling window
    under ``require_full_window`` never match.  ``mismatches`` ends at
    the last step's counts.
    """
    rows, width = mismatches.shape
    top = width - 1
    length = out.shape[1]
    out.fill(0)
    if top < 1 or length == 0:
        return
    pad = max(top - fill, 0)
    src = ext
    if pad:
        src = np.concatenate((np.zeros((rows, pad), dtype=ext.dtype), ext), axis=1)
    # sw[j, :, k] = src[:, j + k]: the window of top + 1 events from j,
    # time-major, so that each step's counts are one contiguous block.
    sw = sliding_window_view(src, top + 1, axis=1).transpose(1, 0, 2)
    # Insert terms: step t compares ext[:, fill + t] with the event lag
    # places before it.  Read backwards, the window ending at the new
    # event starts with it and then runs through lags 1 .. top.
    ins = sw[pad + fill - top : pad + fill - top + length, :, ::-1]
    delta = np.empty((length, rows, top), dtype=np.int32)
    np.not_equal(ins[:, :, 1:], ins[:, :, :1], out=delta)
    # Evict terms: once the window is full, step t drops the pairs of
    # ext[:, fill + t - window] with the events after it.
    t_ev = max(window - fill, 0)
    if t_ev < length:
        ev = sw[pad + fill + t_ev - window : pad + fill + length - window]
        np.subtract(delta[t_ev:], ev[:, :, 1:] != ev[:, :, :1], out=delta[t_ev:])
    if fill == window:
        hi_first = hi_last = min(top, window - 1, window // min_repetitions)
    else:
        steps = np.arange(length)
        # Lags reaching past the first event in the ring have no pair yet.
        filling = min(length, top - fill)
        if filling > 0:
            delta[:filling] *= (np.arange(top) < fill + steps[:filling, None])[:, None]
        after = np.minimum(fill + 1 + steps, window)  # fill after step t
        hi = np.minimum(np.minimum(after - 1, after // min_repetitions), top)
        if require_full_window:
            hi[after < window] = 0
        hi_first, hi_last = int(hi[0]), int(hi[-1])
    # Running sum over time, one contiguous (rows, lags) add per step:
    # np.add.accumulate along this axis pays per (row, lag), ~25x more
    # on a 1000-row block.
    for t in range(1, length):
        np.add(delta[t], delta[t - 1], out=delta[t])

    # First zero count per step, over the lags any step may accept.
    lo = min_lag
    if hi_last >= lo:
        hit = delta[:, :, lo - 1 : hi_last] == -mismatches[:, lo : hi_last + 1]
        if hi_first < hi_last:
            hit &= (np.arange(lo, hi_last + 1) <= hi[:, None])[:, None]
        np.copyto(out.T, hit.argmax(axis=2) + lo, where=hit.any(axis=2))
    mismatches[:, 1:] += delta[-1]


# ----------------------------------------------------------------------
# (d) exact AMDF pair sums (the refresh-interval recompute)
# ----------------------------------------------------------------------
def refresh_sums(windows: np.ndarray, sums: np.ndarray) -> None:
    """Overwrite ``sums[s, m]`` with ``sum_k |x[s, k+m] - x[s, k]|``.

    ``windows`` is ``(streams, n)``, oldest sample first; ``sums`` is
    ``(streams, top + 1)`` with ``top < n``.  One 2-D slice pass per
    ``k`` adds every lag's ``k``-th term into the running sums, so each
    sum accumulates in ascending ``k``, exactly like a sequential loop
    over the pairs.  A NaN term (a NaN sample, or ``inf - inf``) is
    dropped: ``fmax(|d|, 0)`` maps it to ``+0.0`` and leaves every other
    ``|d| >= +0.0`` unchanged.  A finite window has no NaN term, so the
    guard runs only when needed.
    """
    streams, n = windows.shape
    top = sums.shape[1] - 1
    sums.fill(0.0)
    if top < 1:
        return
    finite = bool(np.isfinite(windows).all())
    scratch = np.empty((streams, top), dtype=np.float64)
    with np.errstate(invalid="ignore"):
        for k in range(n - 1):
            width = min(top, n - 1 - k)
            term = scratch[:, :width]
            lagged = windows[:, k + 1 : k + 1 + width]
            np.subtract(lagged, windows[:, k : k + 1], out=term)
            np.abs(term, out=term)
            if not finite:
                np.fmax(term, 0.0, out=term)
            acc = sums[:, 1 : width + 1]
            np.add(acc, term, out=acc)


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
