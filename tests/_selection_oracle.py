"""A literal reference for the DPD's period selection, shared by the tests.

Every kernel backend, and ``select_period`` (which is the batched kernel
on a one-row matrix), is held to this oracle.  It reuses none of the
library's selection code: the minima search is a Python loop over lags,
the harmonic filter a loop over the kept set, and the winner is picked
with ``min(key=(-depth, lag))``.

The one expression it shares with the kernels is the profile mean:
NumPy's pairwise sum over the finite entries (zeros elsewhere).  A
sequential loop sums in a different order, differs in the last ulp and
can flip the ``>= min_depth`` gate, so the mean is fixed by contract
(see ``repro.kernels._rowwise``) rather than re-derived here.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.minima import PeriodCandidate


def profile_mean(profile) -> float:
    """Mean of the finite entries, by the contract's exact expression."""
    profile = np.asarray(profile, dtype=float)
    finite = np.isfinite(profile)
    return float(np.where(finite, profile, 0.0).sum() / max(int(finite.sum()), 1))


def find_local_minima(profile, *, min_lag=1):
    """Every local minimum, by a Python loop over lags."""
    values = [float(v) for v in np.asarray(profile, dtype=float)]
    mean = profile_mean(values)
    eligible = {j for j, v in enumerate(values) if j >= min_lag and math.isfinite(v)}
    candidates = []
    for lag in sorted(eligible):
        value = values[lag]
        left = values[lag - 1] if lag - 1 in eligible else math.inf
        right = values[lag + 1] if lag + 1 in eligible else math.inf
        if value <= left and value <= right:
            # Plateau: only its first lag is reported.
            if lag - 1 in eligible and values[lag - 1] == value and left <= right:
                continue
            if mean > 0:
                depth = 1.0 - value / mean
            else:
                depth = 1.0 if value == 0 else 0.0
            candidates.append(PeriodCandidate(lag=lag, distance=value, depth=depth))
    return candidates


def filter_harmonics_loop(candidates, *, tolerance=0.15):
    """The O(k^2) loop: a kept candidate drops its not-much-deeper multiples."""
    by_lag = sorted(candidates, key=lambda c: c.lag)
    kept = []
    for cand in by_lag:
        is_harmonic = False
        for base in kept:
            if cand.lag % base.lag == 0 and cand.lag != base.lag:
                if cand.depth <= base.depth + tolerance:
                    is_harmonic = True
                    break
        if not is_harmonic:
            kept.append(cand)
    return kept


def select_period(profile, *, min_lag=1, min_depth=0.25, harmonic_tolerance=0.15):
    """The deepest non-harmonic qualifying minimum, smaller lag on ties."""
    candidates = [
        c for c in find_local_minima(profile, min_lag=min_lag) if c.depth >= min_depth
    ]
    kept = filter_harmonics_loop(candidates, tolerance=harmonic_tolerance)
    if not kept:
        return None
    return min(kept, key=lambda c: (-c.depth, c.lag))


def select_rows(matrix, *, min_lag, min_depth, harmonic_tolerance):
    """``(lag, distance, depth)`` per row; ``(0, 0.0, 0.0)`` for no period."""
    out = []
    for row in np.asarray(matrix, dtype=float):
        candidate = select_period(
            row,
            min_lag=min_lag,
            min_depth=min_depth,
            harmonic_tolerance=harmonic_tolerance,
        )
        out.append(
            (0, 0.0, 0.0)
            if candidate is None
            else (candidate.lag, candidate.distance, candidate.depth)
        )
    return out
