"""Local-minimum search on d(m) profiles and harmonic filtering.

The period reported by the DPD is the lag at which the distance profile
``d(m)`` has a (deep) local minimum (Figure 4 of the paper).  Two practical
complications are handled here:

* **Harmonics.**  When the window is several times longer than the true
  period ``p``, ``d(m)`` is (near) zero at every multiple of ``p``.  The
  detector must report the fundamental, not one of its multiples.
* **Shallow minima.**  Real traces (e.g. CPU-usage samples) never repeat
  exactly; a minimum only indicates a period when it is deep relative to
  the overall level of the profile.

There is one selection: :func:`select_periods_batch` runs it in the
active :mod:`repro.kernels` backend over a ``(streams, lags)`` profile
matrix, and :func:`select_period` — the streaming detector's per-sample
call — is its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.kernels.numpy_backend import (
    harmonic_kept_mask as _harmonic_kept_mask,
    local_minima as _local_minima,
)
from repro.util.validation import check_positive

__all__ = [
    "PeriodCandidate",
    "find_local_minima",
    "select_period",
    "select_periods_batch",
    "filter_harmonics",
]


@dataclass(frozen=True)
class PeriodCandidate:
    """One candidate period extracted from a distance profile.

    Attributes
    ----------
    lag:
        The candidate period ``m``.
    distance:
        ``d(m)`` at the candidate lag.
    depth:
        Relative depth of the minimum: ``1 - d(m) / mean(d)``.  1.0 means a
        perfect (zero-distance) match; values near 0 mean the minimum is
        barely below the profile average.
    """

    lag: int
    distance: float
    depth: float

    def __post_init__(self) -> None:
        if self.lag <= 0:
            raise ValueError("lag must be positive")


def find_local_minima(profile: np.ndarray, *, min_lag: int = 1) -> list[PeriodCandidate]:
    """Return every local minimum of ``profile`` as a candidate period.

    ``profile[m]`` must contain ``d(m)``; non-finite entries are ignored.
    A point is a local minimum when it is not larger than both neighbours
    (plateaus report their first point).  Endpoints qualify when they are
    below their single neighbour, so that a monotonically decreasing
    profile still yields its final lag as a candidate.
    """
    _, lags, found, depths = _local_minima(
        np.asarray(profile, dtype=float)[None, :], min_lag
    )
    return [
        PeriodCandidate(lag=lag, distance=value, depth=depth)
        for lag, value, depth in zip(lags.tolist(), found.tolist(), depths.tolist())
    ]


def filter_harmonics(
    candidates: list[PeriodCandidate],
    *,
    tolerance: float = 0.15,
) -> list[PeriodCandidate]:
    """Remove candidates that are integer multiples of a stronger candidate.

    A candidate at lag ``k*m`` is dropped when a candidate exists at lag
    ``m`` whose distance is not worse than the multiple's distance by more
    than ``tolerance`` (relative to the profile scale encoded in ``depth``).
    The fundamental period therefore survives and its harmonics do not.

    Only a *kept* candidate can explain away its multiples: a lag that was
    itself dropped as a harmonic never suppresses a deeper minimum further
    up the lag axis.  The pairwise divisibility/depth comparisons run as
    one broadcast matrix; the remaining forward pass over candidates (in
    lag order) only resolves that kept-set dependency and is skipped
    entirely when no candidate pair is harmonic-related.
    """
    check_positive(tolerance + 1e-12, "tolerance")
    if not candidates:
        return []
    by_lag = sorted(candidates, key=lambda c: c.lag)
    lags = np.array([c.lag for c in by_lag], dtype=np.int64)
    depths = np.array([c.depth for c in by_lag])
    kept_mask = _harmonic_kept_mask(lags, depths, tolerance)
    if kept_mask.all():
        return by_lag
    return [c for c, keep in zip(by_lag, kept_mask) if keep]


def select_period(
    profile: np.ndarray,
    *,
    min_lag: int = 1,
    min_depth: float = 0.25,
    harmonic_tolerance: float = 0.15,
) -> PeriodCandidate | None:
    """Select the period reported by the DPD from a distance profile.

    The deepest non-harmonic local minimum whose relative depth is at least
    ``min_depth`` is returned (ties go to the smaller lag); ``None`` when no
    minimum qualifies (the stream is considered aperiodic over the current
    window).  This is :func:`select_periods_batch` on a one-row matrix, so
    the single-stream detector and the lockstep banks share one selection;
    like it, ``min_lag`` must be at least 1 (``ValueError`` otherwise).
    """
    lags, distances, depths = select_periods_batch(
        np.asarray(profile, dtype=float)[None, :],
        min_lag=min_lag,
        min_depth=min_depth,
        harmonic_tolerance=harmonic_tolerance,
    )
    if lags[0] == 0:
        return None
    return PeriodCandidate(
        lag=int(lags[0]), distance=float(distances[0]), depth=float(depths[0])
    )


def select_periods_batch(
    profiles: np.ndarray,
    *,
    min_lag: int = 1,
    min_depth: float = 0.25,
    harmonic_tolerance: float = 0.15,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Select the period of every row of a profile matrix at once.

    ``profiles`` has shape ``(streams, lags)`` — the layout of the
    structure-of-arrays lockstep bank; :func:`select_period` is the
    one-row case.  The search runs in the active :mod:`repro.kernels`
    backend — a fused ``@njit`` row kernel when numba is installed, the
    compact-candidate NumPy reference otherwise; every backend is
    bit-for-bit identical per row.

    Returns
    -------
    (lags, distances, depths):
        One entry per row; ``lags[s] == 0`` means row ``s`` selected no
        period (:func:`select_period` returning ``None``), otherwise the
        three values are exactly the fields of the
        :class:`PeriodCandidate` the per-stream call would build.
    """
    check_positive(harmonic_tolerance + 1e-12, "harmonic_tolerance")
    if min_lag < 1:
        # Lag 0 is the no-candidate marker of the batched result (and
        # PeriodCandidate rejects non-positive lags).
        raise ValueError(f"min_lag must be >= 1, got {min_lag}")
    P = np.asarray(profiles, dtype=float)
    if P.ndim != 2:
        raise ValueError(f"profiles must be 2-D (streams, lags), got shape {P.shape}")
    return kernels.select_periods_batch_impl(P, min_lag, min_depth, harmonic_tolerance)
