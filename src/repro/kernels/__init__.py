"""Backend registry for the columnar hot-path kernels.

The four fused kernels that dominate single-core throughput — the
chunked magnitude AMDF recurrence, the exact AMDF recompute behind the
refresh-interval drift guard, the whole-matrix period selection and the
chunked event mismatch counts with their per-step fundamental lag — are
implemented by interchangeable backends behind this registry:

``numba``
    :mod:`repro.kernels.numba_backend` — ``@njit(cache=True)`` compiled
    loop nests (:mod:`repro.kernels._source`).  The production fast
    path; requires the optional ``numba`` dependency
    (``pip install repro[fast]``).
``numpy``
    :mod:`repro.kernels.numpy_backend` — the vectorised pure-NumPy
    reference.  Always available; the bit-for-bit equivalence baseline.
``python``
    :mod:`repro.kernels.python_backend` — the numba source bodies,
    interpreted.  Exact but slow; exists so the kernel logic stays
    testable without numba installed.

Selection is driven by the ``REPRO_KERNELS`` environment variable
(``auto`` | ``numba`` | ``numpy`` | ``python``, default ``auto``).
``auto`` picks numba when it imports, NumPy otherwise; asking for
``numba`` on a machine without it warns once and falls back — importing
:mod:`repro` never *requires* numba.  Every backend is bit-for-bit
equivalent, float state included, so switching backends can never
change detector behaviour — only speed.

Call :func:`warmup` once per process (the pool constructor, the sharded
worker bootstrap and the magnitude detector's constructor all do) so
numba's lazy-dispatch compilation happens at start-up, never inside a
latency-sensitive ingest or ``dpd()`` call.
"""

from __future__ import annotations

import os
import warnings
from types import ModuleType

import numpy as np

__all__ = [
    "CHUNK_BUDGET_ELEMENTS",
    "ENV_VAR",
    "KERNEL_NAMES",
    "backend_name",
    "chunk_columns",
    "event_advance_counts",
    "magnitude_advance_sums",
    "numba_available",
    "refresh_sums",
    "requested_backend",
    "select_periods_batch_impl",
    "set_backend",
    "warmup",
]

ENV_VAR = "REPRO_KERNELS"
_CHOICES = ("auto", "numba", "numpy", "python")

#: The functions every backend module must export.
KERNEL_NAMES = (
    "magnitude_advance_sums",
    "refresh_sums",
    "event_advance_counts",
    "select_periods_batch_impl",
)

#: Upper bound on ``rows * chunk * lags`` for one chunked kernel call.
#: Callers cut their chunks with :func:`chunk_columns`, which bounds the
#: working set without limiting how many columns a batch may hold.  Only
#: the event kernel still builds a ``(rows, chunk, lags)`` block; the
#: magnitude advance steps through one ``(rows, lags)`` scratch, and for
#: the magnitude bank the budget bounds its ``ext`` sample matrix.
CHUNK_BUDGET_ELEMENTS = 1 << 21


def chunk_columns(rows: int, lags: int) -> int:
    """Most columns one chunk of ``rows`` x ``lags`` may span (at least 1)."""
    return max(1, CHUNK_BUDGET_ELEMENTS // max(rows * lags, 1))


_active: ModuleType | None = None
_active_name: str | None = None
_numba_available: bool | None = None
_warmed: set[str] = set()


def requested_backend() -> str:
    """The backend named by ``REPRO_KERNELS`` (``auto`` when unset)."""
    value = os.environ.get(ENV_VAR, "auto").strip().lower() or "auto"
    if value not in _CHOICES:
        warnings.warn(
            f"{ENV_VAR}={value!r} is not one of {_CHOICES}; using 'auto'",
            RuntimeWarning,
            stacklevel=2,
        )
        return "auto"
    return value


def numba_available() -> bool:
    """Whether the numba backend can be imported on this machine."""
    global _numba_available
    if _numba_available is None:
        try:
            import numba  # noqa: F401
        except Exception:
            _numba_available = False
        else:
            _numba_available = True
    return _numba_available


def _load(name: str) -> ModuleType:
    if name == "numba":
        from repro.kernels import numba_backend

        return numba_backend
    if name == "python":
        from repro.kernels import python_backend

        return python_backend
    from repro.kernels import numpy_backend

    return numpy_backend


def _resolve() -> ModuleType:
    """Resolve (and cache) the active backend module."""
    global _active, _active_name
    if _active is not None:
        return _active
    name = requested_backend()
    if name == "auto":
        name = "numba" if numba_available() else "numpy"
    elif name == "numba" and not numba_available():
        warnings.warn(
            f"{ENV_VAR}=numba requested but numba is not importable; "
            "falling back to the NumPy backend",
            RuntimeWarning,
            stacklevel=2,
        )
        name = "numpy"
    _active = _load(name)
    _active_name = name
    return _active


def backend_name() -> str:
    """Name of the active backend (resolving it on first use)."""
    _resolve()
    assert _active_name is not None
    return _active_name


def set_backend(name: str) -> str:
    """Force the active backend; returns the previous one (for restoring).

    Intended for tests and benchmarks.  ``auto`` re-runs the normal
    resolution; asking for ``numba`` without numba installed raises
    (unlike the env-var path, which only warns), so a test that forces
    the compiled backend fails loudly instead of silently testing NumPy.
    """
    global _active, _active_name
    if name not in _CHOICES:
        raise ValueError(f"backend must be one of {_CHOICES}, got {name!r}")
    previous = backend_name()
    if name == "auto":
        _active = None
        _active_name = None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            backend_name()
        return previous
    if name == "numba" and not numba_available():
        raise RuntimeError("numba backend requested but numba is not importable")
    _active = _load(name)
    _active_name = name
    return previous


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
def magnitude_advance_sums(sums, ext, window, length):
    """Chunked magnitude AMDF insert/evict recurrence (in place)."""
    _resolve().magnitude_advance_sums(sums, ext, window, length)


def refresh_sums(windows, sums):
    """Exact AMDF pair sums of ``(streams, n)`` windows into ``sums``."""
    _resolve().refresh_sums(windows, sums)


def event_advance_counts(
    ext, mismatches, out, fill, window, min_lag, min_repetitions, require_full_window
):
    """Chunked event mismatch counts (in place) and per-step fundamentals."""
    _resolve().event_advance_counts(
        ext,
        mismatches,
        out,
        fill,
        window,
        min_lag,
        min_repetitions,
        require_full_window,
    )


def select_periods_batch_impl(P, min_lag, min_depth, harmonic_tolerance):
    """Whole-matrix period selection; returns ``(lags, dists, depths)``."""
    return _resolve().select_periods_batch_impl(
        P, min_lag, min_depth, harmonic_tolerance
    )


# ----------------------------------------------------------------------
# warmup
# ----------------------------------------------------------------------
def warmup() -> str:
    """Pre-drive every kernel once with production dtypes; returns the
    active backend's name.

    For the numba backend this forces the lazy-dispatch compilation of
    the float64/int64 specialisations the banks actually call (and, with
    ``cache=True``, populates the on-disk cache), so no JIT pause ever
    lands inside an ingest request.  Idempotent per backend and cheap
    for the others, so callers can invoke it unconditionally.
    """
    impl = _resolve()
    name = backend_name()
    if name in _warmed:
        return name
    # Magnitude: (streams=1, max_lag=2) sums over a window of 4 + 2 cols.
    sums = np.zeros((1, 3), dtype=np.float64)
    ext = np.linspace(0.0, 1.0, 6, dtype=np.float64)[None, :]
    impl.magnitude_advance_sums(sums, ext, 4, 2)
    impl.refresh_sums(ext, sums)
    # Events: a ring of 3 filling up to 4 within the chunk, so the
    # insert, evict and filling paths all compile.
    ext = np.array([[1, 2, 1, 2, 1, 2]], dtype=np.int64)
    mismatches = np.array([[0, 2, 0]], dtype=np.int64)
    fundamentals = np.empty((1, 3), dtype=np.int64)
    impl.event_advance_counts(ext, mismatches, fundamentals, 3, 4, 1, 2, False)
    # Selection: one row with a genuine minimum at lag 4.
    profile = np.array([[np.nan, 3.0, 2.5, 1.0, 0.1, 1.2, 2.0, 0.4]])
    impl.select_periods_batch_impl(profile, 1, 0.25, 0.15)
    _warmed.add(name)
    return name
