"""Interpreted backend: the :mod:`repro.kernels._source` bodies, un-JIT'd.

Runs the exact loop nests the numba backend compiles, only interpreted.
Far too slow for production — it exists so the kernel *logic* stays
covered by the bit-for-bit equivalence suites on machines without numba
(select it with ``REPRO_KERNELS=python``; ``auto`` never picks it).
"""

from __future__ import annotations

import numpy as np

from repro.kernels import _source
from repro.kernels._rowwise import make_select_impl

magnitude_advance_sums = _source.magnitude_advance_sums
event_advance_counts = _source.event_advance_counts
select_periods_batch_impl = make_select_impl(_source.select_rows)


def refresh_sums(windows, sums):
    """:func:`_source.refresh_sums`; NumPy scalars warn on ``inf - inf``
    where compiled code does not, so the warning is silenced here."""
    with np.errstate(invalid="ignore"):
        _source.refresh_sums(windows, sums)


__all__ = [
    "event_advance_counts",
    "magnitude_advance_sums",
    "refresh_sums",
    "select_periods_batch_impl",
]
