"""Numba-compiled backend: the :mod:`repro.kernels._source` bodies, JIT'd.

Importing this module requires numba; the registry in
:mod:`repro.kernels` guards the import and falls back to the NumPy
backend when it fails, so ``import repro`` never depends on numba.

Compilation choices:

* ``cache=True`` — compiled machine code is persisted on disk (honours
  ``NUMBA_CACHE_DIR``), so warm processes and CI runs skip the JIT cost.
* ``fastmath`` stays **off** — the equivalence contract is bit-for-bit
  against the NumPy reference, and fastmath licenses exactly the
  reassociations that would break it.
* Lazy signatures — :func:`repro.kernels.warmup` drives each kernel once
  with production dtypes (float64 / int64) so the specialisations are
  compiled at process start, never inside a latency-sensitive ingest.
"""

from __future__ import annotations

import numba

from repro.kernels import _source
from repro.kernels._rowwise import make_select_impl

_jit = numba.njit(cache=True, fastmath=False)

magnitude_advance_sums = _jit(_source.magnitude_advance_sums)
event_step_mismatches = _jit(_source.event_step_mismatches)
refresh_sums = _jit(_source.refresh_sums)
select_periods_batch_impl = make_select_impl(_jit(_source.select_rows))

__all__ = [
    "event_step_mismatches",
    "magnitude_advance_sums",
    "refresh_sums",
    "select_periods_batch_impl",
]
