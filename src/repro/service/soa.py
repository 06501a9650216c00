"""Structure-of-arrays backend for homogeneous lockstep magnitude streams.

Feeding one sample into one :class:`DynamicPeriodicityDetector` costs a
handful of small NumPy calls; with thousands of concurrent streams the
Python dispatch overhead of those calls dominates.  When every stream
shares one :class:`~repro.core.detector.DetectorConfig` and the streams
advance in lockstep (one sample each per step — the paper's scenario of
many identical applications monitored together), the AMDF state of *all*
streams is one set of 2-D arrays: ``buffers`` is ``(streams, window)``
and ``sums`` is ``(streams, max_lag + 1)``.  The bank is the detector's
own :class:`~repro.core.detector.AmdfRows` state with one row per
stream.

No per-stream Python survives on the hot path:

* :meth:`MagnitudeSoABank.process` advances the incremental AMDF sums
  for all columns *between* evaluation/refresh boundaries in one
  :func:`repro.kernels.magnitude_advance_sums` call per chunk (the
  detector's per-sample step, on every row and every column of the
  chunk, filling window or full) and reports period starts from one
  vectorised mask per chunk;
* the candidate evaluation runs
  :func:`~repro.core.minima.select_periods_batch` over the whole 2-D
  profile matrix (derived from the sums into preallocated scratch);
* the lock state machines run as one
  :class:`~repro.core.engine.LockTrackerBank` — whole-bank array
  transitions bit-for-bit equivalent to N scalar ``LockTracker``s;
* the refresh-interval drift guard recomputes only the rows whose
  window holds a non-exact sample; a row of exact integers (the paper's
  ``long sample``, see :func:`~repro.core.detector.exact_sample_bound`)
  already has bit-exact sums, and when every row does the recompute is
  skipped outright.

Equivalence with the per-stream engine is exact by construction: both
advance, refresh and derive profiles through the same ``AmdfRows``
methods, so even the floating-point accumulation is identical, and the
lock transitions are the scalar state machine lifted to arrays.
:meth:`MagnitudeSoABank.snapshot_stream` emits a snapshot in the engine
format (the detector's own layout), so a stream can be handed back to a
standalone :class:`DynamicPeriodicityDetector` at any point (the pool
does exactly that after a lockstep run).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import kernels
from repro.core.detector import (
    AmdfRows,
    DetectorConfig,
    DynamicPeriodicityDetector,
    exact_rows,
)
from repro.core.engine import LockTrackerBank
from repro.core.minima import select_periods_batch
from repro.util.validation import ValidationError

__all__ = ["MagnitudeSoABank"]


class MagnitudeSoABank(AmdfRows):
    """Vectorised bank of lockstep magnitude detectors (one per stream).

    Parameters
    ----------
    stream_ids:
        Names of the streams, in row order.  All streams start empty and
        receive exactly one sample per column of :meth:`process` (one
        per :meth:`step` call).
    config:
        Shared detector configuration.  Adaptive windows are per-stream
        by nature and therefore not supported here — the pool falls back
        to per-stream engines for such configurations.

    Examples
    --------
    >>> import numpy as np
    >>> bank = MagnitudeSoABank(["a", "b"], DetectorConfig(window_size=32))
    >>> for _ in range(16):
    ...     _ = bank.step([1.0, 5.0]); _ = bank.step([2.0, 5.0])
    >>> bank.current_period(0)
    2
    """

    def __init__(self, stream_ids: Sequence[str], config: DetectorConfig) -> None:
        ids = list(stream_ids)
        if not ids:
            raise ValidationError("stream_ids must not be empty")
        if len(set(ids)) != len(ids):
            raise ValidationError("stream_ids must be unique")
        if config.adaptive_window is not None:
            raise ValidationError(
                "MagnitudeSoABank does not support adaptive windows; "
                "use per-stream engines instead"
            )
        self.stream_ids = ids
        self.config = config
        streams = len(ids)
        max_lag = config.effective_max_lag
        self._chunk_cap = min(
            config.window_size, kernels.chunk_columns(streams, max_lag)
        )
        self._allocate_rows(streams, config.window_size, max_lag, self._chunk_cap)
        # Per-row exact-window flags (see DynamicPeriodicityDetector): a
        # row whose flag holds is left out of the refresh recompute.
        self._exact = np.ones(streams, dtype=bool)
        self._locks = LockTrackerBank(streams, config.loss_patience)
        # --- preallocated scratch (the hot path never allocates) ---------
        # Profile matrix handed to select_periods_batch: NaN outside the
        # evaluated lag band; the band itself is overwritten in place on
        # every evaluation (profiles() hands out copies), and only ever
        # grows while the window fills.
        self._profile_scratch = np.full(
            (streams, max_lag + 1), np.nan, dtype=np.float64
        )

    # ------------------------------------------------------------------
    @property
    def streams(self) -> int:
        """Number of streams in the bank."""
        return len(self.stream_ids)

    def current_period(self, pos: int) -> int | None:
        """Locked period of the stream at row ``pos`` (None while searching)."""
        return self._locks.current_period(pos)

    def detected_periods(self, pos: int) -> list[int]:
        """Distinct periods locked on the stream at row ``pos``."""
        return sorted(self._locks.detected[pos])

    # ------------------------------------------------------------------
    def step(
        self, values: Sequence[float] | np.ndarray
    ) -> list[tuple[int, int, float, bool]]:
        """Feed one sample to every stream (lockstep): :meth:`process` on
        one column.

        Parameters
        ----------
        values:
            One sample per stream, in row order.

        Returns
        -------
        list of (stream_pos, period, confidence, new_detection)
            One entry per stream whose new sample starts a period
            instance — the same boundaries a standalone detector would
            report via ``DetectionResult.is_period_start``.
        """
        col = np.asarray(values, dtype=np.float64).ravel()
        if col.size != self.streams:
            raise ValidationError(
                f"expected {self.streams} samples (one per stream), got {col.size}"
            )
        return [(pos, p, c, new) for pos, _, p, c, new in self.process(col[:, None])]

    def _evaluate_locks(self) -> None:
        """One whole-bank evaluation at the current index
        (``LockTrackerBank.apply_batch``)."""
        cfg = self.config
        lags, _distances, depths = select_periods_batch(
            self._profile_rows(self._profile_scratch),
            min_lag=cfg.min_lag,
            min_depth=cfg.min_depth,
            harmonic_tolerance=cfg.harmonic_tolerance,
        )
        # The scalar detector rejects a candidate whose period does not
        # repeat min_repetitions times inside the filled window.
        gate = self._fill >= cfg.min_repetitions * lags
        self._locks.apply_batch(lags, depths, gate, self._index)

    def process(self, matrix: np.ndarray) -> list[tuple[int, int, int, float, bool]]:
        """Feed a ``(streams, samples)`` matrix, chunked between boundaries.

        Returns one ``(stream_pos, index, period, confidence,
        new_detection)`` tuple per detected period start, in step
        (chronological) order — per-stream order is contractual: the
        pool assigns each stream's monotonic event ``seq`` from it.
        All columns up to the next evaluation/refresh boundary are
        advanced in one columnar pass (:meth:`_advance_chunk`), whether
        the window is filling or full.
        """
        arr = np.asarray(matrix, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != self.streams:
            raise ValidationError(
                f"matrix must have shape (streams={self.streams}, samples)"
            )
        out: list[tuple[int, int, int, float, bool]] = []
        total = arr.shape[1]
        t = 0
        while t < total:
            length = self._chunk_len(total - t)
            self._advance_chunk(arr[:, t : t + length], out)
            t += length
        return out

    def _chunk_len(self, remaining: int) -> int:
        """Columns until (and including) the next evaluation or refresh
        boundary, capped by the scratch budget and the window size."""
        cfg = self.config
        idx0 = self._index + 1
        eval_k = (
            (cfg.evaluation_interval - idx0 % cfg.evaluation_interval)
            % cfg.evaluation_interval
        ) + 1
        refresh_k = cfg.refresh_interval - self._since_refresh
        return max(1, min(eval_k, refresh_k, remaining, self._chunk_cap))

    def _advance_chunk(
        self, cols: np.ndarray, out: list[tuple[int, int, int, float, bool]]
    ) -> None:
        """Advance the bank by ``cols.shape[1]`` lockstep columns.

        The insert/evict terms of the incremental AMDF recurrence are
        applied by :meth:`~repro.core.detector.AmdfRows._advance_rows`,
        the detector's own per-sample step, on every row.
        Evaluation (and the refresh rebuild) can only be due at the last
        column — :meth:`_chunk_len` cuts chunks at those boundaries — so
        the lock state is constant for all earlier columns and their
        period starts reduce to one vectorised mask.
        """
        length = cols.shape[1]
        idx0 = self._index + 1
        if self._exact.any():
            self._exact &= exact_rows(cols, self._exact_bound)
        self._advance_rows(cols)
        if self._since_refresh >= self.config.refresh_interval:
            self._rebuild_sums()

        on_boundary = self._index % self.config.evaluation_interval == 0
        eval_due = on_boundary and self._evaluation_ready()
        # The columns before any lock change, then the evaluated one.
        plain = length - 1 if eval_due else length
        if plain and self._locks.periods.any():
            self._report_starts(idx0, plain, out)
        if eval_due:
            self._evaluate_locks()
            self._report_starts(self._index, 1, out)

    def _report_starts(
        self, start: int, count: int, out: list[tuple[int, int, int, float, bool]]
    ) -> None:
        """Append the period starts of ``count`` columns from index
        ``start``, over which the lock state is constant.

        One ``(columns, streams)`` mask covers them all; ``nonzero()``
        yields them time-major / stream-ascending, the order the pool
        assigns event ``seq``s in.  A start on its lock's anchor is the
        lock's new detection.
        """
        locks = self._locks
        ts, poss = np.nonzero(locks.period_start_matrix(start, count))
        index = ts + start
        out.extend(
            zip(
                poss.tolist(),
                index.tolist(),
                locks.periods[poss].tolist(),
                locks.confidences[poss].tolist(),
                (locks.anchors[poss] == index).tolist(),
            )
        )

    # ------------------------------------------------------------------
    def profiles(self) -> np.ndarray:
        """Incremental ``d(m)`` profiles, shape ``(streams, max_lag + 1)``."""
        return self._profile_rows(self._profile_scratch).copy()

    def _rebuild_sums(self) -> None:
        """Exact recompute of the non-exact rows (the refresh-interval
        drift guard, :meth:`~repro.core.detector.AmdfRows._refresh_rows`).

        The exact rows' running sums already equal the recompute.
        """
        self._since_refresh = 0
        rows = np.flatnonzero(~self._exact)
        if rows.size:
            self._exact[rows] = self._refresh_rows(rows)

    # ------------------------------------------------------------------
    def snapshot_stream(self, pos: int) -> dict:
        """Engine-format snapshot of one stream (see ``DetectorEngine``)."""
        return self._snapshot_row(
            pos, self._index + 1, self._locks.snapshot_stream(pos)
        )

    def restore_stream(self, pos: int, state: dict) -> None:
        """Reinstate one stream's row from an engine-format snapshot.

        The bank shares ``head``/``fill``/``index`` across all rows, so the
        snapshot must come from an engine in lockstep with the bank (same
        sample count and window geometry) — e.g. the round trip
        ``snapshot_stream`` -> standalone engine -> ``snapshot`` -> back.
        """
        self._locks.restore_stream(pos, self._restore_row(pos, state))
        self._exact[pos] = False

    def to_engine(self, pos: int) -> DynamicPeriodicityDetector:
        """Materialise the stream at row ``pos`` as a standalone engine."""
        engine = DynamicPeriodicityDetector(self.config)
        engine.restore(self.snapshot_stream(pos))
        return engine
