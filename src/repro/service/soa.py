"""Structure-of-arrays backend for homogeneous lockstep magnitude streams.

Feeding one sample into one :class:`DynamicPeriodicityDetector` costs a
handful of small NumPy calls; with thousands of concurrent streams the
Python dispatch overhead of those calls dominates.  When every stream
shares one :class:`~repro.core.detector.DetectorConfig` and the streams
advance in lockstep (one sample each per step — the paper's scenario of
many identical applications monitored together), the per-sample AMDF
bookkeeping of *all* streams collapses into the same contiguous slice
arithmetic on 2-D arrays: ``buffers`` is ``(streams, window)`` and
``sums`` is ``(streams, max_lag + 1)``, so one vectorised operation
advances every stream at once.

No per-stream Python survives on the hot path:

* the candidate evaluation runs
  :func:`~repro.core.minima.select_periods_batch` over the whole 2-D
  profile matrix (derived allocation-free from preallocated scratch);
* the lock state machines run as one
  :class:`~repro.core.engine.LockTrackerBank` — whole-bank array
  transitions bit-for-bit equivalent to N scalar ``LockTracker``s;
* :meth:`MagnitudeSoABank.process` advances the incremental AMDF sums
  for all columns *between* evaluation/refresh boundaries in one
  :func:`repro.kernels.magnitude_advance_sums` call per chunk (the
  eviction/insert recurrence stepped over the chunk's columns, each step
  whole-bank ``(streams, max_lag)`` arithmetic into one scratch),
  instead of paying the full per-``step()`` dispatch for every sample,
  and reports period starts from one vectorised mask per chunk;
* the refresh-interval drift guard recomputes, in one batched
  :func:`~repro.core.distance.amdf_pair_sums_batch` pass, only the rows
  whose window holds a non-exact sample; a row of exact integers (the
  paper's ``long sample``, see
  :func:`~repro.core.detector.exact_sample_bound`) already has bit-exact
  sums, and when every row does the recompute is skipped outright.

Equivalence with the per-stream engine is exact by construction: the
slice arithmetic mirrors :meth:`DynamicPeriodicityDetector.update` line
by line (the chunked pass applies the same per-step add/evict terms in
the same order, so even the floating-point accumulation is identical),
and the lock transitions are the scalar state machine lifted to arrays.
:meth:`MagnitudeSoABank.snapshot_stream` emits a snapshot in the engine
format, so a stream can be handed back to a standalone
:class:`DynamicPeriodicityDetector` at any point (the pool does exactly
that after a lockstep run).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import kernels
from repro.core.detector import (
    DetectorConfig,
    DynamicPeriodicityDetector,
    exact_rows,
    exact_sample_bound,
)
from repro.core.distance import amdf_pair_sums_batch
from repro.core.engine import LockTrackerBank, tag_snapshot, validate_snapshot
from repro.core.minima import select_periods_batch
from repro.util.ringbuffer import read_ring, write_ring
from repro.util.validation import ValidationError

__all__ = ["MagnitudeSoABank"]


class MagnitudeSoABank:
    """Vectorised bank of lockstep magnitude detectors (one per stream).

    Parameters
    ----------
    stream_ids:
        Names of the streams, in row order.  All streams start empty and
        receive exactly one sample per :meth:`step` call.
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
        self._window_size = config.window_size
        self._max_lag = config.effective_max_lag
        self._buffers = np.zeros((streams, self._window_size), dtype=np.float64)
        self._sums = np.zeros((streams, self._max_lag + 1), dtype=np.float64)
        self._fill = 0
        self._head = 0
        self._index = -1
        self._since_refresh = 0
        # Per-row exact-window flags (see DynamicPeriodicityDetector): a
        # row whose flag holds is left out of the refresh recompute.
        self._exact = np.ones(streams, dtype=bool)
        self._exact_bound = exact_sample_bound(self._window_size)
        self._locks = LockTrackerBank(streams, config.loss_patience)
        # Once the window is full, "enough samples to evaluate" never
        # changes again; precomputing it keeps the chunked pass branchless.
        self._steady_ready = self._window_size >= max(
            2 * config.min_lag, min(config.min_fill, self._window_size)
        )
        # --- preallocated scratch (the hot path never allocates) ---------
        # Profile matrix handed to select_periods_batch: NaN outside the
        # evaluated lag band; the band itself is overwritten in place on
        # every evaluation, and only ever grows while the window fills.
        self._profile_scratch = np.full(
            (streams, self._max_lag + 1), np.nan, dtype=np.float64
        )
        self._steady_denoms = np.arange(
            self._window_size - config.min_lag,
            self._window_size - min(self._max_lag, self._window_size - 1) - 1,
            -1,
            dtype=np.float64,
        )
        self._chunk_cap = min(
            self._window_size, kernels.chunk_columns(streams, self._max_lag)
        )
        # Window contents (oldest first) + incoming chunk, rebuilt per pass.
        self._ext_scratch = np.empty(
            (streams, self._window_size + self._chunk_cap), dtype=np.float64
        )

    # ------------------------------------------------------------------
    @property
    def streams(self) -> int:
        """Number of streams in the bank."""
        return len(self.stream_ids)

    @property
    def samples_seen(self) -> int:
        """Samples consumed per stream so far."""
        return self._index + 1

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
        """Feed one sample to every stream (lockstep).

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
        self._index += 1
        if self._exact.any():
            self._exact &= exact_rows(col[:, None], self._exact_bound)

        # --- incremental AMDF sums, all streams at once -----------------
        # Identical slice arithmetic to DynamicPeriodicityDetector.update,
        # lifted to 2-D: every stream shares head/fill because the bank
        # advances in lockstep.
        bufs = self._buffers
        sums = self._sums
        head = self._head
        fill = self._fill
        sample = col[:, None]
        if fill:
            m = min(self._max_lag, fill)
            if m <= head:
                sums[:, 1 : m + 1] += np.abs(sample - bufs[:, head - m : head][:, ::-1])
            else:
                if head:
                    sums[:, 1 : head + 1] += np.abs(sample - bufs[:, head - 1 :: -1])
                tail = m - head
                sums[:, head + 1 : m + 1] += np.abs(
                    sample - bufs[:, -1 : -tail - 1 : -1]
                )
        if fill == self._window_size:
            evicted = bufs[:, head].copy()[:, None]
            m = min(self._max_lag, fill - 1)
            first = min(m, fill - 1 - head)
            if first:
                sums[:, 1 : first + 1] -= np.abs(
                    bufs[:, head + 1 : head + 1 + first] - evicted
                )
            if m > first:
                sums[:, first + 1 : m + 1] -= np.abs(bufs[:, : m - first] - evicted)

        bufs[:, head] = col
        self._head = (head + 1) % self._window_size
        if fill < self._window_size:
            self._fill = fill + 1

        self._since_refresh += 1
        if self._since_refresh >= self.config.refresh_interval:
            self._rebuild_sums()

        # --- evaluate all streams in one pass over the profile matrix ---
        # Minima search, depth computation, min_depth gate and the lock
        # transitions all run as whole-matrix operations; no per-stream
        # Python.
        cfg = self.config
        ready = self._fill >= max(2 * cfg.min_lag, min(cfg.min_fill, self._window_size))
        if (self._index % cfg.evaluation_interval) == 0 and ready:
            self._evaluate_locks()

        # --- period starts, one vectorised pass --------------------------
        starting = np.flatnonzero(self._locks.is_period_start_mask(self._index))
        if starting.size == 0:
            return []
        new_marks = self._locks.anchors[starting] == self._index
        return list(
            zip(
                starting.tolist(),
                self._locks.periods[starting].tolist(),
                self._locks.confidences[starting].tolist(),
                new_marks.tolist(),
            )
        )

    def _evaluate_locks(self) -> np.ndarray:
        """One whole-bank evaluation at the current index; returns the
        new-detection mask (``LockTrackerBank.apply_batch``)."""
        cfg = self.config
        lags, _distances, depths = select_periods_batch(
            self._eval_profiles(),
            min_lag=cfg.min_lag,
            min_depth=cfg.min_depth,
            harmonic_tolerance=cfg.harmonic_tolerance,
        )
        # The scalar detector rejects a candidate whose period does not
        # repeat min_repetitions times inside the filled window.
        gate = self._fill >= cfg.min_repetitions * lags
        return self._locks.apply_batch(lags, depths, gate, self._index)

    def process(self, matrix: np.ndarray) -> list[tuple[int, int, int, float, bool]]:
        """Feed a ``(streams, samples)`` matrix, chunked between boundaries.

        Returns one ``(stream_pos, index, period, confidence,
        new_detection)`` tuple per detected period start, in step
        (chronological) order — per-stream order is contractual: the
        pool assigns each stream's monotonic event ``seq`` from it.
        While the window is filling, columns run through :meth:`step`;
        once it is full, all columns up to the next evaluation/refresh
        boundary are advanced in one columnar pass
        (:meth:`_advance_chunk`), which is the bank's steady-state hot
        loop.
        """
        arr = np.asarray(matrix, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != self.streams:
            raise ValidationError(
                f"matrix must have shape (streams={self.streams}, samples)"
            )
        out: list[tuple[int, int, int, float, bool]] = []
        total = arr.shape[1]
        t = 0
        while t < total and self._fill < self._window_size:
            index = self._index + 1
            for pos, period, confidence, new in self.step(arr[:, t]):
                out.append((pos, index, period, confidence, new))
            t += 1
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
        """Advance the full-window bank by ``cols.shape[1]`` lockstep columns.

        The insert/evict terms of the incremental AMDF recurrence are
        applied by the active :mod:`repro.kernels` backend — a fused
        compiled loop when numba is installed, otherwise six whole-bank
        ``(streams, max_lag)`` NumPy ufuncs per column into one scratch —
        per element in the exact operation order of :meth:`step`, so the
        float state stays bit-for-bit identical.
        Evaluation (and the refresh rebuild) can only be due at the last
        column — :meth:`_chunk_len` cuts chunks at those boundaries — so
        the lock state is constant for all earlier columns and their
        period starts reduce to one vectorised mask.
        """
        length = cols.shape[1]
        window = self._window_size
        head = self._head
        bufs = self._buffers
        sums = self._sums
        idx0 = self._index + 1
        if self._exact.any():
            self._exact &= exact_rows(cols, self._exact_bound)

        # ext = window contents oldest-first, then the incoming columns.
        ext = self._ext_scratch[:, : window + length]
        read_ring(bufs, head, window, cols, ext)

        kernels.magnitude_advance_sums(sums, ext, window, length)

        self._head = write_ring(bufs, head, cols)
        self._index += length
        self._since_refresh += length
        if self._since_refresh >= self.config.refresh_interval:
            self._rebuild_sums()

        cfg = self.config
        eval_due = (
            self._steady_ready and (self._index % cfg.evaluation_interval) == 0
        )
        locks = self._locks
        # Period starts for the columns before any lock change: the lock
        # state is constant there, so one (columns, streams) mask covers
        # them all; nonzero() yields them time-major / stream-ascending,
        # the exact order the per-step path reports.
        plain = length - 1 if eval_due else length
        if plain and locks.periods.any():
            ts, poss = np.nonzero(locks.period_start_matrix(idx0, plain))
            if ts.size:
                out.extend(
                    zip(
                        poss.tolist(),
                        (ts + idx0).tolist(),
                        locks.periods[poss].tolist(),
                        locks.confidences[poss].tolist(),
                        (False,) * ts.size,
                    )
                )
        if eval_due:
            self._evaluate_locks()
            starting = np.flatnonzero(locks.is_period_start_mask(self._index))
            if starting.size:
                new_marks = locks.anchors[starting] == self._index
                out.extend(
                    zip(
                        starting.tolist(),
                        (int(self._index),) * starting.size,
                        locks.periods[starting].tolist(),
                        locks.confidences[starting].tolist(),
                        new_marks.tolist(),
                    )
                )

    # ------------------------------------------------------------------
    def _eval_profiles(self) -> np.ndarray:
        """Incremental ``d(m)`` profiles, written into the scratch matrix.

        Allocation-free: only the evaluated lag band ``[min_lag, top]``
        is (re)written; everything outside stays NaN from construction.
        The returned matrix is reused by the next evaluation — callers
        must not retain it (:meth:`profiles` hands out copies).
        """
        fill = self._fill
        lo = self.config.min_lag
        hi = min(self._max_lag, fill - 1)
        scratch = self._profile_scratch
        if hi < lo:
            return scratch
        if fill == self._window_size:
            denoms = self._steady_denoms
        else:
            denoms = np.arange(fill - lo, fill - hi - 1, -1, dtype=np.float64)
        np.divide(self._sums[:, lo : hi + 1], denoms, out=scratch[:, lo : hi + 1])
        return scratch

    def profiles(self) -> np.ndarray:
        """Incremental ``d(m)`` profiles, shape ``(streams, max_lag + 1)``."""
        return self._eval_profiles().copy()

    def _rebuild_sums(self) -> None:
        """Exact recompute of the non-exact rows (the refresh-interval
        drift guard).

        One batched 2-D :func:`amdf_pair_sums_batch` pass over the rows
        whose exact flag is clear — bit-for-bit the per-stream
        ``amdf_pair_sums`` results, with no Python loop over streams.
        The exact rows' running sums already equal the recompute.  A
        recomputed row re-arms its flag only if its window is all exact.
        """
        self._since_refresh = 0
        rows = np.flatnonzero(~self._exact)
        if rows.size == 0:
            return
        fill = self._fill
        head = self._head
        bufs = self._buffers[rows]
        windows = read_ring(bufs, head, fill)
        top = min(self._max_lag, fill - 1)
        self._sums[rows] = 0.0
        if top >= 1:
            self._sums[rows, : top + 1] = amdf_pair_sums_batch(windows, top)
        self._exact[rows] = exact_rows(windows, self._exact_bound)

    # ------------------------------------------------------------------
    def snapshot_stream(self, pos: int) -> dict:
        """Engine-format snapshot of one stream (see ``DetectorEngine``)."""
        return tag_snapshot({
            "kind": "magnitude",
            "window_size": self._window_size,
            "max_lag": self._max_lag,
            "buffer": self._buffers[pos].copy(),
            "fill": self._fill,
            "head": self._head,
            "index": self._index,
            "sums": self._sums[pos].copy(),
            "since_refresh": self._since_refresh,
            "samples_since_growth": self._index + 1,
            "lock": self._locks.snapshot_stream(pos),
        })

    def restore_stream(self, pos: int, state: dict) -> None:
        """Reinstate one stream's row from an engine-format snapshot.

        The bank shares ``head``/``fill``/``index`` across all rows, so the
        snapshot must come from an engine in lockstep with the bank (same
        sample count and window geometry) — e.g. the round trip
        ``snapshot_stream`` -> standalone engine -> ``snapshot`` -> back.
        """
        validate_snapshot(state, expected_kind="magnitude")
        if (
            int(state["window_size"]) != self._window_size
            or int(state["max_lag"]) != self._max_lag
            or int(state["fill"]) != self._fill
            or int(state["head"]) != self._head
            or int(state["index"]) != self._index
        ):
            raise ValidationError(
                "snapshot is not in lockstep with the bank "
                "(window/fill/head/index mismatch)"
            )
        self._buffers[pos] = np.asarray(state["buffer"], dtype=np.float64)
        self._sums[pos] = np.asarray(state["sums"], dtype=np.float64)
        self._exact[pos] = False
        self._locks.restore_stream(pos, state["lock"])

    def to_engine(self, pos: int) -> DynamicPeriodicityDetector:
        """Materialise the stream at row ``pos`` as a standalone engine."""
        engine = DynamicPeriodicityDetector(self.config)
        engine.restore(self.snapshot_stream(pos))
        return engine
