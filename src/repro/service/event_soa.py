"""Structure-of-arrays backend for homogeneous lockstep *event* streams.

Event mode is the paper's primary metric (equation 2, identifier streams)
and the pool's default mode.  :class:`EventSoABank` is its vectorised
lockstep path: when every stream shares one
:class:`~repro.core.events.EventDetectorConfig` and the streams advance
in lockstep, the mismatch bookkeeping of *all* streams runs on 2-D
arrays — ``buffers`` is ``(streams, window)`` int64 and ``mismatches``
is ``(streams, max_lag + 1)`` int64.  :meth:`EventSoABank.process`
advances them in chunks along time: one
:func:`repro.kernels.event_advance_counts` call per chunk (the kernel
the per-stream engine's ``update_batch`` runs on one row) updates the
counts and yields every stream's fundamental lag at every step, with
the chunk's scratch bounded by :data:`repro.kernels.CHUNK_BUDGET_ELEMENTS`.

Equivalence with the per-stream engine is exact by construction: the
counts are integers, and the lock state machine (smallest matching lag
-> miss counting -> anchor-value phase check) runs per column as
whole-bank array transitions that reproduce
``EventPeriodicityDetector._advance_lock`` bit for bit.
:meth:`EventSoABank.snapshot_stream` emits a snapshot in the engine
format, so a stream can be handed back to a standalone
:class:`EventPeriodicityDetector` at any point (the pool does exactly
that after a lockstep run).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import kernels
from repro.core.events import (
    EventDetectorConfig,
    EventPeriodicityDetector,
    read_row,
    snapshot_row,
)
from repro.util.ringbuffer import read_ring, write_ring
from repro.util.validation import ValidationError

__all__ = ["EventSoABank"]


class EventSoABank:
    """Vectorised bank of lockstep event detectors (one per stream).

    Parameters
    ----------
    stream_ids:
        Names of the streams, in row order.  All streams start empty and
        receive exactly one event per :meth:`step` call.
    config:
        Shared event detector configuration.

    Examples
    --------
    >>> bank = EventSoABank(["a", "b"], EventDetectorConfig(window_size=32))
    >>> for _ in range(10):
    ...     _ = bank.step([1, 7]); _ = bank.step([2, 7]); _ = bank.step([3, 7])
    >>> bank.current_period(0)
    3
    >>> bank.current_period(1)
    1
    """

    def __init__(self, stream_ids: Sequence[str], config: EventDetectorConfig) -> None:
        ids = list(stream_ids)
        if not ids:
            raise ValidationError("stream_ids must not be empty")
        if len(set(ids)) != len(ids):
            raise ValidationError("stream_ids must be unique")
        self.stream_ids = ids
        self.config = config
        streams = len(ids)
        self._window_size = config.window_size
        self._max_lag = config.effective_max_lag
        self._buffers = np.zeros((streams, self._window_size), dtype=np.int64)
        self._mismatches = np.zeros((streams, self._max_lag + 1), dtype=np.int64)
        self._fill = 0
        self._head = 0
        self._index = -1
        # Whole-bank lock state: 0 in _periods / -1 in _anchors mean "no
        # lock"; these arrays replace the per-stream Python attributes of
        # EventPeriodicityDetector so transitions run vectorised.
        self._periods = np.zeros(streams, dtype=np.int64)
        self._anchors = np.full(streams, -1, dtype=np.int64)
        self._anchor_values = np.zeros(streams, dtype=np.int64)
        self._misses = np.zeros(streams, dtype=np.int64)
        #: per stream: period -> number of times it was (re-)locked
        self._detected: list[dict[int, int]] = [{} for _ in ids]
        self._chunk_cap = kernels.chunk_columns(streams, self._max_lag)

    # ------------------------------------------------------------------
    @property
    def streams(self) -> int:
        """Number of streams in the bank."""
        return len(self.stream_ids)

    @property
    def samples_seen(self) -> int:
        """Events consumed per stream so far."""
        return self._index + 1

    def current_period(self, pos: int) -> int | None:
        """Locked period of the stream at row ``pos`` (None while searching)."""
        period = int(self._periods[pos])
        return period if period else None

    def detected_periods(self, pos: int) -> list[int]:
        """Distinct periods locked on the stream at row ``pos``."""
        return sorted(self._detected[pos])

    # ------------------------------------------------------------------
    def step(
        self,
        values: Sequence[int] | np.ndarray,
        fundamentals: np.ndarray | None = None,
    ) -> list[tuple[int, int, float, bool]]:
        """Feed one event to every stream (lockstep).

        Returns one ``(stream_pos, period, confidence, new_detection)``
        tuple per stream whose new event starts a period instance — the
        same boundaries a standalone detector would report via
        ``DetectionResult.is_period_start``.  :meth:`process` passes
        ``fundamentals``, each stream's smallest matching lag at this
        column, once its chunk kernel call has already advanced the
        counts and the ring past it; the step then only runs the lock
        transitions.
        """
        col = np.asarray(values)
        if col.size != self.streams:
            raise ValidationError(
                f"expected {self.streams} events (one per stream), got {col.size}"
            )
        col = col.astype(np.int64, copy=False).ravel()
        if fundamentals is None:
            fundamentals = self._advance_counts(col[:, None])[:, 0]
        self._index += 1

        # --- lock transitions, whole bank at once ------------------------
        new_detection = self._update_locks(col, fundamentals)

        # --- period starts, one vectorised pass --------------------------
        locked = self._periods > 0
        if not locked.any():
            return []
        offsets = self._index - self._anchors
        on_boundary = locked & (offsets % np.where(locked, self._periods, 1) == 0)
        phase_ok = (col == self._anchor_values) | (offsets == 0)
        starting = np.flatnonzero(on_boundary & phase_ok)
        return list(
            zip(
                starting.tolist(),
                self._periods[starting].tolist(),
                (1.0,) * starting.size,
                new_detection[starting].tolist(),
            )
        )

    def process(self, matrix: np.ndarray) -> list[tuple[int, int, int, float, bool]]:
        """Feed a ``(streams, events)`` matrix, in chunks along time.

        Returns one ``(stream_pos, index, period, confidence,
        new_detection)`` tuple per detected period start, in step
        (chronological) order — per-stream order is contractual: the
        pool assigns each stream's monotonic event ``seq`` from it.
        One kernel call per chunk advances the counts and the ring,
        then :meth:`step` runs the lock transitions column by column.
        """
        arr = np.asarray(matrix)
        if arr.ndim != 2 or arr.shape[0] != self.streams:
            raise ValidationError(
                f"matrix must have shape (streams={self.streams}, events)"
            )
        arr = arr.astype(np.int64, copy=False)
        out: list[tuple[int, int, int, float, bool]] = []
        for start in range(0, arr.shape[1], self._chunk_cap):
            cols = arr[:, start : start + self._chunk_cap]
            fundamentals = self._advance_counts(cols)
            for t in range(cols.shape[1]):
                index = self._index + 1
                for pos, period, confidence, new in self.step(
                    cols[:, t], fundamentals[:, t]
                ):
                    out.append((pos, index, period, confidence, new))
        return out

    def _advance_counts(self, cols: np.ndarray) -> np.ndarray:
        """Advance the counts and the ring by the columns of ``cols`` in
        one kernel call; returns each stream's smallest matching lag
        after each column (0 when none matches)."""
        length = cols.shape[1]
        bufs = self._buffers
        head = self._head
        fill = self._fill
        ext = read_ring(bufs, head, fill, cols)
        fundamentals = np.empty((self.streams, length), dtype=np.int64)
        cfg = self.config
        kernels.event_advance_counts(
            ext,
            self._mismatches,
            fundamentals,
            fill,
            self._window_size,
            cfg.min_lag,
            cfg.min_repetitions,
            cfg.require_full_window,
        )
        self._head = write_ring(bufs, head, cols)
        self._fill = min(self._window_size, fill + length)
        return fundamentals

    def _update_locks(self, col: np.ndarray, fundamentals: np.ndarray) -> np.ndarray:
        """Advance every stream's lock; returns the new-detection mask.

        Vectorised transcription of ``EventPeriodicityDetector._advance_lock``
        given each stream's smallest matching lag (0 for none): miss
        counting and lock loss for unmatched locked streams, miss reset
        plus (re-)anchoring for streams whose fundamental changed.
        """
        matched = fundamentals > 0

        unmatched_locked = ~matched & (self._periods > 0)
        self._misses[unmatched_locked] += 1
        dropped = unmatched_locked & (self._misses >= self.config.loss_patience)
        self._periods[dropped] = 0
        self._anchors[dropped] = -1
        self._misses[dropped] = 0

        self._misses[matched] = 0
        changed = matched & (fundamentals != self._periods)
        if changed.any():
            self._periods[changed] = fundamentals[changed]
            self._anchors[changed] = self._index
            self._anchor_values[changed] = col[changed]
            for pos in np.flatnonzero(changed):
                period = int(fundamentals[pos])
                counts = self._detected[pos]
                counts[period] = counts.get(period, 0) + 1
        return changed

    # ------------------------------------------------------------------
    def profiles(self) -> np.ndarray:
        """Equation (2) profiles, shape ``(streams, max_lag + 1)``.

        Same convention as :meth:`EventPeriodicityDetector.profile`:
        0 for an exact repetition, 1 otherwise, -1 below ``min_lag`` or
        beyond the filled window (not evaluated).

        Allocates a fresh matrix per call, which is fine here: unlike
        the magnitude bank (whose evaluation consumes its profile matrix
        every ``evaluation_interval`` steps and therefore reuses a
        preallocated scratch), the event hot path reads the mismatch
        counters inside the kernel — this accessor only serves
        inspection and tests.
        """
        profiles = np.full((self.streams, self._max_lag + 1), -1, dtype=np.int64)
        hi = min(self._max_lag, self._fill - 1)
        lags = np.arange(self.config.min_lag, hi + 1)
        if lags.size:
            profiles[:, lags] = (self._mismatches[:, lags] > 0).astype(np.int64)
        return profiles

    # ------------------------------------------------------------------
    def snapshot_stream(self, pos: int) -> dict:
        """Engine-format snapshot of one stream (see ``DetectorEngine``)."""
        return snapshot_row(
            self._buffers,
            self._mismatches,
            pos,
            self._fill,
            self._head,
            self._index,
            self._periods[pos],
            self._anchors[pos],
            self._anchor_values[pos],
            self._misses[pos],
            self._detected[pos],
        )

    def restore_stream(self, pos: int, state: dict) -> None:
        """Reinstate one stream's row from an engine-format snapshot.

        The bank shares ``head``/``fill``/``index`` across all rows, so the
        snapshot must come from an engine in lockstep with the bank (same
        event count and window geometry) — e.g. the round trip
        ``snapshot_stream`` -> standalone engine -> ``snapshot`` -> back.
        """
        row = read_row(state)
        if (
            row.buffer.size != self._window_size
            or row.mismatches.size != self._max_lag + 1
            or (row.fill, row.head, row.index) != (self._fill, self._head, self._index)
        ):
            raise ValidationError(
                "snapshot is not in lockstep with the bank "
                "(window/fill/head/index mismatch)"
            )
        self._buffers[pos] = row.buffer
        self._mismatches[pos] = row.mismatches
        self._periods[pos] = row.locked_period or 0
        self._anchors[pos] = row.anchor if row.anchor is not None else -1
        self._anchor_values[pos] = row.anchor_value
        self._misses[pos] = row.misses
        self._detected[pos] = row.detected_periods

    def to_engine(self, pos: int) -> EventPeriodicityDetector:
        """Materialise the stream at row ``pos`` as a standalone engine."""
        engine = EventPeriodicityDetector(self.config)
        engine.restore(self.snapshot_stream(pos))
        return engine
