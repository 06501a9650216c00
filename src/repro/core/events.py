"""Streaming periodicity detection for event streams (equation 2).

When the monitored values are identifiers rather than magnitudes — the
paper's use case is the sequence of *addresses* of encapsulated OpenMP
parallel-loop functions — distances between values are meaningless and the
DPD uses equation (2): a lag ``m`` is a period only when the window repeats
*exactly* with that lag.

:class:`EventPeriodicityDetector` maintains, for every candidate lag, the
number of mismatching sample pairs inside the current window.  One event
(:meth:`~EventPeriodicityDetector.update`) updates the pair it adds and
the pair the evicted event drops with vectorised comparisons against
contiguous ring-buffer slices, O(M) per event with a very small constant;
this is the per-element cost measured in Table 3.  A batch
(:meth:`~EventPeriodicityDetector.update_batch`) advances in chunks along
time instead: the :func:`repro.kernels.event_advance_counts` kernel
builds a chunk's insert and evict comparisons in two strided passes and
reports every step's smallest exactly-matching lag, so the per-event
Python left is the lock state machine, shared with ``update``.

The detector implements the :class:`~repro.core.engine.DetectorEngine`
protocol (``update`` / ``update_batch`` / ``profile`` / ``snapshot`` /
``restore``) used by the multi-stream service layer of
:mod:`repro.service`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro import kernels
from repro.core.distance import event_mismatch_counts
from repro.core.engine import DetectionResult, tag_snapshot, validate_snapshot
from repro.util.ringbuffer import read_ring, write_ring
from repro.util.validation import ValidationError, check_positive_int

__all__ = [
    "EventDetectorConfig",
    "EventPeriodicityDetector",
    "EventRow",
    "read_row",
    "snapshot_row",
]


@dataclass
class EventDetectorConfig:
    """Configuration of :class:`EventPeriodicityDetector`.

    Attributes
    ----------
    window_size:
        Data window size ``N``.
    max_lag:
        Largest lag evaluated (defaults to ``window_size - 1``).
    min_lag:
        Smallest lag evaluated.
    min_repetitions:
        A lag ``m`` is only accepted when at least this many full periods
        fit in the currently filled window (``fill >= min_repetitions*m``).
    require_full_window:
        Only report periods once the window has filled completely.  Used by
        the multi-scale detector to avoid low-confidence early matches.
    loss_patience:
        Consecutive confirmation failures tolerated before dropping a lock.
    """

    window_size: int = 256
    max_lag: int | None = None
    min_lag: int = 1
    min_repetitions: int = 2
    require_full_window: bool = False
    loss_patience: int = 4

    def __post_init__(self) -> None:
        check_positive_int(self.window_size, "window_size")
        check_positive_int(self.min_lag, "min_lag")
        check_positive_int(self.min_repetitions, "min_repetitions")
        check_positive_int(self.loss_patience, "loss_patience")
        if self.max_lag is not None:
            check_positive_int(self.max_lag, "max_lag")
            if self.max_lag >= self.window_size:
                raise ValidationError("max_lag must be smaller than window_size")
            if self.max_lag < self.min_lag:
                raise ValidationError(
                    f"max_lag {self.max_lag} must not be smaller than min_lag {self.min_lag}"
                )
        if self.min_lag >= self.window_size:
            raise ValidationError("min_lag must be smaller than window_size")

    @property
    def effective_max_lag(self) -> int:
        """Largest lag actually evaluated."""
        return self.max_lag if self.max_lag is not None else self.window_size - 1


class EventPeriodicityDetector:
    """Exact-match streaming periodicity detector for event streams.

    Examples
    --------
    >>> det = EventPeriodicityDetector(EventDetectorConfig(window_size=32))
    >>> stream = [10, 20, 30] * 10
    >>> results = [det.update(v) for v in stream]
    >>> det.current_period
    3
    """

    def __init__(self, config: EventDetectorConfig | None = None, **kwargs) -> None:
        if config is None:
            config = EventDetectorConfig(**kwargs)
        elif kwargs:
            raise ValidationError("pass either an EventDetectorConfig or keyword options, not both")
        self.config = config
        self._window_size = config.window_size
        self._max_lag = config.effective_max_lag
        self._buffer = np.zeros(self._window_size, dtype=np.int64)
        self._fill = 0
        self._head = 0
        self._index = -1
        self._mismatches = np.zeros(self._max_lag + 1, dtype=np.int64)
        self._locked_period: int | None = None
        self._anchor: int | None = None
        self._anchor_value: int = 0
        self._misses = 0
        self._detected_periods: dict[int, int] = {}

    # ------------------------------------------------------------------
    @property
    def window_size(self) -> int:
        """Current data-window size ``N``."""
        return self._window_size

    @property
    def samples_seen(self) -> int:
        """Total number of events processed."""
        return self._index + 1

    @property
    def current_period(self) -> int | None:
        """Currently locked period (``None`` while searching)."""
        return self._locked_period

    @property
    def detected_periods(self) -> list[int]:
        """Distinct periods locked at any point during the stream."""
        return sorted(self._detected_periods)

    @property
    def anchor_value(self) -> int:
        """Event value observed at the current lock's phase anchor."""
        return self._anchor_value

    def window_values(self) -> np.ndarray:
        """Events currently in the window, oldest first."""
        return read_ring(self._buffer, self._head, self._fill)

    # ------------------------------------------------------------------
    def set_window_size(self, size: int) -> None:
        """Resize the data window, keeping the newest events."""
        check_positive_int(size, "size")
        kept = self.window_values()[-size:]
        self._window_size = size
        self._max_lag = min(self.config.effective_max_lag, size - 1)
        self._buffer = np.zeros(size, dtype=np.int64)
        self._fill = kept.size
        self._buffer[: kept.size] = kept
        self._head = kept.size % size
        self._rebuild_mismatches()

    def _rebuild_mismatches(self) -> None:
        """Exact recount of the per-lag mismatches (full-window pass)."""
        window = self.window_values()
        self._mismatches = np.zeros(self._max_lag + 1, dtype=np.int64)
        top = min(self._max_lag, window.size - 1)
        if top >= 1:
            self._mismatches[: top + 1] = event_mismatch_counts(window, top)

    # ------------------------------------------------------------------
    def profile(self) -> np.ndarray:
        """Equation (2) profile from the incremental state (lag-indexed).

        ``profile[m]`` is 0 for an exact repetition with lag ``m``, 1
        otherwise, and -1 below ``min_lag`` (not evaluated) — the same
        convention as :func:`~repro.core.distance.event_distance_profile`.
        """
        profile = np.full(self._max_lag + 1, -1, dtype=np.int64)
        hi = min(self._max_lag, self._fill - 1)
        lags = np.arange(self.config.min_lag, hi + 1)
        if lags.size:
            profile[lags] = (self._mismatches[lags] > 0).astype(np.int64)
        return profile

    def matched_lags(self) -> np.ndarray:
        """Lags currently matching exactly, subject to the repetition rule."""
        fill = self._fill
        if fill < 2:
            return np.empty(0, dtype=np.int64)
        if self.config.require_full_window and fill < self._window_size:
            return np.empty(0, dtype=np.int64)
        max_lag = min(self._max_lag, fill - 1)
        lags = np.arange(self.config.min_lag, max_lag + 1)
        if lags.size == 0:
            return lags
        ok = self._mismatches[lags] == 0
        ok &= fill >= self.config.min_repetitions * lags
        return lags[ok]

    # ------------------------------------------------------------------
    def update(self, event: int) -> DetectionResult:
        """Consume one event value and report the detection state."""
        value = int(event)
        if not -(2**63) <= value < 2**63:
            # Refused before the counts move; the int64 store below would
            # raise only after them.
            raise OverflowError(f"event {value} does not fit in int64")

        # Maintain the incremental mismatch counts on contiguous ring
        # buffer slices (no full-window copy): the last m events in
        # reverse chronological order occupy slots head-1 ... head-m
        # (mod N); the pairs evicted with the oldest event pair it with
        # slots head+1 ... head+m (mod N).
        buf = self._buffer
        head = self._head
        fill = self._fill
        mism = self._mismatches
        if fill:
            m = min(self._max_lag, fill)
            if m <= head:
                mism[1 : m + 1] += buf[head - m : head][::-1] != value
            else:
                if head:
                    mism[1 : head + 1] += buf[head - 1 :: -1] != value
                tail = m - head
                mism[head + 1 : m + 1] += buf[-1 : -tail - 1 : -1] != value
        if fill == self._window_size and fill > 1:
            evicted = buf[head]
            m = min(self._max_lag, fill - 1)
            first = min(m, fill - 1 - head)
            if first:
                mism[1 : first + 1] -= buf[head + 1 : head + 1 + first] != evicted
            if m > first:
                mism[first + 1 : m + 1] -= buf[: m - first] != evicted

        buf[head] = value
        self._head = (head + 1) % self._window_size
        if fill < self._window_size:
            self._fill = fill + 1

        matched = self.matched_lags()
        return self._advance_lock(value, int(matched[0]) if matched.size else 0)

    def update_batch(self, samples: Sequence[int] | np.ndarray) -> list[DetectionResult]:
        """Consume a batch of events; one :class:`DetectionResult` each.

        Exactly equivalent to calling :meth:`update` in a loop (the batch
        ingestion path of the service layer), but advanced in chunks
        along time: one :func:`repro.kernels.event_advance_counts` call
        per chunk updates the mismatch counts and yields every step's
        fundamental lag, then the lock state machine runs per event.

        Each sample is converted as ``int(v)`` would: floats truncate, a
        NaN raises ``ValueError`` and ``±inf`` or a value outside int64
        raises ``OverflowError``.  Unlike a loop over :meth:`update`,
        which consumes the events before the bad one, the whole batch is
        converted first, so a failed batch leaves the detector unchanged.
        """
        values = _as_events(samples)
        cfg = self.config
        results: list[DetectionResult] = []
        step = kernels.chunk_columns(1, self._max_lag)
        for start in range(0, values.size, step):
            chunk = values[start : start + step]
            buf, head, fill = self._buffer, self._head, self._fill
            ext = read_ring(buf, head, fill, chunk)[None, :]
            fundamentals = np.empty((1, chunk.size), dtype=np.int64)
            kernels.event_advance_counts(
                ext,
                self._mismatches[None, :],
                fundamentals,
                fill,
                self._window_size,
                cfg.min_lag,
                cfg.min_repetitions,
                cfg.require_full_window,
            )
            self._head = write_ring(buf, head, chunk)
            self._fill = min(self._window_size, fill + chunk.size)
            lags = fundamentals[0].tolist()
            results += map(self._advance_lock, chunk.tolist(), lags)
        return results

    def _advance_lock(self, value: int, fundamental: int) -> DetectionResult:
        """The lock state machine, one event: ``fundamental`` is the
        smallest exactly-matching lag after the event (0 for none)."""
        self._index += 1
        index = self._index
        new_detection = False
        if fundamental:
            self._misses = 0
            if fundamental != self._locked_period:
                self._locked_period = fundamental
                self._anchor = index
                self._anchor_value = value
                self._detected_periods[fundamental] = (
                    self._detected_periods.get(fundamental, 0) + 1
                )
                new_detection = True
        elif self._locked_period is not None:
            self._misses += 1
            if self._misses >= self.config.loss_patience:
                self._locked_period = None
                self._anchor = None
                self._misses = 0

        period = self._locked_period
        anchor = self._anchor
        # A period starts every `period` events from the anchor, where
        # the phase is confirmed: the event value must match the value
        # observed at the anchor (the function that opens the iterative
        # structure, Section 5.1 of the paper).
        is_start = (
            period is not None
            and anchor is not None
            and (index - anchor) % period == 0
            and (value == self._anchor_value or index == anchor)
        )
        return DetectionResult(
            index=index,
            period=period,
            is_period_start=is_start,
            new_detection=new_detection,
            confidence=1.0 if period is not None else 0.0,
        )

    # ------------------------------------------------------------------
    # state serialisation (DetectorEngine protocol)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Complete detector state; reinstate with :meth:`restore`."""
        return snapshot_row(
            self._buffer[None, :],
            self._mismatches[None, :],
            0,
            self._fill,
            self._head,
            self._index,
            self._locked_period,
            self._anchor,
            self._anchor_value,
            self._misses,
            self._detected_periods,
        )

    def restore(self, state: dict) -> None:
        """Reinstate a state produced by :meth:`snapshot`."""
        row = read_row(state)
        self._window_size = row.buffer.size
        self._max_lag = row.mismatches.size - 1
        self._buffer = row.buffer
        self._mismatches = row.mismatches
        self._fill = row.fill
        self._head = row.head
        self._index = row.index
        self._locked_period = row.locked_period
        self._anchor = row.anchor
        self._anchor_value = row.anchor_value
        self._misses = row.misses
        self._detected_periods = row.detected_periods

    # ------------------------------------------------------------------
    def process(self, stream: Sequence[int] | np.ndarray) -> list[DetectionResult]:
        """Feed every event of ``stream`` and collect results."""
        return self.update_batch(stream)

    def reset(self) -> None:
        """Forget all events and detections; keep the configuration."""
        self.__init__(self.config)


def snapshot_row(
    buffers: np.ndarray,
    mismatches: np.ndarray,
    pos: int,
    fill: int,
    head: int,
    index: int,
    period: int | None,
    anchor: int | None,
    anchor_value: int,
    misses: int,
    detected: dict[int, int],
) -> dict:
    """Engine-format snapshot of row ``pos`` of ``(rows, N)`` rings and
    their ``(rows, M + 1)`` counts, shared by the detector and
    :class:`repro.service.event_soa.EventSoABank`.  No lock is
    ``period`` ``None`` or 0 and ``anchor`` ``None`` or negative."""
    return tag_snapshot({
        "kind": "event",
        "window_size": buffers.shape[1],
        "max_lag": mismatches.shape[1] - 1,
        "buffer": buffers[pos].copy(),
        "fill": fill,
        "head": head,
        "index": index,
        "mismatches": mismatches[pos].copy(),
        "locked_period": int(period) if period else None,
        "anchor": int(anchor) if anchor is not None and anchor >= 0 else None,
        "anchor_value": int(anchor_value),
        "misses": int(misses),
        "detected_periods": dict(detected),
    })


class EventRow(NamedTuple):
    """One row's state, as :func:`read_row` reads it from a snapshot."""

    buffer: np.ndarray
    mismatches: np.ndarray
    fill: int
    head: int
    index: int
    locked_period: int | None
    anchor: int | None
    anchor_value: int
    misses: int
    detected_periods: dict[int, int]


def read_row(state: dict) -> EventRow:
    """Validate a snapshot made by :func:`snapshot_row` and read it."""
    validate_snapshot(state, expected_kind="event")
    row = EventRow(
        np.array(state["buffer"], dtype=np.int64),
        np.array(state["mismatches"], dtype=np.int64),
        int(state["fill"]),
        int(state["head"]),
        int(state["index"]),
        state["locked_period"],
        state["anchor"],
        int(state["anchor_value"]),
        int(state["misses"]),
        dict(state["detected_periods"]),
    )
    if row.buffer.shape != (int(state["window_size"]),) or row.mismatches.shape != (
        int(state["max_lag"]) + 1,
    ):
        raise ValidationError(
            "snapshot buffer/mismatches do not match window_size/max_lag"
        )
    return row


def _as_events(samples: Sequence[int] | np.ndarray) -> np.ndarray:
    """``samples`` as 1-D int64, converted as ``int(v)`` would be; the
    first unconvertible sample raises what ``int(v)`` and an int64 store
    raise, before any of the batch is consumed."""
    arr = np.asarray(samples)
    kind = arr.dtype.kind
    if arr.ndim != 1 or kind not in "biuf":
        return np.array([int(v) for v in arr], dtype=np.int64)
    if kind in "uf":
        # NaN fails both comparisons; truncation toward zero is int()'s.
        ok = (arr >= -(2**63)) & (arr < 2**63)
        if not ok.all():
            bad = arr[np.argmin(ok)]
            int(bad)  # NaN and ±inf raise here, as under int(v)
            raise OverflowError(f"event {bad!r} does not fit in int64")
    return arr.astype(np.int64)
