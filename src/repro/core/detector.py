"""The streaming Dynamic Periodicity Detector for sampled magnitude streams.

:class:`DynamicPeriodicityDetector` consumes one sample per call (exactly
like the ``int DPD(long sample, int *period)`` interface of Table 1) and
maintains:

* a sliding data window of the last ``N`` samples,
* an incrementally updated distance profile ``d(m)`` (equation (1)),
* the currently *locked* period together with its phase anchor, so that
  the detector can report the start of every period instance (the
  segmentation used by the SelfAnalyzer).

The incremental profile update costs O(M) per sample (one
:func:`repro.kernels.magnitude_advance_sums` step over the ring), which
is what makes the detector cheap enough to run inside a live application
(Table 3 of the paper measures exactly this per-sample cost).  The only
full-window pass is the exact recompute every ``refresh_interval`` samples
that cancels floating-point drift — and it is skipped while the window
holds only exact samples (integers with ``|x| <= 2**52 / (N + 1)``, the
paper's ``long sample``): every incremental add and subtract is then
exact integer arithmetic, so the running sums already equal the
recompute bit for bit.

The incremental AMDF state and its operations are written once, over
rows, in :class:`AmdfRows`: the detector is one row of it and the
lockstep bank :class:`repro.service.soa.MagnitudeSoABank` one row per
stream.

The detector implements the :class:`~repro.core.engine.DetectorEngine`
protocol (``update`` / ``update_batch`` / ``profile`` / ``snapshot`` /
``restore``), which is what the multi-stream service layer of
:mod:`repro.service` builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import kernels
from repro.core.distance import amdf_pair_sums_batch, amdf_profile
from repro.core.engine import DetectionResult, LockTracker, tag_snapshot, validate_snapshot
from repro.core.minima import PeriodCandidate, select_period
from repro.core.window import AdaptiveWindowPolicy
from repro.util.ringbuffer import read_ring, write_ring
from repro.util.validation import ValidationError, check_in_range, check_positive_int

__all__ = [
    "AmdfRows",
    "DetectionResult",
    "DetectorConfig",
    "DynamicPeriodicityDetector",
    "exact_rows",
    "exact_sample_bound",
]


def exact_sample_bound(window_size: int) -> float:
    """Largest ``|x|`` of an integer sample that keeps the AMDF sums exact.

    With every sample an integer ``|x| <= 2**52 / (N + 1)``, each
    ``|difference|`` and every running sum — including the transient one
    between the insert and the evict of an update — is an integer no
    larger than ``2**53``, so the incremental path never rounds.
    """
    return 2.0**52 / (window_size + 1)


def exact_rows(values: np.ndarray, bound: float) -> np.ndarray:
    """Per row of ``values`` (reduced over the last axis): are all samples
    integers with ``|x| <= bound``?  NaN and ``±inf`` are not."""
    return ((np.abs(values) <= bound) & (np.floor(values) == values)).all(axis=-1)


@dataclass
class DetectorConfig:
    """Configuration of :class:`DynamicPeriodicityDetector`.

    Attributes
    ----------
    window_size:
        Data window size ``N`` (the ``DPDWindowSize`` knob).
    max_lag:
        Largest lag ``M`` evaluated; defaults to ``window_size - 1``.
    min_lag:
        Smallest lag evaluated (1 detects immediate repetition).
    min_depth:
        Minimum relative depth of a distance minimum to accept a period.
    min_repetitions:
        Number of full periods that must fit in the window before a period
        is accepted.
    min_fill:
        Number of samples that must have been observed before the profile
        is evaluated at all; avoids locking onto spurious tiny periods
        while the window is nearly empty.  Must not exceed
        ``window_size``.
    evaluation_interval:
        Evaluate the profile for a (new) period only every this many
        samples; period-start bookkeeping still happens on every sample.
    refresh_interval:
        Recompute the distance profile exactly (non-incrementally) every
        this many samples to cancel floating-point drift.  The recompute
        is skipped at a boundary where it provably writes the same bits
        (see :func:`exact_sample_bound`); the phase is the same either way.
    loss_patience:
        Number of consecutive failed confirmations after which the lock is
        dropped and the detector returns to searching.
    harmonic_tolerance:
        Depth tolerance used when discarding harmonics of the fundamental.
    adaptive_window:
        Optional :class:`AdaptiveWindowPolicy`; when set, the window grows
        while searching and shrinks to a few periods after locking.
    """

    window_size: int = 128
    max_lag: int | None = None
    min_lag: int = 1
    min_depth: float = 0.25
    min_repetitions: int = 2
    min_fill: int = 8
    evaluation_interval: int = 1
    refresh_interval: int = 256
    loss_patience: int = 8
    harmonic_tolerance: float = 0.15
    adaptive_window: AdaptiveWindowPolicy | None = None

    def __post_init__(self) -> None:
        check_positive_int(self.window_size, "window_size")
        check_positive_int(self.min_lag, "min_lag")
        check_positive_int(self.min_repetitions, "min_repetitions")
        check_positive_int(self.min_fill, "min_fill")
        check_positive_int(self.evaluation_interval, "evaluation_interval")
        check_positive_int(self.refresh_interval, "refresh_interval")
        check_positive_int(self.loss_patience, "loss_patience")
        check_in_range(self.min_depth, "min_depth", 0.0, 1.0)
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
        if self.min_fill > self.window_size:
            raise ValidationError(
                f"min_fill {self.min_fill} must not exceed window_size {self.window_size}"
            )

    @property
    def effective_max_lag(self) -> int:
        """The largest lag actually evaluated."""
        return self.max_lag if self.max_lag is not None else self.window_size - 1


class AmdfRows:
    """The incremental AMDF state of magnitude mode, over rows.

    ``_buffers`` holds ``(rows, N)`` rings (``_head`` the next write
    slot, ``_fill`` samples each) and ``_sums`` their ``(rows, M + 1)``
    running sums: ``_sums[r, m]`` is the sum of ``|x[n] - x[n-m]|`` over
    the pairs inside row ``r``'s window.  ``_index`` is the last consumed
    sample and ``_since_refresh`` counts the samples since the last
    refresh boundary.  :class:`DynamicPeriodicityDetector` is one row
    and :class:`repro.service.soa.MagnitudeSoABank` one row per stream;
    both advance, derive profiles, refresh and snapshot through these
    methods.
    """

    config: DetectorConfig

    @property
    def samples_seen(self) -> int:
        """Samples consumed so far (per row)."""
        return self._index + 1

    def _allocate_rows(
        self, rows: int, window_size: int, max_lag: int, chunk: int
    ) -> None:
        """Empty rings and zeroed sums for ``N = window_size``,
        ``M = max_lag``, advanced by up to ``chunk`` columns at a time."""
        self._fill = 0
        self._head = 0
        self._index = -1
        self._since_refresh = 0
        self._window_size = window_size
        self._max_lag = max_lag
        self._exact_bound = exact_sample_bound(window_size)
        self._buffers = np.zeros((rows, window_size), dtype=np.float64)
        self._sums = np.zeros((rows, max_lag + 1), dtype=np.float64)
        # The rings' contents (oldest first) + the incoming columns.
        self._ext_scratch = np.empty(rows * (window_size + chunk), dtype=np.float64)

    def _advance_rows(self, cols: np.ndarray) -> None:
        """Push the ``(rows, length)`` columns ``cols``; advance the sums.

        One :func:`repro.kernels.magnitude_advance_sums` call over the
        rings' contents followed by ``cols``, laid out C-contiguous in
        the flat scratch: the argument types :func:`repro.kernels.warmup`
        compiles, in a filling window or a full one.
        """
        rows, length = cols.shape
        fill = self._fill
        width = fill + length
        if width > 1:  # a lone first sample has no pair to add
            ext = self._ext_scratch[: rows * width].reshape(rows, width)
            read_ring(self._buffers, self._head, fill, cols, ext)
            kernels.magnitude_advance_sums(self._sums, ext, fill, self._window_size)
        self._head = write_ring(self._buffers, self._head, cols)
        self._fill = min(self._window_size, width)
        self._index += length
        self._since_refresh += length

    def _evaluation_ready(self) -> bool:
        """Whether the window holds enough samples to evaluate."""
        cfg = self.config
        return self._fill >= max(
            2 * cfg.min_lag, min(cfg.min_fill, self._window_size)
        )

    def _profile_rows(self, out: np.ndarray) -> np.ndarray:
        """Every row's ``d(m)`` from its running sums, written into ``out``.

        Only the evaluated lag band ``[min_lag, min(M, fill - 1)]`` is
        written: ``d(m) = sums[m] / (fill - m)``, the mean over the pairs
        the window holds at lag ``m``.  Returns ``out``.
        """
        fill = self._fill
        lo = self.config.min_lag
        hi = min(self._max_lag, fill - 1)
        if hi >= lo:
            pairs = np.arange(fill - lo, fill - hi - 1, -1, dtype=np.float64)
            np.divide(self._sums[:, lo : hi + 1], pairs, out=out[:, lo : hi + 1])
        return out

    def _refresh_rows(self, rows: Sequence[int] | np.ndarray) -> np.ndarray:
        """Exact recompute of the sums of ``rows`` (the drift guard).

        One batched :func:`~repro.core.distance.amdf_pair_sums_batch`
        pass over those rows' windows.  Returns their exact flags: a
        recomputed row may skip the next recompute only if its window is
        all exact samples, since a float sample still in it would leave
        rounding behind when the incremental path later evicts it.
        """
        windows = read_ring(self._buffers[rows], self._head, self._fill)
        top = min(self._max_lag, self._fill - 1)
        self._sums[rows] = 0.0
        if top >= 1:
            self._sums[rows, : top + 1] = amdf_pair_sums_batch(windows, top)
        return exact_rows(windows, self._exact_bound)

    def _snapshot_row(self, pos: int, samples_since_growth: int, lock: dict) -> dict:
        """Engine-format snapshot of row ``pos`` (see ``DetectorEngine``)."""
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
            "samples_since_growth": samples_since_growth,
            "lock": lock,
        })

    def _restore_row(self, pos: int, state: dict) -> dict:
        """Write row ``pos`` from a snapshot made by :meth:`_snapshot_row`;
        returns its lock state.

        The rows share ``head``/``fill``/``index``, so the snapshot must
        be in lockstep with them (same sample count and window geometry).
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
        return state["lock"]


class DynamicPeriodicityDetector(AmdfRows):
    """Streaming periodicity detector for magnitude data series (eq. 1).

    Examples
    --------
    >>> det = DynamicPeriodicityDetector(DetectorConfig(window_size=32))
    >>> import numpy as np
    >>> stream = np.tile([0, 1, 2, 3], 32)
    >>> periods = {r.period for r in map(det.update, stream) if r.period}
    >>> periods
    {4}
    """

    def __init__(self, config: DetectorConfig | None = None, **kwargs) -> None:
        if config is None:
            config = DetectorConfig(**kwargs)
        elif kwargs:
            raise ValidationError("pass either a DetectorConfig or keyword options, not both")
        self.config = config
        # Selection dispatches through the kernel registry: compile (when
        # numba is active) now, never inside the first evaluating update.
        kernels.warmup()
        self._allocate_rows(1, config.window_size, config.effective_max_lag, 1)
        self._col = np.empty((1, 1), dtype=np.float64)  # the sample, as a column
        # True while every sample in the window since the last executed
        # recompute is exact: the refresh is then a no-op and is skipped.
        # Never snapshotted — a restored detector starts "not exact".
        self._exact = True
        self._lock = LockTracker(config.loss_patience)
        self._samples_since_growth = 0

    # ------------------------------------------------------------------
    # public properties
    # ------------------------------------------------------------------
    @property
    def window_size(self) -> int:
        """Current data-window size ``N``."""
        return self._window_size

    @property
    def current_period(self) -> int | None:
        """Currently locked period (``None`` while searching)."""
        return self._lock.period

    @property
    def detected_periods(self) -> list[int]:
        """Distinct periods locked at any point during the stream."""
        return sorted(self._lock.detected)

    # ------------------------------------------------------------------
    # window management (Table 1: DPDWindowSize)
    # ------------------------------------------------------------------
    def set_window_size(self, size: int) -> None:
        """Resize the data window, keeping the newest samples."""
        check_positive_int(size, "size")
        kept = self.window_values()[-size:]
        index = self._index
        self._allocate_rows(1, size, min(self.config.effective_max_lag, size - 1), 1)
        self._index = index
        self._fill = kept.size
        self._buffers[0, : kept.size] = kept
        self._head = kept.size % size
        self._rebuild_sums()

    def window_values(self) -> np.ndarray:
        """Samples currently in the window, oldest first."""
        return read_ring(self._buffers[0], self._head, self._fill)

    # ------------------------------------------------------------------
    # profile access
    # ------------------------------------------------------------------
    def distance_profile(self) -> np.ndarray:
        """Exact ``d(m)`` profile recomputed from the full window."""
        window = self.window_values()
        if window.size < 2:
            return np.full(self._max_lag + 1, np.nan)
        return amdf_profile(
            window,
            min(self._max_lag, window.size - 1),
            min_lag=self.config.min_lag,
        )

    def profile(self) -> np.ndarray:
        """Current ``d(m)`` profile (lag-indexed, ``nan`` below ``min_lag``).

        Derived from the incrementally maintained sums — no full-window
        recomputation (the :class:`~repro.core.engine.DetectorEngine`
        profile accessor).
        """
        return self._incremental_profile()

    def _incremental_profile(self) -> np.ndarray:
        """``d(m)`` derived from the incrementally maintained sums."""
        profile = np.full((1, self._max_lag + 1), np.nan, dtype=np.float64)
        return self._profile_rows(profile)[0]

    def _rebuild_sums(self) -> None:
        """Exact recompute of the AMDF sums (the only full-window pass);
        re-arms the exact-window skip as :meth:`_refresh_rows` says."""
        self._since_refresh = 0
        self._exact = bool(self._refresh_rows([0])[0])

    # ------------------------------------------------------------------
    # streaming update
    # ------------------------------------------------------------------
    def update(self, sample: float) -> DetectionResult:
        """Consume one sample and report the detection state."""
        sample = float(sample)
        if self._exact and not (
            sample.is_integer() and abs(sample) <= self._exact_bound
        ):
            self._exact = False
        self._samples_since_growth += 1
        self._col[0, 0] = sample
        self._advance_rows(self._col)

        if self._since_refresh >= self.config.refresh_interval:
            if self._exact:
                self._since_refresh = 0
            else:
                self._rebuild_sums()

        # --- evaluate the profile ----------------------------------------
        new_detection = False
        due = (self._index % self.config.evaluation_interval) == 0
        if due and self._evaluation_ready():
            candidate = self._evaluate()
            new_detection = self._lock.apply(candidate, self._index)
            if new_detection:
                self._maybe_shrink_window(self._lock.period)

        is_start = self._lock.is_period_start(self._index)
        return DetectionResult(
            index=self._index,
            period=self._lock.period,
            is_period_start=is_start,
            new_detection=new_detection,
            confidence=self._lock.confidence,
        )

    def update_batch(self, samples: Sequence[float] | np.ndarray) -> list[DetectionResult]:
        """Consume a batch of samples; one :class:`DetectionResult` each.

        Exactly equivalent to calling :meth:`update` in a loop (the batch
        ingestion path of the service layer).
        """
        arr = np.asarray(samples, dtype=np.float64).ravel()
        update = self.update
        return [update(sample) for sample in arr]

    # ------------------------------------------------------------------
    def _evaluate(self) -> PeriodCandidate | None:
        profile = self._incremental_profile()
        candidate = select_period(
            profile,
            min_lag=self.config.min_lag,
            min_depth=self.config.min_depth,
            harmonic_tolerance=self.config.harmonic_tolerance,
        )
        if candidate is None:
            return None
        if self._fill < self.config.min_repetitions * candidate.lag:
            return None
        return candidate

    def _maybe_shrink_window(self, period: int) -> None:
        policy = self.config.adaptive_window
        if policy is None:
            return
        new_size = policy.next_size_with_detection(period)
        if new_size != self._window_size:
            self.set_window_size(new_size)

    # ------------------------------------------------------------------
    # state serialisation (DetectorEngine protocol)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Complete detector state; reinstate with :meth:`restore`."""
        return self._snapshot_row(0, self._samples_since_growth, self._lock.snapshot())

    def restore(self, state: dict) -> None:
        """Reinstate a state produced by :meth:`snapshot`: adopt its
        window geometry and position, then read its row."""
        validate_snapshot(state, expected_kind="magnitude")
        self._allocate_rows(1, int(state["window_size"]), int(state["max_lag"]), 1)
        self._fill = int(state["fill"])
        self._head = int(state["head"])
        self._index = int(state["index"])
        self._lock.restore(self._restore_row(0, state))
        self._since_refresh = int(state["since_refresh"])
        self._samples_since_growth = int(state["samples_since_growth"])
        self._exact = False

    # ------------------------------------------------------------------
    def process(self, stream: Sequence[float] | np.ndarray) -> list[DetectionResult]:
        """Convenience: feed every sample of ``stream`` and collect results."""
        return self.update_batch(stream)

    def reset(self) -> None:
        """Forget all samples and detections; keep the configuration."""
        self.__init__(self.config)
