"""The streaming Dynamic Periodicity Detector for sampled magnitude streams.

:class:`DynamicPeriodicityDetector` consumes one sample per call (exactly
like the ``int DPD(long sample, int *period)`` interface of Table 1) and
maintains:

* a sliding data window of the last ``N`` samples,
* an incrementally updated distance profile ``d(m)`` (equation (1)),
* the currently *locked* period together with its phase anchor, so that
  the detector can report the start of every period instance (the
  segmentation used by the SelfAnalyzer).

The incremental profile update costs O(M) per sample (a handful of
vectorised NumPy operations over contiguous slices of the ring buffer —
the steady-state path never materialises the full data window), which is
what makes the detector cheap enough to run inside a live application
(Table 3 of the paper measures exactly this per-sample cost).  The only
full-window pass is the exact recompute every ``refresh_interval`` samples
that cancels floating-point drift.

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
from repro.core.distance import amdf_pair_sums, amdf_profile
from repro.core.engine import DetectionResult, LockTracker, tag_snapshot, validate_snapshot
from repro.core.minima import PeriodCandidate, select_period
from repro.core.window import AdaptiveWindowPolicy
from repro.util.validation import ValidationError, check_in_range, check_positive_int

__all__ = ["DetectionResult", "DetectorConfig", "DynamicPeriodicityDetector"]


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
        this many samples to cancel floating-point drift.
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


class DynamicPeriodicityDetector:
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
        self._window_size = config.window_size
        self._max_lag = config.effective_max_lag
        self._buffer = np.zeros(self._window_size, dtype=np.float64)
        self._fill = 0
        self._head = 0  # next write slot
        self._index = -1  # index of the last consumed sample
        # Incremental AMDF state: sums[m] is the running sum of |x[n]-x[n-m]|
        # over the pairs currently inside the window.
        self._sums = np.zeros(self._max_lag + 1, dtype=np.float64)
        self._since_refresh = 0
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
    def samples_seen(self) -> int:
        """Total number of samples processed."""
        return self._index + 1

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
        self._window_size = size
        self._max_lag = min(self.config.effective_max_lag, size - 1)
        self._buffer = np.zeros(size, dtype=np.float64)
        self._fill = kept.size
        self._buffer[: kept.size] = kept
        self._head = kept.size % size
        self._rebuild_sums()

    def window_values(self) -> np.ndarray:
        """Samples currently in the window, oldest first."""
        if self._fill < self._window_size:
            return self._buffer[: self._fill].copy()
        return np.concatenate((self._buffer[self._head :], self._buffer[: self._head]))

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
        profile = np.full(self._max_lag + 1, np.nan, dtype=np.float64)
        fill = self._fill
        lags = np.arange(self.config.min_lag, min(self._max_lag, fill - 1) + 1)
        if lags.size == 0:
            return profile
        pairs = fill - lags
        profile[lags] = self._sums[lags] / pairs
        return profile

    def _rebuild_sums(self) -> None:
        """Exact recompute of the AMDF sums (the only full-window pass)."""
        window = self.window_values()
        self._sums = np.zeros(self._max_lag + 1, dtype=np.float64)
        top = min(self._max_lag, window.size - 1)
        if top >= 1:
            self._sums[: top + 1] = amdf_pair_sums(window, top)
        self._since_refresh = 0

    # ------------------------------------------------------------------
    # streaming update
    # ------------------------------------------------------------------
    def update(self, sample: float) -> DetectionResult:
        """Consume one sample and report the detection state."""
        sample = float(sample)
        self._index += 1
        self._samples_since_growth += 1

        # --- maintain the incremental AMDF sums -------------------------
        # All reads below are contiguous slices of the ring buffer (views,
        # no full-window copy).  The last ``m`` samples in reverse
        # chronological order occupy slots head-1, head-2, ... head-m
        # (mod N); the pairs evicted with the oldest sample pair it with
        # slots head+1 ... head+m (mod N).
        buf = self._buffer
        head = self._head
        fill = self._fill
        sums = self._sums
        if fill:
            m = min(self._max_lag, fill)
            if m <= head:
                sums[1 : m + 1] += np.abs(sample - buf[head - m : head][::-1])
            else:
                if head:
                    sums[1 : head + 1] += np.abs(sample - buf[head - 1 :: -1])
                tail = m - head
                sums[head + 1 : m + 1] += np.abs(sample - buf[-1 : -tail - 1 : -1])
        if fill == self._window_size:
            evicted = buf[head]
            m = min(self._max_lag, fill - 1)
            first = min(m, fill - 1 - head)
            if first:
                sums[1 : first + 1] -= np.abs(buf[head + 1 : head + 1 + first] - evicted)
            if m > first:
                sums[first + 1 : m + 1] -= np.abs(buf[: m - first] - evicted)

        # --- store the sample -------------------------------------------
        buf[head] = sample
        self._head = (head + 1) % self._window_size
        if fill < self._window_size:
            self._fill = fill + 1

        self._since_refresh += 1
        if self._since_refresh >= self.config.refresh_interval:
            self._rebuild_sums()

        # --- evaluate the profile ----------------------------------------
        new_detection = False
        ready = self._fill >= max(
            2 * self.config.min_lag, min(self.config.min_fill, self._window_size)
        )
        if (self._index % self.config.evaluation_interval) == 0 and ready:
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
        return tag_snapshot({
            "kind": "magnitude",
            "window_size": self._window_size,
            "max_lag": self._max_lag,
            "buffer": self._buffer.copy(),
            "fill": self._fill,
            "head": self._head,
            "index": self._index,
            "sums": self._sums.copy(),
            "since_refresh": self._since_refresh,
            "samples_since_growth": self._samples_since_growth,
            "lock": self._lock.snapshot(),
        })

    def restore(self, state: dict) -> None:
        """Reinstate a state produced by :meth:`snapshot`."""
        validate_snapshot(state, expected_kind="magnitude")
        self._window_size = int(state["window_size"])
        self._max_lag = int(state["max_lag"])
        self._buffer = np.array(state["buffer"], dtype=np.float64, copy=True)
        self._fill = int(state["fill"])
        self._head = int(state["head"])
        self._index = int(state["index"])
        self._sums = np.array(state["sums"], dtype=np.float64, copy=True)
        self._since_refresh = int(state["since_refresh"])
        self._samples_since_growth = int(state["samples_since_growth"])
        self._lock.restore(state["lock"])

    # ------------------------------------------------------------------
    def process(self, stream: Sequence[float] | np.ndarray) -> list[DetectionResult]:
        """Convenience: feed every sample of ``stream`` and collect results."""
        return self.update_batch(stream)

    def reset(self) -> None:
        """Forget all samples and detections; keep the configuration."""
        self.__init__(self.config)
