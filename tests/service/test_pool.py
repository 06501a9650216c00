"""Tests for the multi-stream detection service (DetectorPool)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.detector import DetectorConfig, DynamicPeriodicityDetector
from repro.core.events import EventDetectorConfig, EventPeriodicityDetector
from repro.service.events import PeriodStartEvent, PoolStats
from repro.service.pool import DetectorPool, PoolConfig
from repro.traces.synthetic import noisy_periodic_signal, periodic_signal, repeat_pattern
from repro.util.validation import ValidationError


def event_trace(period: int, length: int, base: int) -> np.ndarray:
    return repeat_pattern(base + np.arange(period), length)


class TestPoolConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValidationError):
            PoolConfig(mode="spectral")

    def test_rejects_mismatched_override_configs(self):
        with pytest.raises(ValidationError):
            PoolConfig(mode="event", detector_config=DetectorConfig())
        with pytest.raises(ValidationError):
            PoolConfig(mode="magnitude", event_config=EventDetectorConfig())

    def test_kwargs_shorthand(self):
        pool = DetectorPool(mode="event", window_size=32)
        assert pool.config.window_size == 32
        with pytest.raises(ValidationError):
            DetectorPool(PoolConfig(), mode="event")


class TestIngestion:
    def test_streams_created_on_first_use(self):
        pool = DetectorPool(PoolConfig(mode="event", window_size=32))
        assert "a" not in pool
        pool.ingest("a", [1, 2, 3] * 6)
        assert "a" in pool and len(pool) == 1
        assert pool.current_period("a") == 3

    def test_events_match_standalone_detector(self):
        pool = DetectorPool(PoolConfig(mode="event", window_size=64))
        trace = event_trace(5, 200, base=100)
        events = []
        for offset in range(0, 200, 17):  # ragged batches
            events.extend(pool.ingest("app", trace[offset : offset + 17]))

        reference = EventPeriodicityDetector(EventDetectorConfig(window_size=64))
        expected = [
            (r.index, r.period)
            for r in reference.process(trace)
            if r.is_period_start and r.period
        ]
        assert [(e.index, e.period) for e in events] == expected
        assert all(isinstance(e, PeriodStartEvent) for e in events)
        assert all(e.stream_id == "app" for e in events)

    def test_interleaved_streams_are_independent(self):
        pool = DetectorPool(PoolConfig(mode="event", window_size=64))
        traces = {f"s{i}": event_trace(3 + i, 120, base=1000 * i) for i in range(5)}
        for offset in range(0, 120, 10):
            for sid, trace in traces.items():
                pool.ingest(sid, trace[offset : offset + 10])
        for i in range(5):
            assert pool.current_period(f"s{i}") == 3 + i

    def test_magnitude_mode(self):
        pool = DetectorPool(PoolConfig(mode="magnitude", window_size=64))
        pool.ingest("m", noisy_periodic_signal(6, 256, noise_std=0.02, seed=0))
        assert pool.current_period("m") == 6


class TestLockstep:
    def test_soa_path_equals_engine_path(self):
        cfg = DetectorConfig(window_size=48, evaluation_interval=2, refresh_interval=31)
        traces = {
            f"s{i}": noisy_periodic_signal(3 + i % 7, 300, noise_std=0.03, seed=i)
            for i in range(12)
        }
        fast = DetectorPool(PoolConfig(mode="magnitude", detector_config=cfg))
        fast_events = fast.ingest_lockstep(traces)

        slow = DetectorPool(PoolConfig(mode="magnitude", detector_config=cfg))
        slow_events = []
        for sid, trace in traces.items():
            slow_events.extend(slow.ingest(sid, trace))

        assert sorted(
            [(e.stream_id, e.index, e.period) for e in fast_events]
        ) == sorted([(e.stream_id, e.index, e.period) for e in slow_events])
        for sid in traces:
            assert fast.current_period(sid) == slow.current_period(sid)

    def test_streams_continue_after_lockstep_handoff(self):
        cfg = DetectorConfig(window_size=48)
        # soa_min_streams=1 forces the bank even for this tiny fleet, so
        # the hand-off path stays exercised.
        pool = DetectorPool(
            PoolConfig(mode="magnitude", detector_config=cfg, soa_min_streams=1)
        )
        first = periodic_signal(5, 200, seed=1)
        second = periodic_signal(5, 100, seed=1)
        pool.ingest_lockstep({"a": first, "b": first})
        assert pool.stats().lockstep_backend == "soa"
        events = pool.ingest("a", second)  # per-stream ingest after the hand-off

        reference = DynamicPeriodicityDetector(cfg)
        reference.process(np.concatenate([first, second]))
        assert pool.current_period("a") == reference.current_period
        assert pool.stream_stats("a").samples == 300

    def test_small_fleet_stays_per_stream(self):
        # Below the measured crossover the SoA bank loses to per-stream
        # engines, so a two-stream lockstep call must not use it — and the
        # chosen backend must be visible in the stats.
        pool = DetectorPool(PoolConfig(mode="event", window_size=32))
        traces = {"a": event_trace(3, 60, 0), "b": event_trace(4, 60, 50)}
        pool.ingest_lockstep(traces)
        assert pool.stats().lockstep_backend == "per-stream"
        assert pool.current_period("a") == 3
        assert pool.current_period("b") == 4

    def test_event_lockstep_uses_event_bank_above_crossover(self):
        traces = {f"s{i}": event_trace(3 + i % 5, 120, 100 * i) for i in range(8)}
        fast = DetectorPool(PoolConfig(mode="event", window_size=48))
        fast_events = fast.ingest_lockstep(traces)
        assert fast.stats().lockstep_backend == "soa"

        slow = DetectorPool(PoolConfig(mode="event", window_size=48))
        slow_events = []
        for sid, trace in traces.items():
            slow_events.extend(slow.ingest(sid, trace))
        assert sorted(
            (e.stream_id, e.index, e.period, e.new_detection) for e in fast_events
        ) == sorted(
            (e.stream_id, e.index, e.period, e.new_detection) for e in slow_events
        )
        for sid in traces:
            assert fast.current_period(sid) == slow.current_period(sid)

    def test_backend_choice_is_logged_once(self, caplog):
        import logging

        traces = {f"s{i}": event_trace(3, 60, 10 * i) for i in range(6)}
        pool = DetectorPool(PoolConfig(mode="event", window_size=32))
        with caplog.at_level(logging.INFO, logger="repro.service.pool"):
            pool.ingest_lockstep({k: v for k, v in list(traces.items())[:6]})
            pool.ingest_lockstep({f"t{i}": event_trace(4, 60, 7 * i) for i in range(6)})
        messages = [r.message for r in caplog.records if "lockstep backend" in r.message]
        assert len(messages) == 1 and "soa" in messages[0]

    def test_unequal_lengths_rejected(self):
        pool = DetectorPool(PoolConfig(mode="magnitude"))
        with pytest.raises(ValidationError):
            pool.ingest_lockstep({"a": [1.0, 2.0], "b": [1.0]})

    def test_thousand_concurrent_streams_lock_their_periods(self):
        """Acceptance: 1000 lockstep streams == 1000 standalone detectors."""
        cfg = DetectorConfig(window_size=64, evaluation_interval=8)
        streams = 1000
        periods = [3 + (i % 14) for i in range(streams)]
        traces = {
            f"s{i:04d}": periodic_signal(periods[i], 192, seed=i)
            for i in range(streams)
        }
        pool = DetectorPool(PoolConfig(mode="magnitude", detector_config=cfg))
        pool.ingest_lockstep(traces)
        stats = pool.stats()
        assert stats.streams == streams
        assert stats.total_samples == streams * 192
        mismatches = [
            (sid, pool.current_period(sid), periods[i])
            for i, sid in enumerate(traces)
            if pool.current_period(sid) != periods[i]
        ]
        assert not mismatches, mismatches[:5]
        # Spot-check exact equality with standalone detectors.
        for i in (0, 499, 999):
            sid = f"s{i:04d}"
            reference = DynamicPeriodicityDetector(cfg)
            reference.process(traces[sid])
            assert pool.current_period(sid) == reference.current_period
            np.testing.assert_allclose(
                pool.engine(sid).snapshot()["sums"], reference.snapshot()["sums"],
                atol=1e-9,
            )


class TestEvictionAndStats:
    def test_lru_eviction(self):
        pool = DetectorPool(PoolConfig(mode="event", window_size=16, max_streams=2))
        pool.ingest("a", [1, 2] * 4)
        pool.ingest("b", [1, 2] * 4)
        pool.ingest("a", [1, 2])  # refresh a; b becomes least recently used
        pool.ingest("c", [1, 2] * 4)
        assert "b" not in pool and "a" in pool and "c" in pool
        assert pool.stats().evicted == 1

    def test_remove_stream(self):
        pool = DetectorPool(PoolConfig(mode="event", window_size=16))
        pool.ingest("a", [1, 2, 3])
        assert pool.remove_stream("a") is True
        assert pool.remove_stream("a") is False
        assert pool.current_period("a") is None

    def test_stats_counters(self):
        pool = DetectorPool(PoolConfig(mode="event", window_size=32))
        events = pool.ingest("a", event_trace(3, 90, 0))
        stats = pool.stats()
        assert stats.total_samples == 90
        assert stats.total_events == len(events) > 0
        assert stats.locked_streams == 1
        per_stream = pool.stream_stats("a")
        assert per_stream.samples == 90
        assert per_stream.events == len(events)
        assert per_stream.current_period == 3
        assert 3 in per_stream.detected_periods


class TestRegressions:
    def test_event_lockstep_preserves_large_identifiers(self):
        # Event identifiers above 2**53 must not be corrupted by a float64
        # round-trip on the lockstep fallback path.
        trace = [7, 2**53, 7, 2**53 + 1] * 16  # true period 4
        direct = DetectorPool(PoolConfig(mode="event", window_size=32))
        direct.ingest("s", trace)
        lockstep = DetectorPool(PoolConfig(mode="event", window_size=32))
        lockstep.ingest_lockstep({"s": trace})
        assert direct.current_period("s") == 4
        assert lockstep.current_period("s") == 4

    def test_event_bank_rejected_for_lossy_identifiers(self):
        # Values that do not round-trip through int64 exactly (here:
        # non-integral floats, which the per-stream engines truncate) must
        # push even a large fleet onto the dtype-preserving fallback.
        traces = {f"s{i}": [1.5, 2.5, 3.5] * 20 for i in range(8)}
        pool = DetectorPool(PoolConfig(mode="event", window_size=32))
        pool.ingest_lockstep(traces)
        assert pool.stats().lockstep_backend == "per-stream"
        for sid in traces:
            assert pool.current_period(sid) == 3

    def test_ingest_one_matches_ingest(self):
        trace = event_trace(5, 120, base=3)
        a = DetectorPool(PoolConfig(mode="event", window_size=64))
        b = DetectorPool(PoolConfig(mode="event", window_size=64))
        batched = a.ingest("s", trace)
        singles = [e for v in trace if (e := b.ingest_one("s", int(v))) is not None]
        assert [(e.index, e.period) for e in singles] == [
            (e.index, e.period) for e in batched
        ]
        assert a.stats() == b.stats()

    def test_pool_backed_interface_survives_eviction(self):
        from repro.core.api import DPDInterface

        pool = DetectorPool(PoolConfig(mode="event", window_size=256, max_streams=2))
        iface = DPDInterface(64, mode="event", pool=pool, stream_id="mine")
        iface.dpd(1)
        pool.ingest("other-1", [1, 2] * 8)
        pool.ingest("other-2", [1, 2] * 8)  # evicts "mine"
        assert "mine" not in pool
        # Continue the phase started by the pre-eviction dpd(1) call so the
        # whole window stays exactly periodic with period 3.
        for v in [2, 3, 1] * 12:
            iface.dpd(v)
        # The interface re-registered its own engine: same object, same
        # configuration, detection state carried across the eviction.
        assert pool.engine("mine") is iface.detector
        assert iface.detector.window_size == 64
        assert iface.current_period == 3
        assert pool.current_period("mine") == 3


def test_pool_stats_merge_sums_counters_and_labels_agreement():
    part = PoolStats(
        streams=2,
        created=3,
        evicted=1,
        total_samples=10,
        total_events=4,
        locked_streams=1,
        mode="event",
        lockstep_backend="soa",
        kernel_backend="numpy",
    )
    other = replace(part, lockstep_backend=None, kernel_backend="numba")
    assert PoolStats.merge([part, other]) == PoolStats(
        4, 6, 2, 20, 8, 2, "event", "soa", "mixed"
    )
    assert PoolStats.merge([]) == PoolStats(0, 0, 0, 0, 0, 0, None, None, None)
