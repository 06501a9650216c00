"""Tests for the event-mode structure-of-arrays bank (EventSoABank).

Acceptance criterion of the sharding PR: event-mode lockstep through
``EventSoABank`` is bit-for-bit equivalent to standalone
``EventPeriodicityDetector`` instances — same locks, same detected
periods, same profiles.
"""

import tracemalloc

import numpy as np
import pytest

from repro import kernels
from repro.core.events import EventDetectorConfig, EventPeriodicityDetector
from repro.service.event_soa import EventSoABank
from repro.service.pool import DetectorPool, PoolConfig
from repro.traces.synthetic import repeat_pattern
from repro.util.validation import ValidationError


def event_trace(period: int, length: int, base: int) -> np.ndarray:
    return repeat_pattern(base + np.arange(period), length)


def reference_results(config, trace):
    # The per-event path: its slice arithmetic shares no code with the
    # chunk kernel the bank runs.
    det = EventPeriodicityDetector(config)
    starts = [
        (r.index, r.period, r.new_detection)
        for r in (det.update(int(v)) for v in trace)
        if r.is_period_start and r.period
    ]
    return starts, det


class TestConstruction:
    def test_requires_streams(self):
        with pytest.raises(ValidationError):
            EventSoABank([], EventDetectorConfig())

    def test_requires_unique_ids(self):
        with pytest.raises(ValidationError):
            EventSoABank(["a", "a"], EventDetectorConfig())

    def test_step_requires_one_event_per_stream(self):
        bank = EventSoABank(["a", "b"], EventDetectorConfig(window_size=16))
        with pytest.raises(ValidationError):
            bank.step([1])

    def test_process_requires_matching_matrix(self):
        bank = EventSoABank(["a"], EventDetectorConfig(window_size=16))
        with pytest.raises(ValidationError):
            bank.process(np.zeros((2, 10), dtype=np.int64))


class TestEquivalence:
    @pytest.mark.parametrize(
        "config",
        [
            EventDetectorConfig(window_size=32),
            EventDetectorConfig(window_size=48, max_lag=20, min_lag=2, min_repetitions=3),
            EventDetectorConfig(window_size=24, require_full_window=True, loss_patience=2),
            EventDetectorConfig(window_size=40, loss_patience=1),
        ],
    )
    def test_bank_equals_standalone_detectors(self, config):
        rng = np.random.default_rng(7)
        traces = [
            event_trace(4, 220, base=100),           # simple periodic
            repeat_pattern(np.array([7, 7, 9]), 220),  # repeated values inside the period
            rng.integers(0, 40, size=220),           # aperiodic
            np.full(220, 42),                        # constant (period 1)
            np.concatenate(                          # lock, lose, re-lock
                [
                    event_trace(5, 80, base=0),
                    rng.integers(1000, 2000, size=60),
                    event_trace(3, 80, base=500),
                ]
            ),
        ]
        matrix = np.stack([np.asarray(t, dtype=np.int64) for t in traces])
        bank = EventSoABank([f"s{i}" for i in range(len(traces))], config)
        raw = bank.process(matrix)

        for pos, trace in enumerate(traces):
            expected, det = reference_results(config, trace)
            got = [(i, p, n) for (b, i, p, c, n) in raw if b == pos]
            assert got == expected, pos
            assert bank.current_period(pos) == det.current_period
            assert bank.detected_periods(pos) == det.detected_periods
            np.testing.assert_array_equal(bank.profiles()[pos], det.profile())

    def test_snapshot_matches_standalone_exactly(self):
        config = EventDetectorConfig(window_size=32)
        trace = event_trace(6, 150, base=10)
        bank = EventSoABank(["only"], config)
        det = EventPeriodicityDetector(config)
        for value in trace:
            bank.step([value])
            det.update(int(value))
        ours, theirs = bank.snapshot_stream(0), det.snapshot()
        assert set(ours) == set(theirs)
        for key, expected in theirs.items():
            if isinstance(expected, np.ndarray):
                np.testing.assert_array_equal(ours[key], expected, err_msg=key)
            else:
                assert ours[key] == expected, key

    def test_snapshot_handoff_resumes_identically(self):
        config = EventDetectorConfig(window_size=40)
        head = event_trace(6, 130, base=0)
        tail = event_trace(9, 130, base=50)
        bank = EventSoABank(["a"], config)
        reference = EventPeriodicityDetector(config)
        for value in head:
            bank.step([value])
            reference.update(int(value))

        engine = bank.to_engine(0)
        got = [(r.index, r.period, r.is_period_start) for r in engine.process(tail)]
        expected = [(r.index, r.period, r.is_period_start) for r in reference.process(tail)]
        assert got == expected

    def test_confidence_is_binary_like_standalone(self):
        config = EventDetectorConfig(window_size=24)
        bank = EventSoABank(["a"], config)
        confidences = set()
        for value in event_trace(3, 90, base=1):
            for (_, _, confidence, _) in bank.step([value]):
                confidences.add(confidence)
        assert confidences <= {1.0}


class TestBoundedChunks:
    def test_lockstep_fleet_scratch_stays_within_the_chunk_budget(self, monkeypatch):
        """1000 streams x 1000 events through ``ingest_lockstep``: every
        chunk's allocations (ring read, kernel, fundamentals) stay
        within the shared budget (at 8 bytes per budget element), and
        the events equal per-stream engines bit for bit."""
        rng = np.random.default_rng(11)
        streams, length = 1000, 1000
        traces = {}
        for i in range(streams):
            period = int(rng.integers(2, 20))
            trace = event_trace(period, length, base=100 * i)
            noisy = rng.random(length) < 0.01
            trace[noisy] = rng.integers(0, 10**6, size=int(noisy.sum()))
            traces[f"s{i}"] = trace.astype(np.int64)

        calls = []
        real = EventSoABank._advance_counts

        def traced(bank, cols):
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            fundamentals = real(bank, cols)
            _, peak = tracemalloc.get_traced_memory()
            calls.append(peak - before)
            return fundamentals

        monkeypatch.setattr(EventSoABank, "_advance_counts", traced)
        pool = DetectorPool(PoolConfig(mode="event", window_size=64))
        tracemalloc.start()
        try:
            events = pool.ingest_lockstep(traces)
        finally:
            tracemalloc.stop()
        assert pool.stats().lockstep_backend == "soa"
        assert len(calls) > 1  # the 1000 columns really ran in chunks
        budget_bytes = 8 * kernels.CHUNK_BUDGET_ELEMENTS
        assert max(calls) <= budget_bytes

        monkeypatch.setattr(EventSoABank, "_advance_counts", real)
        config = pool.config.resolved_config()
        got: dict[str, list] = {sid: [] for sid in traces}
        for event in events:
            got[event.stream_id].append(
                (event.index, event.period, event.confidence, event.new_detection)
            )
        for sid, trace in traces.items():
            det = EventPeriodicityDetector(config)
            expected = [
                (r.index, r.period, r.confidence, r.new_detection)
                for r in det.update_batch(trace)
                if r.is_period_start and r.period
            ]
            assert got[sid] == expected, sid
