"""Tests for the structure-of-arrays lockstep bank (MagnitudeSoABank)."""

import numpy as np
import pytest

import _amdf_oracle as amdf_oracle
from repro.core.detector import DetectorConfig, DynamicPeriodicityDetector
from repro.core.window import AdaptiveWindowPolicy
from repro.service.soa import MagnitudeSoABank
from repro.traces.synthetic import noisy_periodic_signal, periodic_signal
from repro.util.validation import ValidationError


def oracle_sums(config, trace):
    return amdf_oracle.stream_sums(
        trace, config.window_size, config.effective_max_lag, config.refresh_interval
    )


def reference_starts(config, trace):
    det = DynamicPeriodicityDetector(config)
    return [
        (r.index, r.period, r.new_detection)
        for r in det.process(trace)
        if r.is_period_start and r.period
    ], det


class TestConstruction:
    def test_requires_streams(self):
        with pytest.raises(ValidationError):
            MagnitudeSoABank([], DetectorConfig())

    def test_requires_unique_ids(self):
        with pytest.raises(ValidationError):
            MagnitudeSoABank(["a", "a"], DetectorConfig())

    def test_rejects_adaptive_windows(self):
        config = DetectorConfig(adaptive_window=AdaptiveWindowPolicy())
        with pytest.raises(ValidationError):
            MagnitudeSoABank(["a"], config)

    def test_step_requires_one_sample_per_stream(self):
        bank = MagnitudeSoABank(["a", "b"], DetectorConfig(window_size=16))
        with pytest.raises(ValidationError):
            bank.step([1.0])


class TestEquivalence:
    @pytest.mark.parametrize(
        "config",
        [
            DetectorConfig(window_size=32),
            DetectorConfig(window_size=48, evaluation_interval=3, refresh_interval=11),
            DetectorConfig(window_size=24, max_lag=10, min_lag=2, min_fill=6),
        ],
    )
    def test_bank_equals_standalone_detectors(self, config, kernel_backend):
        rng = np.random.default_rng(5)
        traces = [
            noisy_periodic_signal(4, 200, noise_std=0.05, seed=1),
            periodic_signal(7, 200, seed=2),
            rng.normal(size=200),  # aperiodic
            np.zeros(200),  # degenerate constant stream
        ]
        matrix = np.stack(traces)
        bank = MagnitudeSoABank([f"s{i}" for i in range(len(traces))], config)
        raw = bank.process(matrix)

        for pos, trace in enumerate(traces):
            expected, det = reference_starts(config, trace)
            got = [(i, p, n) for (b, i, p, c, n) in raw if b == pos]
            assert got == expected, pos
            assert bank.current_period(pos) == det.current_period
            assert bank.detected_periods(pos) == det.detected_periods
            sums = bank.snapshot_stream(pos)["sums"]
            assert amdf_oracle.same_bits(sums, oracle_sums(config, trace)), pos

    def test_profiles_match_standalone(self):
        config = DetectorConfig(window_size=32, refresh_interval=13)
        trace = noisy_periodic_signal(5, 100, noise_std=0.1, seed=3)
        bank = MagnitudeSoABank(["only"], config)
        det = DynamicPeriodicityDetector(config)
        for value in trace:
            bank.step([value])
            det.update(value)
        np.testing.assert_allclose(
            bank.profiles()[0], det.profile(), atol=1e-9, equal_nan=True
        )

    def test_snapshot_handoff_resumes_identically(self):
        config = DetectorConfig(window_size=40, evaluation_interval=2)
        head = noisy_periodic_signal(6, 150, noise_std=0.05, seed=4)
        tail = noisy_periodic_signal(9, 150, noise_std=0.05, seed=5)
        bank = MagnitudeSoABank(["a"], config)
        reference = DynamicPeriodicityDetector(config)
        for value in head:
            bank.step([value])
            reference.update(value)

        engine = bank.to_engine(0)
        got = [(r.index, r.period, r.is_period_start) for r in engine.process(tail)]
        expected = [(r.index, r.period, r.is_period_start) for r in reference.process(tail)]
        assert got == expected

    def test_refresh_interval_cancels_drift(self):
        # Large magnitudes + frequent refresh: the incremental sums must
        # track the exact recompute across many refresh boundaries.
        config = DetectorConfig(window_size=32, refresh_interval=8)
        trace = 1e9 + noisy_periodic_signal(4, 300, noise_std=0.01, seed=6)
        bank = MagnitudeSoABank(["a"], config)
        det = DynamicPeriodicityDetector(config)
        for value in trace:
            bank.step([value])
            det.update(value)
        np.testing.assert_allclose(
            bank.snapshot_stream(0)["sums"], det.snapshot()["sums"], rtol=1e-9
        )


class TestChunkedProcess:
    """The chunked columnar hot loop must be bit-for-bit the per-step path."""

    @pytest.mark.parametrize(
        "config",
        [
            # chunk boundaries: eval 1 (degenerate chunks), eval > refresh,
            # refresh mid-eval-stride, max_lag well below the window.
            DetectorConfig(window_size=32, evaluation_interval=1, refresh_interval=7),
            DetectorConfig(window_size=40, evaluation_interval=16, refresh_interval=6),
            DetectorConfig(window_size=24, evaluation_interval=5, refresh_interval=256),
            DetectorConfig(window_size=48, max_lag=9, min_lag=3, evaluation_interval=4),
            DetectorConfig(window_size=16, evaluation_interval=3, loss_patience=1),
        ],
    )
    def test_process_equals_scalar_engines_exactly(self, config, kernel_backend):
        rng = np.random.default_rng(11)
        traces = [
            noisy_periodic_signal(5, 260, noise_std=0.05, seed=21),
            periodic_signal(9, 260, seed=22),
            rng.normal(size=260),
            np.zeros(260),
        ]
        bank = MagnitudeSoABank([f"s{i}" for i in range(len(traces))], config)
        raw = bank.process(np.stack(traces))
        for pos, trace in enumerate(traces):
            det = DynamicPeriodicityDetector(config)
            expected = [
                (r.index, r.period, r.confidence, r.new_detection)
                for r in det.process(trace)
                if r.is_period_start and r.period
            ]
            got = [(i, p, c, n) for (b, i, p, c, n) in raw if b == pos]
            assert got == expected, pos
            # State equality is exact, floats included: the chunked pass
            # applies the same per-step terms in the same order.
            snap_bank, snap_det = bank.snapshot_stream(pos), det.snapshot()
            assert np.array_equal(snap_bank["sums"], snap_det["sums"])
            assert np.array_equal(snap_bank["buffer"], snap_det["buffer"])
            assert snap_bank["lock"] == snap_det["lock"]
            assert snap_bank["since_refresh"] == snap_det["since_refresh"]
            expected_sums = oracle_sums(config, trace)
            assert amdf_oracle.same_bits(snap_bank["sums"], expected_sums), pos

    def test_step_and_process_interleave(self, kernel_backend):
        # Mixing the per-step compat path with chunked process() calls on
        # one bank must equal one straight per-step run.
        config = DetectorConfig(window_size=32, evaluation_interval=4, refresh_interval=19)
        trace = noisy_periodic_signal(6, 240, noise_std=0.1, seed=31)
        mixed = MagnitudeSoABank(["a"], config)
        events = []
        cursor = 0
        for span, use_step in ((50, True), (70, False), (1, True), (119, False)):
            block = trace[cursor : cursor + span]
            if use_step:
                for value in block:
                    index = mixed.samples_seen
                    events.extend(
                        (pos, index, p, c, n) for pos, p, c, n in mixed.step([value])
                    )
            else:
                events.extend(mixed.process(block[None, :]))
            cursor += span
        straight = MagnitudeSoABank(["a"], config)
        expected = straight.process(trace[None, :])
        assert events == expected
        assert np.array_equal(
            mixed.snapshot_stream(0)["sums"], straight.snapshot_stream(0)["sums"]
        )

    def test_a_fresh_bank_never_steps(self, monkeypatch):
        # process() advances a filling window in chunks too; step() is
        # only process() on one column, never the other way round.
        def no_step(self, values):
            raise AssertionError("process() called step()")

        monkeypatch.setattr(MagnitudeSoABank, "step", no_step)
        config = DetectorConfig(window_size=32, evaluation_interval=4)
        bank = MagnitudeSoABank(["a", "b"], config)
        trace = periodic_signal(5, 100, seed=3)
        assert bank.process(np.stack([trace, trace]))

    def test_profiles_returns_a_safe_copy(self):
        config = DetectorConfig(window_size=16)
        bank = MagnitudeSoABank(["a"], config)
        for value in periodic_signal(4, 40, seed=1):
            bank.step([value])
        first = bank.profiles()
        kept = first.copy()
        for value in periodic_signal(4, 8, seed=2):
            bank.step([value])
        bank.profiles()
        np.testing.assert_array_equal(first, kept)  # scratch reuse stays private
