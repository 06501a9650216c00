"""Detector-level equivalence: the streaming DPD against the literal oracle.

``DynamicPeriodicityDetector`` selects through the batched kernel on a
one-row matrix.  Over whole streams — period changes, phase jumps,
noise, flat runs — its results must be exactly those of the same
detector selecting through the Python-loop reference of
``tests/_selection_oracle.py``: every period, period start, new
detection and confidence, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _amdf_oracle as amdf_oracle
import _selection_oracle as oracle
from repro import kernels
from repro.core import detector as detector_module
from repro.core.detector import (
    DetectorConfig,
    DynamicPeriodicityDetector,
    exact_sample_bound,
)
from repro.kernels import numpy_backend


def run(config, stream):
    det = DynamicPeriodicityDetector(config)
    return [
        (r.period, r.is_period_start, r.new_detection, float(r.confidence).hex())
        for r in det.update_batch(stream)
    ]


def run_with_oracle(config, stream):
    with pytest.MonkeyPatch.context() as mp:
        # The detector looks select_period up through its module global.
        mp.setattr(detector_module, "select_period", oracle.select_period)
        return run(config, stream)


def phase_jumping(pattern, length, jump_every, rng):
    """``pattern`` repeated, skipping ahead by a random phase every
    ``jump_every`` samples."""
    period = len(pattern)
    phase = 0
    out = np.empty(length)
    for i in range(length):
        if i and i % jump_every == 0:
            phase += int(rng.integers(1, period)) if period > 1 else 0
        out[i] = pattern[(i + phase) % period]
    return out


@st.composite
def streams(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    parts = []
    for _ in range(draw(st.integers(1, 4), label="segments")):
        length = draw(st.integers(8, 120), label="length")
        kind = draw(st.sampled_from(["periodic", "phase-jump", "flat"]), label="kind")
        if kind == "flat":
            parts.append(np.full(length, float(draw(st.integers(0, 3)))))
            continue
        pattern = draw(
            st.lists(st.integers(0, 5).map(float), min_size=2, max_size=24),
            label="pattern",
        )
        jump_every = (
            draw(st.integers(5, 60), label="jump_every")
            if kind == "phase-jump"
            else length
        )
        segment = phase_jumping(pattern, length, jump_every, rng)
        noise = draw(st.sampled_from([0.0, 0.05, 0.3]), label="noise")
        if noise:
            segment = segment + rng.normal(0.0, noise, length)
        parts.append(segment)
    return np.concatenate(parts)


class TestDetectorMatchesOracle:
    # kernel_backend only swaps the (stateless) kernel module, so it is
    # safe to share across hypothesis examples.
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        stream=streams(),
        window_size=st.integers(min_value=8, max_value=64),
        min_depth=st.sampled_from([0.1, 0.25, 0.5]),
    )
    def test_update_sequence_matches_oracle_detector(
        self, kernel_backend, stream, window_size, min_depth
    ):
        config = DetectorConfig(window_size=window_size, min_depth=min_depth)
        assert run(config, stream) == run_with_oracle(config, stream)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_running_sums_match_the_amdf_oracle(self, kernel_backend, data):
        # Filling and full windows, max_lag below window - 1, refresh
        # boundaries inside the fill, exact-integer runs (the recompute
        # skipped) and non-finite samples.
        window = data.draw(st.integers(min_value=2, max_value=24), label="window")
        max_lag = data.draw(st.integers(min_value=1, max_value=window - 1))
        refresh = data.draw(st.integers(min_value=1, max_value=40), label="refresh")
        bound = int(exact_sample_bound(window))
        sample = st.one_of(
            st.integers(min_value=-9, max_value=9).map(float),
            st.sampled_from([bound, -bound, bound + 1]).map(float),
            st.floats(min_value=-1e6, max_value=1e6),
            st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 5e-324]),
        )
        stream = data.draw(st.lists(sample, min_size=1, max_size=3 * window))
        config = DetectorConfig(
            window_size=window,
            max_lag=max_lag,
            refresh_interval=refresh,
            min_fill=min(8, window),
        )
        det = DynamicPeriodicityDetector(config)
        with np.errstate(invalid="ignore"):
            det.update_batch(stream)
        expected = amdf_oracle.stream_sums(stream, window, max_lag, refresh)
        assert amdf_oracle.same_bits(det.snapshot()["sums"], expected)

    def test_phase_jumps_reach_fast_path_b_and_the_slow_resolution(self, monkeypatch):
        # Noisy phase jumps leave competing minima: rows that fast path A
        # (the smallest qualifying lag wins) cannot settle.
        rng = np.random.default_rng(0)
        pattern = rng.integers(0, 6, size=12).astype(float)
        stream = phase_jumping(pattern, 600, 60, rng) + rng.normal(0.0, 0.3, 600)
        config = DetectorConfig(window_size=64)

        resolved = []
        best_candidate_index = numpy_backend.best_candidate_index

        def counting_best_candidate_index(*args):
            resolved.append(args[0].size)
            return best_candidate_index(*args)

        monkeypatch.setattr(
            numpy_backend, "best_candidate_index", counting_best_candidate_index
        )
        not_smallest = []

        def select_period(profile, **options):
            candidate = oracle.select_period(profile, **options)
            qualifying = [
                c.lag
                for c in oracle.find_local_minima(profile, min_lag=options["min_lag"])
                if c.depth >= options["min_depth"]
            ]
            if candidate is not None and candidate.lag != qualifying[0]:
                not_smallest.append(candidate.lag)
            return candidate

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detector_module, "select_period", select_period)
            expected = run(config, stream)
        previous = kernels.set_backend("numpy")
        try:
            assert run(config, stream) == expected
        finally:
            kernels.set_backend(previous)
        # Winners other than the smallest qualifying lag come from fast
        # path B or the slow resolution; more of them than slow calls
        # means B settled some.
        assert resolved
        assert len(not_smallest) > len(resolved)
