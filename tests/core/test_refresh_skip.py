"""The exact-window skip of the refresh-interval recompute.

While every sample in the window since the last executed recompute is an
integer with ``|x| <= exact_sample_bound(N)``, the incremental AMDF sums
are exact and the recompute would rewrite the same bits, so the detector
skips it.  These tests hold the skipping detector to one that executes
every recompute (``AlwaysRefresh``, whose exact flag always reads False)
on the detection results and on every bit of the sums.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.detector as detector_module
from repro.core.detector import (
    DetectorConfig,
    DynamicPeriodicityDetector,
    exact_sample_bound,
)
from repro.core.engine import SNAPSHOT_VERSION


class AlwaysRefresh(DynamicPeriodicityDetector):
    """Executes the recompute at every refresh boundary."""

    _exact = property(lambda self: False, lambda self, value: None)


def config_for(window, refresh, **kwargs):
    return DetectorConfig(
        window_size=window, refresh_interval=refresh, min_fill=min(8, window), **kwargs
    )


def run(cls, config, stream):
    det = cls(config)
    results = det.process(np.asarray(stream, dtype=np.float64))
    return det, results


def assert_same_run(config, stream):
    skip, got = run(DynamicPeriodicityDetector, config, stream)
    forced, expected = run(AlwaysRefresh, config, stream)
    assert got == expected
    assert np.array_equal(skip._sums.view(np.int64), forced._sums.view(np.int64))
    assert skip.snapshot()["since_refresh"] == forced.snapshot()["since_refresh"]
    return skip


@pytest.fixture
def recompute_calls(monkeypatch):
    """Counts the recomputes the detector actually executes (the window
    length of each; ``AmdfRows._refresh_rows`` recomputes through the
    batch)."""
    calls = []
    real = detector_module.amdf_pair_sums_batch

    def counting(windows, max_lag=None):
        calls.append(windows.shape[1])
        return real(windows, max_lag)

    monkeypatch.setattr(detector_module, "amdf_pair_sums_batch", counting)
    return calls


@st.composite
def integer_streams(draw):
    window = draw(st.integers(min_value=2, max_value=40), label="window")
    refresh = draw(st.integers(min_value=1, max_value=12), label="refresh")
    bound = int(exact_sample_bound(window))
    value = st.one_of(
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=-bound, max_value=bound),
        # The edge of the exact range, and the first integers past it.
        st.sampled_from([bound, -bound, bound + 1, -(bound + 1), 4 * bound]),
    )
    stream = draw(st.lists(value, min_size=1, max_size=160), label="stream")
    return window, refresh, stream


class TestSkipEqualsExecuted:
    @settings(max_examples=150, deadline=None)
    @given(case=integer_streams())
    def test_integer_streams(self, case):
        window, refresh, stream = case
        assert_same_run(config_for(window, refresh), stream)

    @settings(max_examples=150, deadline=None)
    @given(
        window=st.integers(min_value=2, max_value=40),
        refresh=st.integers(min_value=1, max_value=12),
        stream=st.lists(
            st.one_of(
                st.integers(min_value=-1000, max_value=1000).map(float),
                st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
                st.sampled_from([0.5, -0.0, 1e9 + 0.25, 2.0**60]),
            ),
            min_size=1,
            max_size=160,
        ),
    )
    def test_streams_mixing_floats_and_integers(self, window, refresh, stream):
        assert_same_run(config_for(window, refresh), stream)

    def test_float_then_integer_stream_rearms_only_on_exact_window(self):
        # A recompute that executes while a float sample is still in the
        # window must not re-arm the skip: that sample's rounding comes
        # back when the incremental path evicts it.
        rng = np.random.default_rng(2)
        floats = 1e9 + rng.normal(0.0, 0.37, size=20)
        integers = rng.integers(-1000, 1000, size=200)
        assert_same_run(config_for(32, 8), np.concatenate((floats, integers)))

    @pytest.mark.parametrize("window", [2, 5, 64])
    def test_alternating_bound_extremes(self, window):
        # |x| at the bound with alternating signs drives the sums (and
        # the transient sum before each evict) up to 2**53.
        bound = float(int(exact_sample_bound(window)))
        stream = np.resize([bound, -bound, -bound, bound], 6 * window)
        assert_same_run(config_for(window, 3), stream)


class TestWhenTheRecomputeRuns:
    def test_integer_stream_never_recomputes(self, recompute_calls):
        stream = np.tile(np.arange(41) * 7 - 100, 30)
        det = assert_same_run(config_for(128, 16), stream)
        recompute_calls.clear()
        det.process(stream)
        assert recompute_calls == []

    def test_float_stream_recomputes_every_boundary(self, recompute_calls):
        stream = np.tile(np.arange(41) * 0.5, 4)
        run(DynamicPeriodicityDetector, config_for(64, 16), stream)
        assert len(recompute_calls) == stream.size // 16

    def test_rearms_once_the_floats_have_left(self, recompute_calls):
        config = config_for(16, 4)
        det = DynamicPeriodicityDetector(config)
        det.process([0.5])
        det.process(np.arange(15))
        # The float is still in the window at every boundary so far.
        assert len(recompute_calls) == 4
        det.process(np.arange(4))  # evicts it; this boundary re-arms
        det.process(np.arange(40))
        assert len(recompute_calls) == 5

    def test_set_window_size_always_recomputes(self, recompute_calls):
        det = DynamicPeriodicityDetector(config_for(64, 16))
        det.process(np.arange(100) % 9)
        assert recompute_calls == []
        det.set_window_size(32)
        assert recompute_calls == [32]
        forced = AlwaysRefresh(config_for(64, 16))
        forced.process(np.arange(100) % 9)
        forced.set_window_size(32)
        assert np.array_equal(det._sums, forced._sums)


class TestSnapshots:
    def test_flag_is_not_snapshotted(self):
        det = DynamicPeriodicityDetector(config_for(32, 8))
        det.process(np.arange(50) % 5)
        state = det.snapshot()
        assert state["version"] == SNAPSHOT_VERSION == 1
        assert not any("exact" in key for key in state)

    def test_restored_detector_recomputes_once_then_skips(self, recompute_calls):
        config = config_for(32, 8)
        stream = np.arange(200) % 6
        original = DynamicPeriodicityDetector(config)
        original.process(stream[:77])
        restored = DynamicPeriodicityDetector(config)
        restored.restore(original.snapshot())
        recompute_calls.clear()
        got = restored.process(stream[77:])
        assert len(recompute_calls) == 1
        assert got == original.process(stream[77:])
        assert np.array_equal(restored._sums, original._sums)
