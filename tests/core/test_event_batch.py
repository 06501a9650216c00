"""``EventPeriodicityDetector.update_batch`` against a loop over ``update``.

The batch path advances in chunks along time on the
``event_advance_counts`` kernel; the per-event path keeps its own slice
arithmetic.  Both share the lock state machine, and both must produce
the same ``DetectionResult`` list and the same state, through
``snapshot``/``restore`` and ``set_window_size`` between batches.  The
counts are also held to the literal oracle, so the two paths cannot
agree on a wrong answer.  Input conversion follows ``int(v)``, but a
batch that cannot be converted fails before any event is consumed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _event_oracle as oracle
from repro.core.events import EventDetectorConfig, EventPeriodicityDetector

INT64_MAX = 2**63 - 1


def assert_same_state(a: EventPeriodicityDetector, b: EventPeriodicityDetector):
    sa, sb = a.snapshot(), b.snapshot()
    assert sa.keys() == sb.keys()
    for key in sa:
        if isinstance(sa[key], np.ndarray):
            assert np.array_equal(sa[key], sb[key]), key
        else:
            assert sa[key] == sb[key], key


@st.composite
def configs(draw):
    window = draw(st.integers(min_value=3, max_value=24), label="window")
    max_lag = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=window - 1)))
    top = max_lag if max_lag is not None else window - 1
    return EventDetectorConfig(
        window_size=window,
        max_lag=max_lag,
        min_lag=draw(st.integers(min_value=1, max_value=top)),
        min_repetitions=draw(st.integers(min_value=1, max_value=4)),
        require_full_window=draw(st.booleans()),
        loss_patience=draw(st.integers(min_value=1, max_value=4)),
    )


@st.composite
def streams(draw):
    period = draw(st.integers(min_value=1, max_value=9))
    size = draw(st.integers(min_value=0, max_value=120))
    pattern = draw(st.lists(st.integers(0, 6), min_size=period, max_size=period))
    values = [pattern[i % period] for i in range(size)]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        if size:
            values[draw(st.integers(0, size - 1))] = draw(
                st.sampled_from([7, INT64_MAX, -INT64_MAX - 1])
            )
    return values


operation = st.one_of(
    st.tuples(st.just("batch"), st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("restore"), st.just(0)),
    st.tuples(st.just("resize"), st.integers(min_value=1, max_value=30)),
)


class TestBatchEqualsEventLoop:
    @settings(max_examples=200, deadline=None)
    @given(config=configs(), values=streams(), ops=st.lists(operation, max_size=12))
    def test_results_and_state(self, config, values, ops):
        loop = EventPeriodicityDetector(config)
        batch = EventPeriodicityDetector(config)
        pos = 0
        for kind, arg in ops + [("batch", len(values))]:
            if kind == "batch":
                chunk = values[pos : pos + arg]
                pos += len(chunk)
                expected = [loop.update(v) for v in chunk]
                assert batch.update_batch(np.array(chunk, dtype=np.int64)) == expected
            elif kind == "restore":
                # A fresh engine from the snapshot carries on identically.
                restored = EventPeriodicityDetector(config)
                restored.restore(batch.snapshot())
                batch = restored
            else:
                loop.set_window_size(arg)
                batch.set_window_size(arg)
            assert_same_state(loop, batch)
        # And the counts are the window's own, recounted literally.
        window = batch.window_values()
        top = batch.snapshot()["max_lag"]
        assert batch.snapshot()["mismatches"].tolist() == oracle.mismatch_counts(
            window, top
        )

    @pytest.mark.parametrize("size", [1, 63, 64, 65, 200])
    def test_one_batch_across_the_fill_boundary(self, size):
        rng = np.random.default_rng(size)
        values = np.tile(rng.integers(0, 50, size=7), 40)[:size]
        values[rng.random(size) < 0.05] = 99
        loop = EventPeriodicityDetector(window_size=64)
        batch = EventPeriodicityDetector(window_size=64)
        assert batch.update_batch(values) == [loop.update(v) for v in values]
        assert_same_state(loop, batch)

    def test_batches_longer_than_the_chunk_budget(self, monkeypatch):
        from repro import kernels

        monkeypatch.setattr(kernels, "CHUNK_BUDGET_ELEMENTS", 5 * 31)
        values = np.tile([3, 1, 4, 1, 5], 30)
        loop = EventPeriodicityDetector(window_size=32)
        batch = EventPeriodicityDetector(window_size=32)
        assert batch.update_batch(values) == [loop.update(v) for v in values]
        assert_same_state(loop, batch)


class TestInputParity:
    """``update_batch`` converts like ``int(v)`` but fails atomically."""

    def test_floats_truncate_like_int(self):
        floats = np.array([1.9, -1.9, 2.5, 1.0, -1.2, 2.99] * 6)
        loop = EventPeriodicityDetector(window_size=16)
        batch = EventPeriodicityDetector(window_size=16)
        expected = [loop.update(v) for v in floats]
        assert batch.update_batch(floats) == expected
        assert_same_state(loop, batch)
        assert batch.window_values().tolist() == [int(v) for v in floats[-16:]]

    def test_int64_edges_and_unsigned_in_range_are_accepted(self):
        values = [INT64_MAX, -INT64_MAX - 1] * 5
        loop = EventPeriodicityDetector(window_size=8)
        batch = EventPeriodicityDetector(window_size=8)
        assert batch.update_batch(values) == [loop.update(v) for v in values]
        unsigned = np.array([1, 2, INT64_MAX] * 4, dtype=np.uint64)
        assert batch.update_batch(unsigned) == [loop.update(v) for v in unsigned]
        assert_same_state(loop, batch)

    @pytest.mark.parametrize(
        "bad, error",
        [
            (np.nan, ValueError),
            (np.inf, OverflowError),
            (-np.inf, OverflowError),
            (2.0**63, OverflowError),
            (-(2.0**64), OverflowError),
        ],
    )
    def test_bad_float_raises_like_int_and_changes_nothing(self, bad, error):
        batch_values = np.array([1.0, 2.0, 3.0, bad, 4.0])
        self._check_atomic_failure(batch_values, error)

    def test_unsigned_beyond_int64_raises_overflow(self):
        batch_values = np.array([1, 2, 2**63, 3], dtype=np.uint64)
        self._check_atomic_failure(batch_values, OverflowError)

    def test_python_int_beyond_int64_raises_overflow(self):
        self._check_atomic_failure([1, 2, 2**64, 3], OverflowError)

    def test_first_bad_sample_decides_the_error(self):
        # int(v) on the samples in order would fail on the inf first.
        self._check_atomic_failure(np.array([1.0, np.inf, np.nan]), OverflowError)
        self._check_atomic_failure(np.array([1.0, np.nan, np.inf]), ValueError)

    @pytest.mark.parametrize("bad", [2**63, -(2**63) - 1, 2**64, 1e19])
    def test_single_update_out_of_range_changes_nothing(self, bad):
        det = EventPeriodicityDetector(window_size=8)
        det.update_batch([1, 2, 3] * 4)
        before = det.snapshot()
        with pytest.raises(OverflowError):
            det.update(bad)
        assert det.snapshot()["mismatches"].tolist() == before["mismatches"].tolist()
        assert det.samples_seen == before["index"] + 1
        # The pattern carries on as if the bad event never came.
        assert det.update(1).period == 3
        assert det.matched_lags()[0] == 3

    @staticmethod
    def _check_atomic_failure(batch_values, error):
        warm = [5, 6, 7] * 5
        loop = EventPeriodicityDetector(window_size=8)
        batch = EventPeriodicityDetector(window_size=8)
        loop.update_batch(warm)
        batch.update_batch(warm)
        before = batch.snapshot()
        # A loop over update raises the same exception type ...
        with pytest.raises(error):
            for v in batch_values:
                loop.update(v)
        # ... and the batch raises it without consuming any event.
        with pytest.raises(error):
            batch.update_batch(batch_values)
        after = batch.snapshot()
        for key in before:
            if isinstance(before[key], np.ndarray):
                assert np.array_equal(before[key], after[key]), key
            else:
                assert before[key] == after[key], key
