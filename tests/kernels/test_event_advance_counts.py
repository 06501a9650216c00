"""The ``event_advance_counts`` kernel against the literal event oracle.

Every backend (through the ``kernel_backend`` fixture, so the CI
``kernels`` job covers numba) must report, for every step of a chunk,
the smallest lag ``tests/_event_oracle.py`` finds by recounting the
window, and must leave the counts the oracle recounts from the final
window.  The cases cover one-event chunks and chunks longer than the
window, chunks that cross ``fill == window``, ``max_lag < window - 1``,
``min_lag > 1``, ``min_repetitions`` from 1 to 4,
``require_full_window``, int64 extremes and wide blocks.  Both engines
must also hand the kernel the argument types :func:`repro.kernels.warmup`
compiles, so numba never compiles a second specialisation mid-ingest.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _event_oracle as oracle
from repro import kernels
from repro.core.events import EventDetectorConfig, EventPeriodicityDetector
from repro.service.event_soa import EventSoABank

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# A small alphabet makes exact repetitions likely; the extremes check
# that the comparisons stay exact at the ends of int64.
event = st.one_of(
    st.integers(min_value=0, max_value=2),
    st.sampled_from([INT64_MIN, INT64_MIN + 1, INT64_MAX - 1, INT64_MAX]),
)


@st.composite
def periodic_row(draw, size):
    """``size`` events: a short pattern repeated, with a few substitutions."""
    pattern = draw(st.lists(event, min_size=1, max_size=5))
    row = [pattern[i % len(pattern)] for i in range(size)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        if size:
            row[draw(st.integers(min_value=0, max_value=size - 1))] = draw(event)
    return row


@st.composite
def cases(draw, max_rows=3, max_window=16):
    window = draw(st.integers(min_value=2, max_value=max_window), label="window")
    max_lag = draw(st.integers(min_value=1, max_value=window - 1), label="max_lag")
    fill = draw(st.integers(min_value=0, max_value=window), label="fill")
    length = draw(st.integers(min_value=1, max_value=3 * window), label="length")
    rows = draw(st.integers(min_value=1, max_value=max_rows), label="rows")
    options = {
        "min_lag": draw(st.integers(min_value=1, max_value=window - 1)),
        "min_repetitions": draw(st.integers(min_value=1, max_value=4), label="reps"),
        "require_full_window": draw(st.booleans(), label="full"),
    }
    ext = [draw(periodic_row(fill + length)) for _ in range(rows)]
    return window, max_lag, fill, np.array(ext, dtype=np.int64), options


def run_kernel(window, max_lag, fill, ext, options):
    """The kernel on ``ext`` from oracle-counted starting state."""
    rows, width = ext.shape
    mismatches = np.array(
        [oracle.mismatch_counts(row[:fill], max_lag) for row in ext],
        dtype=np.int64,
    )
    out = np.full((rows, width - fill), -1, dtype=np.int64)
    kernels.event_advance_counts(
        ext,
        mismatches,
        out,
        fill,
        window,
        options["min_lag"],
        options["min_repetitions"],
        options["require_full_window"],
    )
    return out, mismatches


def assert_matches_oracle(window, max_lag, fill, ext, options):
    out, mismatches = run_kernel(window, max_lag, fill, ext, options)
    for row, got_fund, got_counts in zip(ext, out, mismatches):
        expected_fund, expected_counts = oracle.advance(
            row[:fill], row[fill:], window, max_lag, **options
        )
        assert got_fund.tolist() == expected_fund
        assert got_counts.tolist() == expected_counts


class TestKernelAgainstOracle:
    @SETTINGS
    @given(case=cases())
    def test_random_chunks(self, kernel_backend, case):
        assert_matches_oracle(*case)

    @SETTINGS
    @given(data=st.data())
    def test_chunk_crossing_the_full_window(self, kernel_backend, data):
        window, max_lag, _, _, options = data.draw(cases(max_rows=1))
        fill = data.draw(st.integers(min_value=0, max_value=window - 1))
        length = data.draw(
            st.integers(min_value=window - fill + 1, max_value=2 * window)
        )
        ext = np.array([data.draw(periodic_row(fill + length))], dtype=np.int64)
        assert_matches_oracle(window, max_lag, fill, ext, options)

    @pytest.mark.parametrize("fill", [0, 1, 7, 8])
    @pytest.mark.parametrize("length", [1, 3, 8, 20])
    @pytest.mark.parametrize("reps", [1, 2, 3, 4])
    def test_every_repetition_rule(self, kernel_backend, fill, length, reps):
        rng = np.random.default_rng(fill * 100 + length * 10 + reps)
        ext = np.tile([5, 9, 5, INT64_MIN], 8)[None, : fill + length].astype(np.int64)
        ext = np.concatenate((ext, rng.integers(0, 2, size=(1, fill + length))))
        for full in (False, True):
            options = {
                "min_lag": 2,
                "min_repetitions": reps,
                "require_full_window": full,
            }
            assert_matches_oracle(8, 5, fill, ext, options)

    @pytest.mark.parametrize("fill", [0, 5, 24])
    def test_wide_blocks(self, kernel_backend, fill):
        # Many rows of many lags, as a bank call has.
        rng = np.random.default_rng(fill)
        periods = rng.integers(1, 6, size=24)
        ext = np.array(
            [np.arange(fill + 30) % p for p in periods], dtype=np.int64
        )
        ext[rng.random(ext.shape) < 0.03] = INT64_MAX
        options = {"min_lag": 1, "min_repetitions": 2, "require_full_window": False}
        assert_matches_oracle(24, 23, fill, ext, options)

    def test_int64_extremes_stay_distinct(self, kernel_backend):
        # Neighbouring extremes collapse to one value through float64: a
        # body that compared in floating point would report lag 1.
        ext = np.array(
            [[INT64_MAX, INT64_MAX - 1] * 6, [INT64_MIN, INT64_MIN + 1] * 6],
            dtype=np.int64,
        )
        options = {"min_lag": 1, "min_repetitions": 2, "require_full_window": False}
        out, _ = run_kernel(8, 7, 0, ext, options)
        assert out.tolist() == [[0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2]] * 2
        assert_matches_oracle(8, 7, 0, ext, options)

    def test_registered_on_every_backend(self):
        assert "event_advance_counts" in kernels.KERNEL_NAMES
        assert "event_advance_counts" in kernels.__all__
        assert not hasattr(kernels, "event_step_mismatches")
        for name in ("numpy", "python"):
            module = kernels._load(name)
            assert callable(module.event_advance_counts)
            assert not hasattr(module, "event_step_mismatches")


def arg_types(args):
    """What a numba dispatcher specialises on: array dtype, rank and
    layout; scalar kind."""
    kinds = []
    for arg in args:
        if isinstance(arg, np.ndarray):
            kinds.append((arg.dtype.str, arg.ndim, arg.flags.c_contiguous))
        elif isinstance(arg, (bool, np.bool_)):
            kinds.append("bool")
        else:
            assert isinstance(arg, (int, np.integer)), type(arg)
            kinds.append("int64")
    return tuple(kinds)


def test_engines_call_with_the_warmup_signature(kernel_backend, monkeypatch):
    impl = kernels._resolve()
    seen = []
    kernel = impl.event_advance_counts

    def recording(*args):
        seen.append(arg_types(args))
        kernel(*args)

    monkeypatch.setattr(impl, "event_advance_counts", recording)
    monkeypatch.setattr(kernels, "_warmed", set())
    kernels.warmup()
    (compiled,) = seen
    config = EventDetectorConfig(window_size=8)
    stream = np.arange(40) % 3
    EventPeriodicityDetector(config).update_batch(stream)
    bank = EventSoABank(["a", "b", "c"], config)
    matrix = np.stack([stream, stream + 1, stream * 2])
    bank.process(matrix[:, :5])
    bank.process(matrix[:, 5:])
    bank.step(matrix[:, 0])
    assert len(seen) >= 4
    assert set(seen) == {compiled}
