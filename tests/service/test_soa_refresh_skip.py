"""The bank's per-row exact-window skip of the refresh recompute.

Each row keeps its own exact flag; at a refresh boundary only the rows
whose flag is clear are recomputed.  A fleet where one row turns float
mid-run must still equal per-stream engines bit for bit, through both
``step`` and the chunked ``process``.
"""

import numpy as np
import pytest

import _amdf_oracle as amdf_oracle
import repro.core.detector as detector_module
from repro.core.detector import DetectorConfig, DynamicPeriodicityDetector
from repro.service.soa import MagnitudeSoABank


class AlwaysRefreshBank(MagnitudeSoABank):
    """Recomputes every row at every refresh boundary."""

    _exact = property(
        lambda self: np.zeros(self.streams, dtype=bool), lambda self, value: None
    )


CONFIG = DetectorConfig(window_size=32, evaluation_interval=4, refresh_interval=7)


def fleet(samples=300, float_row=2, turns_float_at=150):
    """Integer streams of periods 3..7; one row turns float mid-run."""
    rng = np.random.default_rng(9)
    rows = [np.resize(rng.integers(-500, 500, size=p), samples) for p in range(3, 8)]
    matrix = np.stack(rows).astype(np.float64)
    noise = rng.normal(0.0, 0.3, size=samples - turns_float_at)
    matrix[float_row, turns_float_at:] += noise
    return matrix


def engine_run(config, trace):
    det = DynamicPeriodicityDetector(config)
    starts = [
        (r.index, r.period, r.confidence, r.new_detection)
        for r in det.process(trace)
        if r.is_period_start and r.period
    ]
    return starts, det


def assert_bank_equals_engines(bank, raw, matrix, config):
    for pos, trace in enumerate(matrix):
        expected, det = engine_run(config, trace)
        assert [(i, p, c, n) for (b, i, p, c, n) in raw if b == pos] == expected, pos
        snap_bank, snap_det = bank.snapshot_stream(pos), det.snapshot()
        assert bits(snap_bank["sums"]) == bits(snap_det["sums"])
        assert snap_bank["since_refresh"] == snap_det["since_refresh"]
        assert snap_bank["lock"] == snap_det["lock"]
        expected = amdf_oracle.stream_sums(
            trace, config.window_size, config.effective_max_lag, config.refresh_interval
        )
        assert amdf_oracle.same_bits(snap_bank["sums"], expected), pos


def bits(array):
    return np.asarray(array, dtype=np.float64).view(np.int64).tolist()


def step_all(bank, matrix):
    raw = []
    for t in range(matrix.shape[1]):
        raw.extend((pos, t, p, c, n) for pos, p, c, n in bank.step(matrix[:, t]))
    return raw


@pytest.fixture
def recomputed_rows(monkeypatch):
    """Row counts of the recomputes the bank actually executes (through
    ``AmdfRows._refresh_rows``, the detector module's one refresh)."""
    calls = []
    real = detector_module.amdf_pair_sums_batch

    def counting(windows, max_lag=None):
        calls.append(windows.shape[0])
        return real(windows, max_lag)

    monkeypatch.setattr(detector_module, "amdf_pair_sums_batch", counting)
    return calls


class TestOneRowTurnsFloat:
    def test_process_equals_engines(self, kernel_backend):
        matrix = fleet()
        bank = MagnitudeSoABank([f"s{i}" for i in range(5)], CONFIG)
        raw = bank.process(matrix)
        assert_bank_equals_engines(bank, raw, matrix, CONFIG)

    def test_step_equals_engines(self):
        matrix = fleet()
        bank = MagnitudeSoABank([f"s{i}" for i in range(5)], CONFIG)
        raw = step_all(bank, matrix)
        assert_bank_equals_engines(bank, raw, matrix, CONFIG)

    @pytest.mark.parametrize("chunked", [True, False])
    def test_skip_equals_forced_recompute(self, chunked):
        matrix = fleet()
        ids = [f"s{i}" for i in range(5)]
        skip, forced = MagnitudeSoABank(ids, CONFIG), AlwaysRefreshBank(ids, CONFIG)
        if chunked:
            assert skip.process(matrix) == forced.process(matrix)
        else:
            assert step_all(skip, matrix) == step_all(forced, matrix)
        assert bits(skip._sums) == bits(forced._sums)

    def test_only_the_float_row_is_recomputed(self, recomputed_rows):
        matrix = fleet(samples=300, turns_float_at=150)
        bank = MagnitudeSoABank([f"s{i}" for i in range(5)], CONFIG)
        bank.process(matrix[:, :150])
        assert recomputed_rows == []
        bank.process(matrix[:, 150:])
        assert recomputed_rows and set(recomputed_rows) == {1}


class TestFloatBurstThenIntegers:
    """The detector's float-then-integer counterexample, on a bank row."""

    CONFIG = DetectorConfig(window_size=32, refresh_interval=8)

    def matrix(self):
        rng = np.random.default_rng(2)
        floats = 1e9 + rng.normal(0.0, 0.37, size=20)
        burst = np.concatenate((floats, rng.integers(-1000, 1000, size=200)))
        steady = np.resize(np.arange(6, dtype=np.float64), burst.size)
        return np.stack((burst, steady))

    @pytest.mark.parametrize("chunked", [True, False])
    def test_equals_engines(self, chunked):
        matrix = self.matrix()
        bank = MagnitudeSoABank(["burst", "steady"], self.CONFIG)
        raw = bank.process(matrix) if chunked else step_all(bank, matrix)
        assert_bank_equals_engines(bank, raw, matrix, self.CONFIG)

    def test_equals_forced_recompute(self):
        matrix = self.matrix()
        skip = MagnitudeSoABank(["burst", "steady"], self.CONFIG)
        forced = AlwaysRefreshBank(["burst", "steady"], self.CONFIG)
        assert skip.process(matrix) == forced.process(matrix)
        assert bits(skip._sums) == bits(forced._sums)


class TestRoundTrips:
    def test_snapshot_to_engine_and_back_resumes_exactly(self):
        matrix = fleet()
        ids = [f"s{i}" for i in range(5)]
        straight = MagnitudeSoABank(ids, CONFIG)
        expected = straight.process(matrix)

        bank = MagnitudeSoABank(ids, CONFIG)
        got = bank.process(matrix[:, :123])
        for pos in range(5):
            engine = bank.to_engine(pos)
            bank.restore_stream(pos, engine.snapshot())
        got.extend(bank.process(matrix[:, 123:]))
        assert got == expected
        assert bits(bank._sums) == bits(straight._sums)

    def test_restored_rows_recompute_once_then_skip(self, recomputed_rows):
        matrix = np.resize(np.arange(5, dtype=np.float64), (3, 200))
        bank = MagnitudeSoABank(["a", "b", "c"], CONFIG)
        bank.process(matrix[:, :100])
        bank.restore_stream(1, bank.to_engine(1).snapshot())
        bank.process(matrix[:, 100:])
        assert recomputed_rows == [1]
