"""Snapshot round-trip coverage: across process boundaries and SoA banks.

The sharded service moves detector state between processes exclusively
through the engine ``snapshot`` / ``restore`` protocol, so these tests
pin down its three load-bearing properties:

* a snapshot restored in a *spawn-context* child process (fresh
  interpreter, nothing inherited) continues the stream identically;
* bank -> ``snapshot_stream`` -> standalone engine -> ``snapshot`` ->
  ``restore_stream`` -> bank is lossless, with identical locks and
  profiles at every hop;
* the version field rejects snapshots from a newer format.
"""

import multiprocessing

import numpy as np
import pytest

import _amdf_oracle as amdf_oracle
from repro.core.detector import DetectorConfig, DynamicPeriodicityDetector
from repro.core.engine import SNAPSHOT_VERSION, make_engine
from repro.core.events import EventDetectorConfig, EventPeriodicityDetector
from repro.service.event_soa import EventSoABank
from repro.service.soa import MagnitudeSoABank
from repro.traces.synthetic import noisy_periodic_signal, repeat_pattern
from repro.util.validation import ValidationError

from _spawn_helpers import continue_from_snapshot


class TestCrossProcessRoundtrip:
    """engine -> snapshot -> restore in a spawn-context child process."""

    @pytest.mark.parametrize(
        "mode, options, head, tail",
        [
            (
                "magnitude",
                {"window_size": 48, "evaluation_interval": 2},
                noisy_periodic_signal(6, 150, noise_std=0.05, seed=1),
                noisy_periodic_signal(6, 120, noise_std=0.05, seed=2),
            ),
            (
                "event",
                {"window_size": 32},
                repeat_pattern(100 + np.arange(5), 140),
                repeat_pattern(100 + np.arange(5), 90),
            ),
        ],
    )
    def test_spawned_child_continues_identically(self, mode, options, head, tail):
        parent_engine = make_engine(mode, **options)
        parent_engine.update_batch(head)
        state = parent_engine.snapshot()

        ctx = multiprocessing.get_context("spawn")
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=continue_from_snapshot,
            args=(state, mode, options, np.asarray(tail), send),
        )
        proc.start()
        send.close()
        try:
            child = recv.recv()
        finally:
            proc.join(timeout=30)
        assert proc.exitcode == 0

        reference = [
            (r.index, r.period, r.is_period_start, r.new_detection)
            for r in parent_engine.update_batch(tail)
        ]
        assert child["results"] == reference
        assert child["current_period"] == parent_engine.current_period
        assert child["detected_periods"] == parent_engine.detected_periods
        theirs = parent_engine.snapshot()
        for key, expected in theirs.items():
            got = child["snapshot"][key]
            if isinstance(expected, np.ndarray):
                np.testing.assert_array_equal(got, expected, err_msg=key)
            else:
                assert got == expected, key


class TestBankRoundtrip:
    """SoA bank -> snapshot_stream -> engine -> snapshot -> back."""

    def test_magnitude_bank_engine_bank(self):
        config = DetectorConfig(window_size=40, evaluation_interval=2)
        traces = np.stack(
            [noisy_periodic_signal(4 + i, 160, noise_std=0.05, seed=i) for i in range(3)]
        )
        bank = MagnitudeSoABank(["a", "b", "c"], config)
        bank.process(traces)

        engine = DynamicPeriodicityDetector(config)
        engine.restore(bank.snapshot_stream(1))
        assert engine.current_period == bank.current_period(1)
        np.testing.assert_allclose(
            engine.profile(), bank.profiles()[1], atol=0, equal_nan=True
        )

        before = bank.snapshot_stream(1)
        bank.restore_stream(1, engine.snapshot())
        after = bank.snapshot_stream(1)
        for key, expected in before.items():
            if isinstance(expected, np.ndarray):
                np.testing.assert_array_equal(after[key], expected, err_msg=key)
            else:
                assert after[key] == expected, key

        # The round-tripped stream keeps detecting identically.
        tail = noisy_periodic_signal(5, 120, noise_std=0.05, seed=9)
        reference = DynamicPeriodicityDetector(config)
        reference.restore(before)
        expected_results = [
            (r.index, r.period, r.is_period_start) for r in reference.process(tail)
        ]
        roundtripped = bank.to_engine(1)
        got_results = [
            (r.index, r.period, r.is_period_start) for r in roundtripped.process(tail)
        ]
        assert got_results == expected_results
        # Both hops kept the running sums of the literal recurrence.
        expected_sums = amdf_oracle.stream_sums(
            np.concatenate((traces[1], tail)),
            config.window_size,
            config.effective_max_lag,
            config.refresh_interval,
        )
        assert amdf_oracle.same_bits(roundtripped.snapshot()["sums"], expected_sums)

    def test_event_bank_engine_bank(self):
        config = EventDetectorConfig(window_size=32)
        traces = np.stack(
            [repeat_pattern(100 * (i + 1) + np.arange(3 + i), 150) for i in range(3)]
        ).astype(np.int64)
        bank = EventSoABank(["a", "b", "c"], config)
        bank.process(traces)

        engine = EventPeriodicityDetector(config)
        engine.restore(bank.snapshot_stream(2))
        assert engine.current_period == bank.current_period(2)
        np.testing.assert_array_equal(engine.profile(), bank.profiles()[2])

        before = bank.snapshot_stream(2)
        bank.restore_stream(2, engine.snapshot())
        after = bank.snapshot_stream(2)
        for key, expected in before.items():
            if isinstance(expected, np.ndarray):
                np.testing.assert_array_equal(after[key], expected, err_msg=key)
            else:
                assert after[key] == expected, key

    def test_restore_stream_rejects_out_of_lockstep_snapshot(self):
        config = DetectorConfig(window_size=32)
        bank = MagnitudeSoABank(["a"], config)
        for value in noisy_periodic_signal(4, 50, noise_std=0.01, seed=0):
            bank.step([value])
        lagging = DynamicPeriodicityDetector(config)
        lagging.update_batch(noisy_periodic_signal(4, 20, noise_std=0.01, seed=0))
        with pytest.raises(ValidationError):
            bank.restore_stream(0, lagging.snapshot())


class TestSnapshotVersioning:
    @pytest.mark.parametrize("mode", ["magnitude", "event"])
    def test_snapshots_are_tagged(self, mode):
        engine = make_engine(mode, window_size=16)
        assert engine.snapshot()["version"] == SNAPSHOT_VERSION

    @pytest.mark.parametrize("mode", ["magnitude", "event"])
    def test_future_version_rejected(self, mode):
        engine = make_engine(mode, window_size=16)
        engine.update_batch(list(range(8)))
        state = engine.snapshot()
        state["version"] = SNAPSHOT_VERSION + 1
        with pytest.raises(ValidationError):
            make_engine(mode, window_size=16).restore(state)

    @pytest.mark.parametrize("mode", ["magnitude", "event"])
    def test_unversioned_snapshot_accepted_as_v1(self, mode):
        engine = make_engine(mode, window_size=16)
        engine.update_batch(list(range(8)))
        state = engine.snapshot()
        del state["version"]
        clone = make_engine(mode, window_size=16)
        clone.restore(state)
        assert clone.samples_seen == engine.samples_seen

    def test_kind_mismatch_rejected(self):
        magnitude = make_engine("magnitude", window_size=16)
        with pytest.raises(ValidationError):
            make_engine("event", window_size=16).restore(magnitude.snapshot())
