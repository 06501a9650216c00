"""Durable server state: CheckpointStore semantics + in-process warm restarts.

The store-level tests exercise the on-disk contract directly (atomic
segments, delta ordering, compaction, corruption skipping, version
gates); the warm-restart tests run a real loopback server with a
``state_dir`` and assert the zero-stream-loss contract — a restarted
server hands a resuming subscriber the exact per-stream seq tail an
uninterrupted run would have.  Kill -9 process-level recovery lives in
``test_crash_recovery.py``.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from _server_helpers import event_config, event_traces
from repro.server import persistence
from repro.server.client import DetectionClient
from repro.server.persistence import (
    CheckpointStore,
    CheckpointVersionError,
    STORE_FORMAT,
)
from repro.server.server import ServerConfig, ServerThread, build_pool
from repro.service.events import PeriodStartEvent
from repro.util.validation import ValidationError


def _stream_entry(seed: int) -> dict:
    """A snapshot-shaped stream entry (the store doesn't interpret it)."""
    return {
        "state": {
            "values": np.arange(8, dtype=np.float64) * seed,
            "nested": {"counter": seed, "ids": np.arange(seed + 1, dtype=np.int64)},
        },
        "samples": 10 * seed,
        "events": seed,
    }


def _event(sid: str, seq: int) -> PeriodStartEvent:
    return PeriodStartEvent(
        stream_id=sid, index=seq * 3, period=3, confidence=0.9,
        new_detection=seq == 0, seq=seq,
    )


def _assert_entry_equal(actual: dict, expected: dict) -> None:
    assert actual["samples"] == expected["samples"]
    assert actual["events"] == expected["events"]
    np.testing.assert_array_equal(
        actual["state"]["values"], expected["state"]["values"]
    )
    np.testing.assert_array_equal(
        actual["state"]["nested"]["ids"], expected["state"]["nested"]["ids"]
    )


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        journal = ([_event("ns/app", 0), _event("ns/app", 1)], {"ns/app": 1})
        store.write_delta({"ns/app": _stream_entry(3)}, journals={"ns": journal})

        result = CheckpointStore(tmp_path).load()
        assert result.segments_loaded == 1
        assert result.segments_skipped == 0
        _assert_entry_equal(result.streams["ns/app"], _stream_entry(3))
        entries, last_seq = result.journals["ns"]
        assert [e.seq for e in entries] == [0, 1]
        assert entries[0].stream_id == "ns/app"
        assert entries[0].period == 3
        assert last_seq == {"ns/app": 1}

    def test_later_deltas_override_and_remove(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write_delta({"ns/a": _stream_entry(1), "ns/b": _stream_entry(2)})
        store.write_delta({"ns/a": _stream_entry(5)}, removed=["ns/b"])

        result = CheckpointStore(tmp_path).load()
        assert set(result.streams) == {"ns/a"}
        _assert_entry_equal(result.streams["ns/a"], _stream_entry(5))

    def test_journal_removal_record(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write_delta({}, journals={"ns": ([_event("ns/a", 0)], {"ns/a": 0})})
        store.write_delta({}, journals_removed=["ns"])
        assert CheckpointStore(tmp_path).load().journals == {}

    def test_compaction_folds_deltas(self, tmp_path):
        store = CheckpointStore(tmp_path, compact_after=3)
        for seed in range(1, 4):
            store.write_delta({f"ns/s{seed}": _stream_entry(seed)})
        # Hitting compact_after folded everything into one base segment.
        assert len(store.segments) == 1
        assert store.compactions == 1

        result = CheckpointStore(tmp_path).load()
        assert set(result.streams) == {"ns/s1", "ns/s2", "ns/s3"}
        _assert_entry_equal(result.streams["ns/s2"], _stream_entry(2))

    def test_truncated_segment_skipped_with_warning(self, tmp_path, caplog):
        store = CheckpointStore(tmp_path)
        store.write_delta({"ns/a": _stream_entry(1)})
        store.write_delta({"ns/b": _stream_entry(2)})
        name = store.segments[-1]
        path = tmp_path / "segments" / name
        path.write_bytes(path.read_bytes()[:-20])  # tear the tail off

        with caplog.at_level("WARNING"):
            result = CheckpointStore(tmp_path).load()
        assert result.segments_skipped == 1
        assert set(result.streams) == {"ns/a"}  # the intact delta survives
        assert any("skipping unreadable" in r.message for r in caplog.records)

    def test_bad_snapshot_tree_skipped_as_corrupt(self, tmp_path, monkeypatch):
        """A CRC-valid segment whose tree names an array it does not
        carry is skipped like a torn one."""
        store = CheckpointStore(tmp_path)
        store.write_delta({"ns/a": _stream_entry(1)})
        monkeypatch.setattr(
            persistence.protocol, "pack_object", lambda record: ({"__nd__": 5}, [])
        )
        store.write_delta({"ns/b": _stream_entry(2)})
        monkeypatch.undo()

        result = CheckpointStore(tmp_path).load()
        assert result.segments_skipped == 1
        assert set(result.streams) == {"ns/a"}

    def test_bit_flip_fails_crc_and_skips(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write_delta({"ns/a": _stream_entry(1)})
        path = tmp_path / "segments" / store.segments[0]
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))

        result = CheckpointStore(tmp_path).load()
        assert result.segments_skipped == 1
        assert result.streams == {}

    def test_newer_store_format_rejected(self, tmp_path, monkeypatch):
        store = CheckpointStore(tmp_path)
        monkeypatch.setattr(persistence, "STORE_FORMAT", STORE_FORMAT + 1)
        store.write_delta({"ns/a": _stream_entry(1)})
        monkeypatch.undo()

        with pytest.raises(CheckpointVersionError, match="newer"):
            CheckpointStore(tmp_path).load()

    def test_newer_snapshot_version_rejected(self, tmp_path, monkeypatch):
        store = CheckpointStore(tmp_path)
        monkeypatch.setattr(
            persistence, "SNAPSHOT_VERSION", persistence.SNAPSHOT_VERSION + 1
        )
        store.write_delta({"ns/a": _stream_entry(1)})
        monkeypatch.undo()

        with pytest.raises(CheckpointVersionError, match="snapshot"):
            CheckpointStore(tmp_path).load()

    def test_corrupt_manifest_degrades_to_empty(self, tmp_path, caplog):
        store = CheckpointStore(tmp_path)
        store.write_delta({"ns/a": _stream_entry(1)})
        (tmp_path / "MANIFEST.json").write_text("{not json")

        with caplog.at_level("WARNING"):
            result = CheckpointStore(tmp_path).load()
        assert result.streams == {}
        assert any("manifest" in r.message for r in caplog.records)

    def test_unreferenced_segments_collected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write_delta({"ns/a": _stream_entry(1)})
        orphan = tmp_path / "segments" / "999999999.ckpt"
        orphan.write_bytes(b"leftover from an interrupted write")
        stray_tmp = tmp_path / "segments" / "000000042.ckpt.tmp"
        stray_tmp.write_bytes(b"half a segment")

        store.write_delta({"ns/b": _stream_entry(2)})
        assert not orphan.exists()
        assert not stray_tmp.exists()
        assert CheckpointStore(tmp_path).load().segments_loaded == 2

    def test_manifest_survives_partial_segment_write(self, tmp_path):
        # A tmp file next to live segments (the moment before os.replace)
        # must never be picked up by load — only manifest-listed names.
        store = CheckpointStore(tmp_path)
        store.write_delta({"ns/a": _stream_entry(1)})
        (tmp_path / "segments" / "000000002.ckpt.tmp").write_bytes(b"torn")
        result = CheckpointStore(tmp_path).load()
        assert result.segments_loaded == 1
        assert result.segments_skipped == 0

    def test_compact_after_validation(self, tmp_path):
        with pytest.raises(Exception, match="compact_after"):
            CheckpointStore(tmp_path, compact_after=1)


class TestServerConfigValidation:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValidationError, match="checkpoint_interval"):
            ServerConfig(state_dir="x", checkpoint_interval=0)

    def test_max_dirty_must_be_positive(self):
        with pytest.raises(ValidationError, match="checkpoint_max_dirty"):
            ServerConfig(state_dir="x", checkpoint_max_dirty=0)


def _durable_config(tmp_path, **overrides) -> ServerConfig:
    options = dict(state_dir=str(tmp_path / "state"), checkpoint_interval=60.0)
    options.update(overrides)
    return ServerConfig(**options)


class TestWarmRestart:
    def test_restart_resumes_exact_seqs(self, tmp_path, loopback):
        thread, host, port = loopback(server_config=_durable_config(tmp_path))
        traces = event_traces(3, samples=150)
        live: dict[str, list[PeriodStartEvent]] = {sid: [] for sid in traces}
        with DetectionClient(f"repro://{host}:{port}", namespace="ns") as client:
            for sid, trace in traces.items():
                live[sid].extend(client.ingest(sid, trace))
        thread.checkpoint()
        thread.stop()

        thread2, host, port = loopback(server_config=_durable_config(tmp_path))
        assert thread2.server.restore_stats["streams"] == 3
        with DetectionClient(f"repro://{host}:{port}", namespace="ns") as client:
            for sid, events in live.items():
                replayed, gap = client.replay(sid, 0)
                assert gap is None
                assert [e.seq for e in replayed] == [e.seq for e in events]
                assert [e.index for e in replayed] == [e.index for e in events]
                # New events continue the stream's numbering seamlessly.
                more = client.ingest(sid, traces[sid][:30])
                if events and more:
                    assert more[0].seq == events[-1].seq + 1

    def test_graceful_stop_takes_final_checkpoint(self, tmp_path, loopback):
        thread, host, port = loopback(server_config=_durable_config(tmp_path))
        with DetectionClient(f"repro://{host}:{port}", namespace="ns") as client:
            events = client.ingest("app", [7, 8, 9] * 40)
        assert events
        thread.stop()  # no explicit checkpoint: the drain must persist

        thread2, host, port = loopback(server_config=_durable_config(tmp_path))
        with DetectionClient(f"repro://{host}:{port}", namespace="ns") as client:
            replayed, gap = client.replay("app", 0)
        assert gap is None
        assert [e.seq for e in replayed] == [e.seq for e in events]

    def test_resync_after_restart_reports_no_gap(self, tmp_path, loopback):
        thread, host, port = loopback(server_config=_durable_config(tmp_path))
        with DetectionClient(f"repro://{host}:{port}", namespace="ns") as client:
            live = client.ingest("app", [7, 8, 9] * 40)
        thread.stop()

        thread2, host, port = loopback(server_config=_durable_config(tmp_path))
        gaps: list = []
        with DetectionClient(
            f"repro://{host}:{port}", namespace="ns", on_gap=lambda *a: gaps.append(a)
        ) as client:
            client.subscribe()
            recovered = client.resync(["app"])
        assert gaps == []
        assert [e.seq for e in recovered] == [e.seq for e in live]

    def test_sharded_pool_warm_restart(self, tmp_path):
        config = _durable_config(tmp_path)
        threads = []
        try:
            thread = ServerThread(build_pool(event_config(), workers=2), config)
            threads.append(thread)
            host, port = thread.start()
            traces = event_traces(6, samples=120)
            live: dict[str, list[PeriodStartEvent]] = {sid: [] for sid in traces}
            with DetectionClient(f"repro://{host}:{port}", namespace="ns") as client:
                for sid, trace in traces.items():
                    live[sid].extend(client.ingest(sid, trace))
            thread.stop()

            thread2 = ServerThread(
                build_pool(event_config(), workers=2), _durable_config(tmp_path)
            )
            threads.append(thread2)
            host, port = thread2.start()
            assert thread2.server.restore_stats["streams"] == 6
            with DetectionClient(f"repro://{host}:{port}", namespace="ns") as client:
                for sid, events in live.items():
                    replayed, gap = client.replay(sid, 0)
                    assert gap is None
                    assert [e.seq for e in replayed] == [e.seq for e in events]
        finally:
            for thread in threads:
                thread.stop()

    def test_incremental_pass_skips_clean_streams(self, tmp_path, loopback):
        thread, host, port = loopback(server_config=_durable_config(tmp_path))
        with DetectionClient(f"repro://{host}:{port}", namespace="ns") as client:
            client.ingest("a", [7, 8, 9] * 20)
            client.ingest("b", [7, 8, 9] * 20)
            first = thread.checkpoint()
            assert first["streams"] == 2
            second = thread.checkpoint()
            assert second["idle"] is True
            client.ingest("a", [7, 8, 9] * 4)
            third = thread.checkpoint()
            assert third["streams"] == 1  # only the dirty stream rewrites

    def test_max_dirty_triggers_early_pass(self, tmp_path, loopback):
        thread, host, port = loopback(
            server_config=_durable_config(
                tmp_path, checkpoint_interval=3600.0, checkpoint_max_dirty=1
            )
        )
        with DetectionClient(f"repro://{host}:{port}", namespace="ns") as client:
            client.ingest("app", [7, 8, 9] * 20)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                ckpt = client.stats()["server"]["checkpoint"]
                if ckpt["passes"] >= 1:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("max_dirty never kicked a checkpoint pass")

    def test_fresh_handshake_removal_is_durable(self, tmp_path, loopback):
        thread, host, port = loopback(server_config=_durable_config(tmp_path))
        with DetectionClient(f"repro://{host}:{port}", namespace="ns") as client:
            client.ingest("app", [7, 8, 9] * 40)
        thread.checkpoint()
        with DetectionClient(f"repro://{host}:{port}", namespace="ns", fresh=True) as client:
            pass  # fresh handshake wipes the namespace's streams + journal
        thread.stop()

        thread2, host, port = loopback(server_config=_durable_config(tmp_path))
        assert thread2.server.restore_stats["streams"] == 0
        with DetectionClient(f"repro://{host}:{port}", namespace="ns") as client:
            events = client.ingest("app", [7, 8, 9] * 40)
        assert events[0].seq == 0  # numbering restarted, no stale journal

    def test_version_gated_store_blocks_startup(self, tmp_path, monkeypatch):
        state = tmp_path / "state"
        store = CheckpointStore(state)
        monkeypatch.setattr(
            persistence, "SNAPSHOT_VERSION", persistence.SNAPSHOT_VERSION + 1
        )
        store.write_delta({"ns/app": _stream_entry(1)})
        monkeypatch.undo()

        from repro.service.pool import DetectorPool

        thread = ServerThread(
            DetectorPool(event_config()),
            ServerConfig(state_dir=str(state), checkpoint_interval=60.0),
        )
        with pytest.raises(CheckpointVersionError):
            thread.start()

    def test_corrupt_segment_skipped_at_startup(self, tmp_path, loopback):
        thread, host, port = loopback(server_config=_durable_config(tmp_path))
        with DetectionClient(f"repro://{host}:{port}", namespace="ns") as client:
            client.ingest("app", [7, 8, 9] * 40)
        thread.stop()

        state = tmp_path / "state"
        manifest = json.loads((state / "MANIFEST.json").read_text())
        segment = state / "segments" / manifest["segments"][-1]
        segment.write_bytes(segment.read_bytes()[: len(segment.read_bytes()) // 2])

        thread2, host, port = loopback(server_config=_durable_config(tmp_path))
        stats = thread2.server.restore_stats
        assert stats["segments_skipped"] >= 1  # degraded, not crashed

    def test_checkpoint_now_requires_state_dir(self, loopback):
        thread, host, port = loopback()
        with pytest.raises(ValidationError, match="state_dir"):
            thread.checkpoint()

    def test_stats_expose_checkpoint_counters(self, tmp_path, loopback):
        thread, host, port = loopback(server_config=_durable_config(tmp_path))
        with DetectionClient(f"repro://{host}:{port}", namespace="ns") as client:
            client.ingest("app", [7, 8, 9] * 20)
            thread.checkpoint()
            stats = client.stats()["server"]
        ckpt = stats["checkpoint"]
        assert ckpt["passes"] == 1
        assert ckpt["streams_written"] == 1
        assert ckpt["bytes_written"] > 0
        assert ckpt["segments"] >= 1
        assert stats["restore"]["streams"] == 0  # first boot: empty store
