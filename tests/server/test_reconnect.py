"""Server behaviour under pool LRU eviction and across client reconnects.

Two failure modes this suite pins down:

* the server's pool evicts idle streams (``max_streams``) — remote
  behaviour must match a direct pool with the same bound, and an
  evicted stream must restart transparently (fresh indices, no error);
* a client that disconnects and reconnects into the same namespace must
  be able to carry its detector state over (snapshot before, restore
  after) so events *resume* exactly as if the connection never dropped —
  and a ``fresh`` handshake must leave no stale stream state behind.
"""

import numpy as np
import pytest

from _server_helpers import event_config, event_traces
from repro.server.client import DetectionClient
from repro.service.pool import DetectorPool

from test_server import keyed


class TestLRUEviction:
    def test_eviction_matches_direct_pool(self, loopback):
        config = event_config(max_streams=2)
        _, host, port = loopback(config)
        traces = event_traces(4, samples=120)
        remote = []
        with DetectionClient(f"repro://{host}:{port}", namespace="n") as client:
            for sid, values in traces.items():
                remote.extend(client.ingest(sid, values))
            remote_stats = client.stats()

        pool = DetectorPool(event_config(max_streams=2))
        direct = []
        for sid, values in traces.items():
            direct.extend(pool.ingest(f"n/{sid}", values))
        assert keyed(remote) == keyed(direct, strip="n/")
        assert remote_stats["pool"]["evicted"] == pool.stats().evicted > 0
        assert remote_stats["pool"]["streams"] == 2

    def test_evicted_stream_restarts_from_scratch(self, loopback):
        _, host, port = loopback(event_config(max_streams=1))
        trace = np.tile(np.arange(4), 30)
        with DetectionClient(f"repro://{host}:{port}", namespace="n") as client:
            first = client.ingest("a", trace)
            client.ingest("b", trace)  # evicts "a"
            again = client.ingest("a", trace)  # recreated, indices reset
            assert keyed(first) == keyed(again)

    def test_snapshot_skips_evicted_streams(self, loopback):
        _, host, port = loopback(event_config(max_streams=1))
        trace = np.tile(np.arange(4), 30)
        with DetectionClient(f"repro://{host}:{port}", namespace="n") as client:
            client.ingest("a", trace)
            client.ingest("b", trace)  # evicts "a"
            snap = client.snapshot(["a", "b"])
            assert list(snap) == ["b"]


class TestReconnect:
    def test_events_resume_after_snapshot_restore(self, loopback):
        _, host, port = loopback(event_config())
        traces = event_traces(3, samples=180)
        head = {sid: v[:90] for sid, v in traces.items()}
        tail = {sid: v[90:] for sid, v in traces.items()}

        with DetectionClient(f"repro://{host}:{port}", namespace="agent") as client:
            head_events = client.ingest_many(head)
            snap = client.snapshot()
            assert set(snap) == set(traces)

        # Reconnect into a clean namespace, carry the state over, resume.
        with DetectionClient(f"repro://{host}:{port}", namespace="agent", fresh=True) as client:
            assert client.server_info["removed_streams"] == len(traces)
            assert client.restore(snap) == len(traces)
            tail_events = client.ingest_many(tail)
            stats = client.stats(periods=True)

        pool = DetectorPool(event_config())
        direct_head = pool.ingest_many({f"agent/{s}": v for s, v in head.items()})
        direct_tail = pool.ingest_many({f"agent/{s}": v for s, v in tail.items()})
        assert keyed(head_events) == keyed(direct_head, strip="agent/")
        assert keyed(tail_events) == keyed(direct_tail, strip="agent/")
        for sid in traces:
            assert stats["periods"][sid] == pool.current_period(f"agent/{sid}")

    def test_restored_counters_survive_the_roundtrip(self, loopback):
        _, host, port = loopback(event_config())
        trace = np.tile(np.arange(5), 40)
        with DetectionClient(f"repro://{host}:{port}", namespace="agent") as client:
            client.ingest("app", trace)
            before = client.snapshot()["app"]
        with DetectionClient(f"repro://{host}:{port}", namespace="agent", fresh=True) as client:
            client.restore({"app": before})
            after = client.snapshot()["app"]
        assert after["samples"] == before["samples"] == trace.size
        assert after["events"] == before["events"]

    def test_fresh_reconnect_without_restore_has_no_stale_state(self, loopback):
        _, host, port = loopback(event_config())
        trace = np.tile(np.arange(4), 30)
        with DetectionClient(f"repro://{host}:{port}", namespace="agent") as client:
            first = client.ingest("app", trace)
            assert client.stats(periods=True)["periods"] == {"app": 4}
        with DetectionClient(f"repro://{host}:{port}", namespace="agent", fresh=True) as client:
            # No streams left behind ...
            assert client.stats(periods=True)["periods"] == {}
            assert client.snapshot() == {}
            # ... and re-ingesting starts from scratch (indices reset).
            again = client.ingest("app", trace)
            assert keyed(again) == keyed(first)

    def test_reconnect_without_fresh_continues_in_place(self, loopback):
        _, host, port = loopback(event_config())
        trace = np.tile(np.arange(6), 30)
        with DetectionClient(f"repro://{host}:{port}", namespace="agent") as client:
            client.ingest("app", trace[:90])
        # Same namespace, no fresh flag: the server-side stream is still
        # live, so ingestion continues where the last connection stopped.
        with DetectionClient(f"repro://{host}:{port}", namespace="agent") as client:
            tail = client.ingest("app", trace[90:])
        pool = DetectorPool(event_config())
        pool.ingest("app", trace[:90])
        expected = pool.ingest("app", trace[90:])
        assert keyed(tail, strip="")["app"] == keyed(expected)["app"]

    def test_restore_rejects_garbage(self, loopback):
        from repro.server.client import ServerError

        _, host, port = loopback(event_config())
        with DetectionClient(f"repro://{host}:{port}", namespace="x") as client:
            with pytest.raises(ServerError):
                client.restore({"app": {"state": {"kind": "nonsense"}}})
