"""Version negotiation between v2 and v3 peers, and handle-table faults.

The compatibility contract of the wire-hot-path PR: every pairing of a
v2 peer with a v3 peer settles on the v2 JSON protocol and behaves
exactly like the pre-v3 deployment, while v3<->v3 pairs use the binary
hot frames — with identical events either way.  Handle faults (unknown
or stale handles on a hot frame) are request errors, never connection
teardowns.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from _server_helpers import event_config, event_traces, magnitude_traces
from repro.server.client import (
    AsyncDetectionClient,
    DetectionClient,
    ServerError,
    _check,
)
from repro.server.protocol import PROTOCOL_VERSION, FrameType, encode_hot_ingest
from repro.server.server import ServerConfig
from repro.service.pool import DetectorPool


def keyed(events, strip=""):
    per_stream: dict[str, list] = {}
    for e in events:
        per_stream.setdefault(e.stream_id.removeprefix(strip), []).append(
            (e.index, e.period, e.new_detection, e.seq)
        )
    return per_stream


def hot_ingest(client, handles, matrix):
    """A hand-made INGEST_HOT frame, sent past the client's own checks."""
    return encode_hot_ingest(
        FrameType.INGEST_HOT, handles, matrix, version=client.protocol_version
    )


def direct(traces, namespace, lockstep=False):
    pool = DetectorPool(event_config())
    prefixed = {f"{namespace}/{sid}": v for sid, v in traces.items()}
    events = pool.ingest_lockstep(prefixed) if lockstep else pool.ingest_many(prefixed)
    return keyed(events, strip=f"{namespace}/")


# ----------------------------------------------------------------------
# negotiation matrix
# ----------------------------------------------------------------------
class TestNegotiationMatrix:
    def test_v3_client_v3_server_settles_on_v3(self, loopback):
        _, host, port = loopback()
        traces = event_traces(6, samples=128)
        with DetectionClient(f"repro://{host}:{port}", namespace="n") as client:
            assert client.protocol_version == PROTOCOL_VERSION
            remote = keyed(client.ingest_many(traces))
            stats = client.stats()["server"]
            assert stats["protocol"]["connection"] == PROTOCOL_VERSION
            # The hot path actually carried the ingest: handles were
            # interned for every stream of the fleet.
            assert set(client._session.handles.of_name) == set(traces)
        assert remote == direct(traces, "n")

    def test_pipeline_interns_new_ids_whenever_nothing_is_in_flight(self, loopback):
        """With window=1 every request goes alone, so each one's new ids
        are registered and ride a hot frame."""
        _, host, port = loopback()
        traces = event_traces(4, samples=64)
        requests = [{sid: values} for sid, values in traces.items()]
        with DetectionClient(f"repro://{host}:{port}", namespace="n") as client:
            remote = keyed(client.pipeline(requests, window=1))
            assert set(client._session.handles.of_name) == set(traces)
        assert remote == direct(traces, "n")

    @pytest.mark.parametrize("max_protocol", [1, PROTOCOL_VERSION + 1])
    def test_bad_max_protocol_is_refused_before_connecting(
        self, monkeypatch, max_protocol
    ):
        def no_connect(*args, **kwargs):
            raise AssertionError("a connection was opened")

        monkeypatch.setattr("socket.create_connection", no_connect)
        monkeypatch.setattr("asyncio.open_connection", no_connect)
        url = "repro://127.0.0.1:9"
        with pytest.raises(ValueError, match="max_protocol"):
            DetectionClient(url, max_protocol=max_protocol)
        with pytest.raises(ValueError, match="max_protocol"):
            asyncio.run(AsyncDetectionClient.connect(url, max_protocol=max_protocol))

    def test_v2_client_v3_server_settles_on_v2(self, loopback):
        """A frozen-v2 client (max_protocol=2) gets pre-v3 behaviour."""
        _, host, port = loopback()
        traces = event_traces(6, samples=128)
        with DetectionClient(f"repro://{host}:{port}", namespace="n", max_protocol=2) as client:
            assert client.protocol_version == 2
            remote = keyed(client.ingest_many(traces))
            assert client.stats()["server"]["protocol"]["connection"] == 2
            # No handles were ever interned on a v2 connection.
            assert client._session.handles.of_name == {}
        assert remote == direct(traces, "n")

    def test_v3_client_v2_server_settles_on_v2(self, loopback):
        """A v3 client against an old server falls back to JSON frames."""
        _, host, port = loopback(server_config=ServerConfig(port=0, max_protocol=2))
        traces = event_traces(6, samples=128)
        with DetectionClient(f"repro://{host}:{port}", namespace="n") as client:
            assert client.protocol_version == 2
            remote = keyed(client.ingest_many(traces))
            lock = keyed(client.ingest_lockstep(traces))
            assert client._session.handles.of_name == {}
        assert remote == direct(traces, "n")
        assert lock  # the JSON lockstep path still produced events

    def test_v2_server_rejects_out_of_version_frames(self, daemon):
        """Defence in depth: hot frames at a frozen-v2 daemon are refused.

        A pre-v3 server would not even have REGISTER in its frame enum —
        the violation surfaces as an ERROR and the peer is dropped, which
        is exactly what the frozen-v2 emulation reproduces, on a server
        and on a router alike.  A correct client never hits this:
        negotiation already settled on v2.
        """
        host, port = daemon(max_protocol=2)
        with DetectionClient(f"repro://{host}:{port}", namespace="n") as client:
            with pytest.raises((ServerError, ConnectionError), match="REGISTER|closed"):
                client._send(client._session.encode(FrameType.REGISTER, {"streams": ["x"]}))
                _check(client._read_reply())
                client._read_reply()  # protocol violations drop the peer


class TestV2ClientFullSurface:
    def test_lockstep_subscribe_and_replay_on_v2(self, loopback):
        """The whole request surface works for a frozen-v2 client."""
        _, host, port = loopback(
            server_config=ServerConfig(port=0, journal_size=4096)
        )
        traces = event_traces(4, samples=96)
        with DetectionClient(f"repro://{host}:{port}", namespace="n", max_protocol=2) as client:
            client.subscribe("own")
            events = client.ingest_lockstep(traces)
            assert keyed(events) == direct(traces, "n", lockstep=True)
            stream = events[0].stream_id
            replayed, gap = client.replay(stream, 0)
            assert gap is None
            want = sorted(e.seq for e in events if e.stream_id == stream)
            assert [e.seq for e in replayed] == want
            assert client.stats()["server"]["protocol"]["connection"] == 2

    def test_v2_and_v3_subscribers_see_identical_pushes(self, loopback):
        """EVENT (JSON) and EVENT_HOT (binary) pushes carry the same events."""
        _, host, port = loopback()
        traces = event_traces(3, samples=96)
        with DetectionClient(f"repro://{host}:{port}", namespace="n", max_protocol=2) as old, \
                DetectionClient(f"repro://{host}:{port}", namespace="n") as new, \
                DetectionClient(f"repro://{host}:{port}", namespace="n") as writer:
            old.subscribe("all")
            new.subscribe("all")
            produced = writer.ingest_many(traces)
            assert produced

            def drain(sub):
                got = []
                while len(got) < len(produced):
                    batch = sub.next_events(timeout=5.0)
                    assert batch is not None, "push never arrived"
                    got.extend(batch)
                # scope-"all" pushes name streams with their namespace.
                return keyed(got, strip="n/")

            assert drain(old) == drain(new) == keyed(produced)


class TestAsyncNegotiation:
    def test_async_client_negotiates_and_falls_back(self, loopback):
        _, host, port = loopback()
        _, host2, port2 = loopback(
            server_config=ServerConfig(port=0, max_protocol=2)
        )
        traces = event_traces(4, samples=96)

        async def run():
            new = await AsyncDetectionClient.connect(f"repro://{host}:{port}", namespace="n")
            old = await AsyncDetectionClient.connect(f"repro://{host2}:{port2}", namespace="n")
            try:
                assert new.protocol_version == PROTOCOL_VERSION
                assert old.protocol_version == 2
                a = keyed(await new.ingest_many(traces))
                b = keyed(await old.ingest_many(traces))
            finally:
                await new.close()
                await old.close()
            return a, b

        a, b = asyncio.run(run())
        assert a == b == direct(traces, "n")


# ----------------------------------------------------------------------
# handle-table faults
# ----------------------------------------------------------------------
class TestHandleFaults:
    def test_unknown_handle_is_an_error_not_a_disconnect(self, loopback):
        _, host, port = loopback()
        matrix = (np.arange(32.0) % 4).reshape(1, -1)
        with DetectionClient(f"repro://{host}:{port}", namespace="n") as client:
            client._send(hot_ingest(client, [99], matrix))
            with pytest.raises(ServerError, match="handle"):
                _check(client._read_reply())
            # Same socket keeps serving requests afterwards.
            assert client.ingest("x", np.arange(64.0) % 4)
            assert client.stats()["server"]["connections"] == 1

    def test_stale_handles_after_reconnect_are_rejected(self, loopback):
        """Handle tables are per-connection: a fresh socket knows none."""
        _, host, port = loopback()
        traces = event_traces(3, samples=64)
        with DetectionClient(f"repro://{host}:{port}", namespace="n") as client:
            client.ingest_many(traces)
            stale = [client._session.handles.of_name[sid] for sid in traces]
        with DetectionClient(f"repro://{host}:{port}", namespace="n") as client:
            matrix = np.zeros((len(stale), 16))
            client._send(hot_ingest(client, stale, matrix))
            with pytest.raises(ServerError, match="handle"):
                _check(client._read_reply())
            # Re-registering on the new connection heals the client.
            assert keyed(client.ingest_many(traces))

    def test_duplicate_handles_in_one_frame_rejected(self, loopback):
        """Duplicate rows for one handle are a malformed (fatal) frame.

        Unlike an unknown handle — a recoverable state mismatch — this
        can only be a client-side encoding bug, so it is treated like
        any other protocol violation: error out and drop the peer.
        """
        _, host, port = loopback()
        with DetectionClient(f"repro://{host}:{port}", namespace="n") as client:
            (handle,) = client._run(client._session.register(["x"]))
            client._send(hot_ingest(client, [handle, handle], np.zeros((2, 8))))
            with pytest.raises((ServerError, ConnectionError)):
                _check(client._read_reply())
                client._read_reply()  # server tears the connection down

    def test_magnitude_mode_hot_path_equivalence(self, loopback):
        """Hot frames also carry magnitude-mode fleets faithfully."""
        from repro.core.detector import DetectorConfig
        from repro.service.pool import PoolConfig

        config = PoolConfig(
            mode="magnitude",
            detector_config=DetectorConfig(window_size=64, evaluation_interval=4),
        )
        _, host, port = loopback(config)
        traces = magnitude_traces(5, samples=192)
        with DetectionClient(f"repro://{host}:{port}", namespace="m") as v3, \
                DetectionClient(f"repro://{host}:{port}", namespace="m2", max_protocol=2) as v2:
            assert keyed(v3.ingest_many(traces)) == keyed(v2.ingest_many(traces))
