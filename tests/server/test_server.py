"""Behavioural tests of the asyncio detection server over loopback TCP.

The acceptance criterion of the server PR: a loopback client pushing N
synthetic periodic streams through the daemon receives the same
``PeriodStartEvent`` sequence, stream for stream, as a direct
``DetectorPool.ingest_many`` over the same traces.
"""

import asyncio

import numpy as np
import pytest

from repro.server.client import (
    AsyncDetectionClient,
    ConnectionClosedError,
    DetectionClient,
    ServerBusy,
    ServerError,
)
from repro.server.server import ServerConfig, ServerThread, build_pool
from repro.service.pool import DetectorPool, PoolConfig
from repro.service.sharding import ShardedDetectorPool

from _server_helpers import event_config, event_traces, magnitude_traces


def keyed(events, strip=""):
    """Stream-for-stream comparable view: per-stream event sequences.

    Chunked remote ingestion interleaves events of different streams
    differently than one big direct batch; the equivalence that matters
    (and that the acceptance criterion names) is that *each stream's*
    event sequence is identical.
    """
    per_stream: dict[str, list] = {}
    for e in events:
        per_stream.setdefault(e.stream_id.removeprefix(strip), []).append(
            (e.index, e.period, e.new_detection)
        )
    return per_stream


class TestEquivalence:
    def test_chunked_ingest_matches_direct_pool(self, loopback):
        _, host, port = loopback(event_config())
        traces = event_traces(8, samples=160)
        with DetectionClient(f"repro://{host}:{port}", namespace="n") as client:
            remote = []
            for offset in range(0, 160, 40):
                remote.extend(client.ingest_many(
                    {sid: values[offset : offset + 40] for sid, values in traces.items()}
                ))
            remote_periods = client.stats(periods=True)["periods"]

        pool = DetectorPool(event_config())
        direct = pool.ingest_many({f"n/{sid}": v for sid, v in traces.items()})
        assert keyed(remote) == keyed(direct, strip="n/")
        for sid in traces:
            assert remote_periods[sid] == pool.current_period(f"n/{sid}")

    def test_lockstep_matches_direct_pool(self, loopback):
        _, host, port = loopback(event_config())
        traces = event_traces(6, samples=128)
        with DetectionClient(f"repro://{host}:{port}", namespace="n") as client:
            remote = client.ingest_lockstep(traces)
        direct = DetectorPool(event_config()).ingest_lockstep(
            {f"n/{sid}": v for sid, v in traces.items()}
        )
        assert keyed(remote) == keyed(direct, strip="n/")

    def test_magnitude_mode_roundtrip(self, loopback):
        from repro.core.detector import DetectorConfig

        config = PoolConfig(
            mode="magnitude",
            detector_config=DetectorConfig(window_size=64, evaluation_interval=4),
        )
        _, host, port = loopback(config)
        traces = magnitude_traces(5, samples=192)
        with DetectionClient(f"repro://{host}:{port}", namespace="m") as client:
            remote = client.ingest_many(traces)
        direct = DetectorPool(config).ingest_many(
            {f"m/{sid}": v for sid, v in traces.items()}
        )
        assert keyed(remote) == keyed(direct, strip="m/")

    def test_sharded_pool_behind_server(self):
        traces = event_traces(6, samples=128)
        pool = build_pool(event_config(), workers=2)
        assert isinstance(pool, ShardedDetectorPool)
        with ServerThread(pool) as (host, port):
            with DetectionClient(f"repro://{host}:{port}", namespace="s") as client:
                remote = client.ingest_many(traces)
        direct = DetectorPool(event_config()).ingest_many(
            {f"s/{sid}": v for sid, v in traces.items()}
        )
        assert keyed(remote) == keyed(direct, strip="s/")

    def test_pipelined_sharded_pool_behind_server(self):
        # With pipeline_depth set, a reply may omit still-in-flight
        # events; a subscription plus the dispatcher's idle flush must
        # still deliver every event, and the locked periods must match
        # the direct pool exactly.
        traces = event_traces(8, samples=160)
        pool = build_pool(event_config(), workers=2, pipeline_depth=4)
        assert pool.sharding.pipeline_depth == 4
        seen = []
        with ServerThread(pool) as (host, port):
            with DetectionClient(f"repro://{host}:{port}", namespace="p") as client:
                client.subscribe("own")
                chunks = (
                    {sid: v[offset : offset + 40] for sid, v in traces.items()}
                    for offset in range(0, 160, 40)
                )
                client.pipeline(chunks, window=4)
                remote_periods = client.stats(periods=True)["periods"]
                while True:
                    batch = client.next_events(timeout=2.0)
                    if batch is None:
                        break
                    seen.extend(batch)
        direct_pool = DetectorPool(event_config())
        direct = []
        for offset in range(0, 160, 40):
            direct.extend(direct_pool.ingest_many(
                {f"p/{sid}": v[offset : offset + 40] for sid, v in traces.items()}
            ))
        assert keyed(seen) == keyed(direct, strip="p/")
        for sid in traces:
            assert remote_periods[sid] == direct_pool.current_period(f"p/{sid}")


class TestNamespacing:
    def test_same_stream_name_does_not_collide(self, loopback):
        _, host, port = loopback(event_config())
        trace_a = np.tile(np.arange(3), 40)  # period 3
        trace_b = np.tile(np.arange(5), 24)  # period 5
        with DetectionClient(f"repro://{host}:{port}", namespace="a") as ca, \
                DetectionClient(f"repro://{host}:{port}", namespace="b") as cb:
            ca.ingest("app", trace_a)
            cb.ingest("app", trace_b)
            assert ca.stats(periods=True)["periods"] == {"app": 3}
            assert cb.stats(periods=True)["periods"] == {"app": 5}

    def test_server_assigns_unique_namespaces(self, loopback):
        _, host, port = loopback(event_config())
        with DetectionClient(f"repro://{host}:{port}") as c1, DetectionClient(f"repro://{host}:{port}") as c2:
            assert c1.namespace != c2.namespace

    def test_bad_namespace_rejected(self, loopback):
        _, host, port = loopback(event_config())
        with pytest.raises((ServerError, ConnectionError)):
            DetectionClient(f"repro://{host}:{port}", namespace="a/b")


class TestSubscriptions:
    def test_own_scope_strips_namespace_and_filters(self, loopback):
        _, host, port = loopback(event_config())
        trace = np.tile(np.arange(4), 30)
        with DetectionClient(f"repro://{host}:{port}", namespace="w") as watcher, \
                DetectionClient(f"repro://{host}:{port}", namespace="o") as other:
            watcher.subscribe("own")
            other.ingest("noise", trace)  # not watcher's namespace
            events = watcher.ingest("app", trace)
            pushed = watcher.next_events(timeout=5)
            assert pushed is not None
            assert {e.stream_id for e in pushed} == {"app"}
            assert keyed(pushed) == keyed(events)
            # Nothing else pending: the other client's events were filtered.
            assert watcher.next_events(timeout=0.2) is None

    def test_all_scope_sees_other_namespaces(self, loopback):
        _, host, port = loopback(event_config())
        trace = np.tile(np.arange(4), 30)
        with DetectionClient(f"repro://{host}:{port}", namespace="w") as watcher, \
                DetectionClient(f"repro://{host}:{port}", namespace="o") as other:
            watcher.subscribe("all")
            other.ingest("app", trace)
            pushed = watcher.next_events(timeout=5)
            assert pushed is not None
            assert {e.stream_id for e in pushed} == {"o/app"}

    def test_bad_scope_rejected(self, loopback):
        _, host, port = loopback(event_config())
        with DetectionClient(f"repro://{host}:{port}") as client:
            with pytest.raises(ServerError):
                client.subscribe("everything")


class TestBackpressure:
    def test_busy_reply_when_pipelining_past_inflight_bound(self, loopback):
        _, host, port = loopback(
            event_config(), ServerConfig(max_inflight=1)
        )
        trace = np.tile(np.arange(4), 50)
        with DetectionClient(f"repro://{host}:{port}", namespace="p") as client:
            chunks = [{"x": trace[i * 20 : (i + 1) * 20]} for i in range(10)]
            client.pipeline(chunks, window=6, on_busy="count")
            assert client.busy_replies > 0
            assert client.stats()["server"]["busy_replies"] > 0

    def test_busy_raises_by_default(self, loopback):
        _, host, port = loopback(
            event_config(), ServerConfig(max_inflight=1)
        )
        trace = np.tile(np.arange(4), 50)
        with DetectionClient(f"repro://{host}:{port}", namespace="p") as client:
            chunks = [{"x": trace[i * 20 : (i + 1) * 20]} for i in range(10)]
            with pytest.raises(ServerBusy):
                client.pipeline(chunks, window=8)
            # The raise happened only after every outstanding reply was
            # drained: the request/reply FIFO is still paired and the
            # connection remains fully usable.
            stats = client.stats(periods=True)
            assert "pool" in stats and "x" in stats["periods"]
            client.ingest("x", trace[:20])

    def test_within_bound_pipelining_loses_nothing(self, loopback):
        _, host, port = loopback(event_config())
        traces = event_traces(4, samples=160)
        with DetectionClient(f"repro://{host}:{port}", namespace="n") as client:
            chunks = [
                {sid: values[offset : offset + 20] for sid, values in traces.items()}
                for offset in range(0, 160, 20)
            ]
            remote = client.pipeline(chunks, window=4)
        direct = DetectorPool(event_config()).ingest_many(
            {f"n/{sid}": v for sid, v in traces.items()}
        )
        assert keyed(remote) == keyed(direct, strip="n/")


class TestProtocolAbuse:
    def test_request_before_hello_is_rejected(self, daemon):
        import socket

        from repro.server import protocol
        from repro.server.protocol import FrameType

        host, port = daemon(event_config())
        with socket.create_connection((host, port), timeout=10) as sock:
            protocol.write_frame(sock, FrameType.STATS, {})
            frame = protocol.read_frame(sock)
            assert frame.type == FrameType.ERROR
            assert "HELLO" in frame.meta["message"]
            assert sock.recv(1) == b""  # and the peer is dropped

    def test_ingest_with_mismatched_arrays_is_an_error(self, loopback):
        import socket

        from repro.server import protocol
        from repro.server.protocol import FrameType

        _, host, port = loopback(event_config())
        with socket.create_connection((host, port), timeout=10) as sock:
            protocol.write_frame(sock, FrameType.HELLO, {"namespace": "x", "protocol": 3})
            assert protocol.read_frame(sock).type == FrameType.OK
            protocol.write_frame(sock, FrameType.REGISTER, {"streams": ["a", "b"]})
            assert protocol.read_frame(sock).type == FrameType.OK
            # Two handles, but the sample bytes of one row only.
            blob = b"".join(
                bytes(b)
                for b in protocol.encode_hot_ingest(
                    FrameType.INGEST_HOT, [0, 1], np.zeros((2, 4))
                )
            )
            head = protocol._HEADER.size
            short = protocol._HEADER.pack(
                protocol.MAGIC, protocol.PROTOCOL_VERSION, int(FrameType.INGEST_HOT),
                len(blob) - head - 32,
            )
            sock.sendall(short + blob[head:-32])
            frame = protocol.read_frame(sock)
            assert frame.type == FrameType.ERROR

    @pytest.mark.parametrize("dtype", [[[]], [["a"]]])
    def test_malformed_array_descriptor_is_answered(self, daemon, dtype):
        """A descriptor the decoder cannot use is answered ERROR before
        the close, like every other malformed frame."""
        import json
        import socket
        import struct

        from repro.server import protocol
        from repro.server.protocol import FrameType

        host, port = daemon(event_config())
        meta = json.dumps(
            {"__arrays__": [{"dtype": dtype, "shape": [1], "nbytes": 8}]}
        ).encode()
        payload = struct.pack("!I", len(meta)) + meta + bytes(8)
        with socket.create_connection((host, port), timeout=10) as sock:
            protocol.write_frame(sock, FrameType.HELLO, {"namespace": "x", "protocol": 3})
            assert protocol.read_frame(sock).type == FrameType.OK
            sock.sendall(
                protocol._HEADER.pack(
                    protocol.MAGIC, protocol.PROTOCOL_VERSION,
                    int(FrameType.RESTORE), len(payload),
                )
                + payload
            )
            frame = protocol.read_frame(sock)
            assert frame.type == FrameType.ERROR
            assert "descriptor" in frame.meta["message"]
            assert sock.recv(1) == b""
        with DetectionClient(f"repro://{host}:{port}") as client:
            assert client.stats()["server"]

    def test_snapshot_marker_naming_no_array_is_answered(self, daemon):
        """A RESTORE tree whose array marker points past the frame's
        arrays gets one ERROR and a close, not a silent drop."""
        import socket

        from repro.server import protocol
        from repro.server.protocol import FrameType

        host, port = daemon(event_config())
        with socket.create_connection((host, port), timeout=10) as sock:
            protocol.write_frame(sock, FrameType.HELLO, {"namespace": "x", "protocol": 3})
            assert protocol.read_frame(sock).type == FrameType.OK
            protocol.write_frame(sock, FrameType.RESTORE, {"states": {"__nd__": 7}})
            frame = protocol.read_frame(sock)
            assert frame.type == FrameType.ERROR
            assert "array marker" in frame.meta["message"]
            assert sock.recv(1) == b""
        with DetectionClient(f"repro://{host}:{port}") as client:
            assert client.stats()["server"]


class TestShutdown:
    def test_graceful_stop_drains_and_says_bye(self):
        thread = ServerThread(DetectorPool(event_config()))
        host, port = thread.start()
        client = DetectionClient(f"repro://{host}:{port}", namespace="d")
        client.ingest("app", np.tile(np.arange(4), 30))
        thread.stop()
        # The connected client observes the drain, not a hard cut.
        with pytest.raises(ConnectionClosedError):
            while True:
                client.next_events(timeout=1)
        with pytest.raises(ConnectionClosedError):
            client.ingest("app", [1, 2, 3])
        client.close()

    def test_stop_is_idempotent(self):
        thread = ServerThread(DetectorPool(event_config()))
        thread.start()
        thread.stop()
        thread.stop()

    def test_new_connections_refused_after_stop(self):
        thread = ServerThread(DetectorPool(event_config()))
        host, port = thread.start()
        thread.stop()
        with pytest.raises(ConnectionError):
            DetectionClient(f"repro://{host}:{port}")


class TestAsyncClient:
    def test_async_roundtrip_and_subscription(self, loopback):
        _, host, port = loopback(event_config())
        traces = event_traces(4, samples=120)

        async def run():
            client = await AsyncDetectionClient.connect(f"repro://{host}:{port}", namespace="a")
            await client.subscribe("own")
            events = await client.ingest_many(traces)
            pushed = await asyncio.wait_for(client.events.get(), 10)
            stats = await client.stats(periods=True)
            await client.close()
            return events, pushed, stats

        events, pushed, stats = asyncio.run(run())
        direct = DetectorPool(event_config()).ingest_many(
            {f"a/{sid}": v for sid, v in traces.items()}
        )
        assert keyed(events) == keyed(direct, strip="a/")
        assert keyed(pushed) == keyed(events)
        assert stats["periods"] == {
            sid: 3 + i % 7 for i, sid in enumerate(traces)
        }

    def test_async_snapshot_restore(self, loopback):
        _, host, port = loopback(event_config())
        trace = np.tile(np.arange(6), 30)

        async def run():
            client = await AsyncDetectionClient.connect(f"repro://{host}:{port}", namespace="s")
            await client.ingest("app", trace[:90])
            snap = await client.snapshot()
            await client.close()
            client = await AsyncDetectionClient.connect(
                f"repro://{host}:{port}", namespace="s", fresh=True
            )
            restored = await client.restore(snap)
            tail = await client.ingest("app", trace[90:])
            await client.close()
            return restored, tail

        restored, tail = asyncio.run(run())
        pool = DetectorPool(event_config())
        pool.ingest("app", trace[:90])
        expected = pool.ingest("app", trace[90:])
        assert restored == 1
        assert keyed(tail) == keyed(expected)


class TestHandshakeFailures:
    def test_failed_handshake_closes_the_socket(self, daemon, monkeypatch):
        opened = []
        open_socket = DetectionClient._open_socket

        def recording(endpoint):
            opened.append(open_socket(endpoint))
            return opened[-1]

        monkeypatch.setattr(DetectionClient, "_open_socket", staticmethod(recording))
        host, port = daemon(event_config())
        with pytest.raises((ServerError, ConnectionError)):
            DetectionClient(f"repro://{host}:{port}", namespace="bad/name")
        assert len(opened) == 1 and opened[0].fileno() == -1

    def test_failed_async_handshake_closes_the_connection(self, daemon, monkeypatch):
        writers = []
        open_connection = asyncio.open_connection

        async def recording(*args, **kwargs):
            reader, writer = await open_connection(*args, **kwargs)
            writers.append(writer)
            return reader, writer

        monkeypatch.setattr(asyncio, "open_connection", recording)
        host, port = daemon(event_config())

        async def run():
            with pytest.raises((ServerError, ConnectionError)):
                await AsyncDetectionClient.connect(
                    f"repro://{host}:{port}", namespace="bad/name"
                )
            # The writer is closed and the reader task has finished.
            assert len(writers) == 1 and writers[0].is_closing()
            assert asyncio.all_tasks() == {asyncio.current_task()}

        asyncio.run(run())

    def test_connect_times_out_on_a_silent_listener(self):
        """Both clients bound connect + HELLO by the endpoint's timeout."""
        import socket
        import time

        with socket.create_server(("127.0.0.1", 0)) as listener:
            url = f"repro://127.0.0.1:{listener.getsockname()[1]}?timeout=0.5"
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                DetectionClient(url)
            assert time.monotonic() - started < 3.0

            async def run():
                task = asyncio.ensure_future(AsyncDetectionClient.connect(url))
                done, _ = await asyncio.wait({task}, timeout=5.0)
                if not done:
                    task.cancel()
                    await asyncio.gather(task, return_exceptions=True)
                    pytest.fail("the async connect outlived its endpoint timeout")
                return task.exception()

            assert isinstance(asyncio.run(run()), TimeoutError)

    @staticmethod
    def _answer(host, port, payload: bytes):
        """Send ``payload`` as a new peer; the daemon's ERROR message, or
        ``None`` when it closed without one.  Raises ``TimeoutError``
        when the daemon neither answers nor closes within a second."""
        import socket

        from repro.server import protocol
        from repro.server.protocol import FrameType

        with socket.create_connection((host, port), timeout=1.0) as sock:
            sock.sendall(payload)
            try:
                frame = protocol.read_frame(sock)
            except ConnectionError:
                return None
            assert frame.type == FrameType.ERROR
            assert sock.recv(1) == b""
            return frame.meta["message"]

    def test_oversized_hello_header_is_refused_before_its_payload(self, daemon):
        """A header announcing a 256 MiB HELLO is refused at once, before
        the token is checked and without buffering the payload."""
        import struct

        from repro.server import protocol
        from repro.server.protocol import FrameType

        host, port = daemon(event_config(), auth_token="s3cret")
        header = struct.pack(
            "!4sHHI", protocol.MAGIC, 2, int(FrameType.HELLO), 256 << 20
        )
        message = self._answer(host, port, header)
        assert message is None or "exceeds" in message
        url = f"repro://s3cret@{host}:{port}"
        with DetectionClient(url, namespace="ns") as client:
            assert client.ingest("app", [1, 2, 3] * 30) is not None
            handshake = client.stats()["server"]["handshake"]
        assert handshake["oversized"] == 1

    def test_silent_socket_is_closed_at_the_handshake_deadline(
        self, daemon, monkeypatch
    ):
        import repro.server.frontend as frontend

        monkeypatch.setattr(frontend, "HANDSHAKE_TIMEOUT", 0.2)
        host, port = daemon(event_config())
        message = self._answer(host, port, b"")
        assert message is None or "HELLO" in message
        with DetectionClient(f"repro://{host}:{port}", namespace="ns") as client:
            assert client.ingest("app", [1, 2, 3] * 30) is not None
            handshake = client.stats()["server"]["handshake"]
        assert handshake["timeouts"] == 1
