"""The one wire version at HELLO, and handle-table faults.

Both daemons speak protocol 3 only: a HELLO that does not name it is
answered with one ERROR and closed before the daemon acts on it, and a
client refuses a server whose HELLO reply does not name it.  Handle
faults (unknown or stale handles on a hot frame) are request errors,
never connection teardowns.
"""

from __future__ import annotations

import asyncio
import socket
import threading

import numpy as np
import pytest

from _server_helpers import event_config, event_traces, magnitude_traces
from repro.server import protocol
from repro.server.client import (
    AsyncDetectionClient,
    DetectionClient,
    ServerError,
    _check,
)
from repro.server.protocol import (
    PROTOCOL_VERSION,
    FrameType,
    ProtocolError,
    encode_hot_ingest,
)
from repro.service.pool import DetectorPool, PoolConfig

#: A HELLO without a ``protocol`` key, as every version-2 peer sends.
MISSING = object()


def keyed(events, strip=""):
    per_stream: dict[str, list] = {}
    for e in events:
        per_stream.setdefault(e.stream_id.removeprefix(strip), []).append(
            (e.index, e.period, e.new_detection, e.seq)
        )
    return per_stream


def hot_ingest(handles, matrix):
    """A hand-made INGEST_HOT frame, sent past the client's own checks."""
    return encode_hot_ingest(FrameType.INGEST_HOT, handles, matrix)


def direct(traces, namespace, config=None):
    pool = DetectorPool(config or event_config())
    prefixed = {f"{namespace}/{sid}": v for sid, v in traces.items()}
    return keyed(pool.ingest_many(prefixed), strip=f"{namespace}/")


# ----------------------------------------------------------------------
# the one wire version
# ----------------------------------------------------------------------
class TestProtocol3:
    def test_client_speaks_protocol_3_with_interned_handles(self, loopback):
        _, host, port = loopback()
        traces = event_traces(6, samples=128)
        with DetectionClient(f"repro://{host}:{port}", namespace="n") as client:
            assert client.server_info["protocol"] == PROTOCOL_VERSION
            remote = keyed(client.ingest_many(traces))
            stats = client.stats()["server"]
            assert stats["protocol"] == {
                "supported": PROTOCOL_VERSION,
                "connection": PROTOCOL_VERSION,
            }
            # The hot path carried the ingest: handles were interned for
            # every stream of the fleet.
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

    def test_samples_without_a_wire_code(self, loopback):
        """float16 widens exactly; other dtypes are refused before a
        byte is sent, so the connection stays in step."""
        _, host, port = loopback()
        trace = np.tile(np.arange(5), 30)
        with DetectionClient(f"repro://{host}:{port}", namespace="n") as client:
            widened = keyed(client.ingest_many({"h": trace.astype(np.float16)}))
            for bad in (trace.astype(np.complex128), trace.astype(str), [1, "x"]):
                with pytest.raises(ValueError, match="wire"):
                    client.ingest_many({"h2": bad, "h3": trace})
                with pytest.raises(ValueError, match="wire"):
                    client.ingest_lockstep({"h2": bad})
            assert "h2" not in client._session.handles.of_name
            assert client.stats()["pool"]["streams"] == 1
        assert widened == direct({"h": trace}, "n")


def refused_hello(host, port, meta) -> protocol.Frame:
    """Send one raw HELLO; returns the answer after asserting it was the
    only frame before the daemon closed the connection."""
    with socket.create_connection((host, port), timeout=10) as sock:
        protocol.write_frame(sock, FrameType.HELLO, meta)
        frame = protocol.read_frame(sock)
        assert sock.recv(1) == b""  # nothing else, then the close
    return frame


class TestOldPeersRefusedAtHello:
    @pytest.mark.parametrize("auth", [False, True], ids=["open", "auth"])
    @pytest.mark.parametrize(
        "spoken", [MISSING, 2, True, "3"], ids=["missing", "2", "true", "str"]
    )
    def test_hello_without_protocol_3_is_refused(self, daemon, auth, spoken):
        host, port = daemon(**({"auth_token": "s3cret"} if auth else {}))
        url = f"repro://{'s3cret@' if auth else ''}{host}:{port}"
        traces = event_traces(3, samples=96)
        with DetectionClient(url, namespace="n") as client:
            client.ingest_many(traces)
        # A fresh=True HELLO would purge namespace "n", were it accepted.
        meta = {"namespace": "n", "fresh": True}
        if auth:
            meta["token"] = "s3cret"
        if spoken is not MISSING:
            meta["protocol"] = spoken
        frame = refused_hello(host, port, meta)
        assert frame.type == FrameType.ERROR
        assert "protocol" in frame.meta["message"]
        # The next client is served, the namespace kept its streams and
        # the refused peer took no connection number.
        with DetectionClient(url, namespace="n") as client:
            assert client.stats()["pool"]["streams"] == len(traces)
        with DetectionClient(url) as anonymous:
            assert anonymous.namespace[1:] == "3"

    def test_auth_is_checked_first(self, daemon):
        host, port = daemon(auth_token="s3cret")
        frame = refused_hello(host, port, {"namespace": "n", "token": "wrong"})
        assert frame.type == FrameType.ERROR
        assert frame.meta["auth"] == "denied"


@pytest.fixture
def old_server():
    """Factory: a listener that answers every HELLO with ``reply_meta``
    in a version-2 header, as an old daemon would; returns its URL."""
    listeners: list[socket.socket] = []
    threads: list[threading.Thread] = []

    def start(reply_meta: dict, connections: int) -> str:
        listener = socket.create_server(("127.0.0.1", 0))
        listeners.append(listener)

        def serve() -> None:
            for _ in range(connections):
                conn, _ = listener.accept()
                with conn:
                    protocol.read_frame(conn)
                    blob = b"".join(
                        bytes(b) for b in protocol.encode_frame(FrameType.OK, reply_meta)
                    )
                    conn.sendall(blob[:4] + (2).to_bytes(2, "big") + blob[6:])
                    conn.recv(1)  # until the client closes

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        threads.append(thread)
        host, port = listener.getsockname()
        return f"repro://{host}:{port}"

    yield start
    for thread in threads:
        thread.join(timeout=10)
    for listener in listeners:
        listener.close()


class TestClientRefusesOldServers:
    @pytest.mark.parametrize(
        "reply", [{}, {"protocol": 2}, {"protocol": True}], ids=["missing", "2", "true"]
    )
    def test_both_clients_refuse_a_reply_without_protocol_3(self, old_server, reply):
        url = old_server({"namespace": "n", **reply}, connections=2)
        with pytest.raises(ProtocolError, match="wire protocol"):
            DetectionClient(url)

        async def run():
            with pytest.raises(ProtocolError, match="wire protocol"):
                await AsyncDetectionClient.connect(url)

        asyncio.run(run())


# ----------------------------------------------------------------------
# handle-table faults
# ----------------------------------------------------------------------
class TestHandleFaults:
    def test_unknown_handle_is_an_error_not_a_disconnect(self, loopback):
        _, host, port = loopback()
        matrix = (np.arange(32.0) % 4).reshape(1, -1)
        with DetectionClient(f"repro://{host}:{port}", namespace="n") as client:
            client._send(hot_ingest([99], matrix))
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
            client._send(hot_ingest(stale, matrix))
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
            client._send(hot_ingest([handle, handle], np.zeros((2, 8))))
            with pytest.raises((ServerError, ConnectionError)):
                _check(client._read_reply())
                client._read_reply()  # server tears the connection down

    def test_magnitude_mode_hot_path_equivalence(self, loopback):
        """Hot frames also carry magnitude-mode fleets faithfully."""
        from repro.core.detector import DetectorConfig

        config = PoolConfig(
            mode="magnitude",
            detector_config=DetectorConfig(window_size=64, evaluation_interval=4),
        )
        _, host, port = loopback(config)
        traces = magnitude_traces(5, samples=192)
        with DetectionClient(f"repro://{host}:{port}", namespace="m") as client:
            assert keyed(client.ingest_many(traces)) == direct(traces, "m", config)
