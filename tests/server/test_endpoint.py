"""Endpoint URL grammar, deprecated-signature shims, and TLS transport.

The TLS tests run a real loopback server with the committed localhost
certificate (``certs/``) and pin it as the client CA; the reconnect
regression kills a TLS+auth server mid-retry-loop and asserts the
retries re-present the token and rebuild the TLS context, resuming
seq-exact.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from _server_helpers import (
    TLS_CERT,
    TLS_KEY,
    event_config,
    event_traces,
    magnitude_traces,
)
from repro.server import connect, connect_async
from repro.server.client import (
    AsyncDetectionClient,
    DetectionClient,
    ServerError,
)
from repro.server.endpoint import DEFAULT_TIMEOUT, Endpoint, resolve_endpoint
from repro.server.protocol import ProtocolError
from repro.server.server import ServerConfig
from repro.service.events import PeriodStartEvent
from repro.util.validation import ValidationError


class TestEndpointParse:
    def test_plain_url(self):
        ep = Endpoint.parse("repro://10.0.0.5:9000")
        assert (ep.host, ep.port, ep.tls) == ("10.0.0.5", 9000, False)
        assert ep.token is None
        assert ep.timeout == DEFAULT_TIMEOUT

    def test_tls_url_with_token_and_params(self):
        ep = Endpoint.parse(
            "repros://s3cret%40x@example.org:8757?ca=/tmp/ca.pem&insecure=1&timeout=5"
        )
        assert ep.tls
        assert ep.token == "s3cret@x"  # userinfo is percent-decoded
        assert ep.tls_ca == "/tmp/ca.pem"
        assert ep.tls_insecure
        assert ep.timeout == 5.0

    def test_bare_host_port(self):
        ep = Endpoint.parse("127.0.0.1:8757")
        assert (ep.host, ep.port, ep.tls, ep.token) == ("127.0.0.1", 8757, False, None)

    def test_parse_overrides(self):
        ep = Endpoint.parse("repros://h:1", token="t", tls_ca="ca.pem")
        assert ep.token == "t" and ep.tls_ca == "ca.pem"

    @pytest.mark.parametrize(
        "bad",
        [
            "http://h:1",  # wrong scheme
            "repro://:1",  # no host
            "repro://h",  # no port
            "justahost",  # neither URL nor HOST:PORT
            "h:notaport",
            "repro://h:1?timeout=soon",
            "",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValidationError):
            Endpoint.parse(bad)

    def test_str_redacts_token(self):
        ep = Endpoint.parse("repros://secret@h:1")
        assert "secret" not in str(ep)
        assert str(ep) == "repros://h:1"

    def test_validation(self):
        with pytest.raises(ValidationError):
            Endpoint(host="")
        with pytest.raises(ValidationError):
            Endpoint(port=70000)
        with pytest.raises(ValidationError):
            Endpoint(timeout=0)


class TestResolveEndpoint:
    def test_endpoint_passthrough(self):
        ep = Endpoint(host="h", port=1)
        assert resolve_endpoint(ep) is ep

    def test_endpoint_plus_port_is_an_error(self):
        with pytest.raises(TypeError):
            resolve_endpoint(Endpoint(), 8757)

    def test_host_port_pair_is_refused(self):
        with pytest.raises(TypeError):
            resolve_endpoint("localhost", 8757)
        with pytest.raises(TypeError):
            DetectionClient("localhost", 8757)
        with pytest.raises(TypeError):
            AsyncDetectionClient.connect("localhost", 8757)

    def test_url_string(self):
        ep = resolve_endpoint("repros://h:2", token="t", timeout=None)
        assert ep.tls and ep.token == "t" and ep.timeout is None

    def test_rejects_non_endpoint(self):
        with pytest.raises(TypeError):
            resolve_endpoint(42)


class TestTLSTransport:
    def _tls_config(self, **overrides) -> ServerConfig:
        options = dict(tls_cert=TLS_CERT, tls_key=TLS_KEY)
        options.update(overrides)
        return ServerConfig(**options)

    def test_tls_roundtrip_blocking(self, loopback):
        thread, host, port = loopback(server_config=self._tls_config())
        url = f"repros://{host}:{port}?ca={TLS_CERT}"
        with connect(url, namespace="ns") as client:
            events = client.ingest("app", [7, 8, 9] * 40)
        assert events and all(isinstance(e, PeriodStartEvent) for e in events)

    def test_tls_roundtrip_async(self, loopback):
        thread, host, port = loopback(server_config=self._tls_config())
        endpoint = Endpoint(host=host, port=port, tls=True, tls_ca=TLS_CERT)

        async def run():
            client = await connect_async(endpoint, namespace="ns")
            try:
                return await client.ingest("app", [1, 2, 3] * 40)
            finally:
                await client.close()

        assert asyncio.run(run())

    def test_tls_large_lockstep_frame(self, loopback):
        """A hot frame past the scatter-gather threshold survives TLS.

        ``ssl.SSLSocket`` has no usable ``sendmsg``; frames above the
        coalescing threshold must fall back to one joined ``sendall``.
        """
        thread, host, port = loopback(server_config=self._tls_config())
        traces = magnitude_traces(120, samples=256)  # ~240 KiB matrix
        with connect(f"repros://{host}:{port}?ca={TLS_CERT}", namespace="ns") as client:
            client.ingest_lockstep(traces)
            assert client.stats()["pool"]["streams"] == len(traces)

    def test_plaintext_client_refused_by_tls_server(self, loopback):
        thread, host, port = loopback(server_config=self._tls_config())
        with pytest.raises((OSError, ProtocolError, ServerError)):
            DetectionClient(Endpoint(host=host, port=port, timeout=5.0))

    def test_tls_client_refused_by_plaintext_server(self, loopback):
        thread, host, port = loopback()
        with pytest.raises(OSError):
            DetectionClient(
                Endpoint(host=host, port=port, tls=True, tls_ca=TLS_CERT, timeout=5.0)
            )

    def test_untrusted_certificate_rejected_unless_insecure(self, loopback):
        thread, host, port = loopback(server_config=self._tls_config())
        # No CA pin: the self-signed cert fails system-store verification.
        with pytest.raises(OSError):
            DetectionClient(Endpoint(host=host, port=port, tls=True, timeout=5.0))
        with DetectionClient(
            Endpoint(host=host, port=port, tls=True, tls_insecure=True)
        ) as client:
            assert client.ingest("app", [1, 2, 3] * 30) is not None


class TestTLSReconnect:
    def test_retries_resend_token_and_rebuild_tls_context(self, tmp_path, loopback):
        """Kill/restart a TLS+auth server under a retrying connect.

        Every retry attempt must rebuild the TLS context and re-present
        the token — the first attempts fail against the dead port, the
        winning one lands on the respawned server — and the resumed
        session must continue seq numbering exactly.
        """
        state = str(tmp_path / "state")
        config = dict(
            tls_cert=TLS_CERT,
            tls_key=TLS_KEY,
            auth_token="tok",
            state_dir=state,
            checkpoint_interval=60.0,
        )
        thread, host, port = loopback(server_config=ServerConfig(**config))
        url = f"repros://tok@{host}:{port}?ca={TLS_CERT}"
        traces = event_traces(2, samples=150)
        with connect(url, namespace="ns") as client:
            live = {sid: client.ingest(sid, trace) for sid, trace in traces.items()}
            resume = dict(client.last_seqs)
        assert any(live.values())
        thread.stop()  # graceful stop checkpoints; the port is now dead

        result: dict = {}

        def reconnect():
            try:
                result["client"] = DetectionClient(
                    url,
                    namespace="ns",
                    connect_retries=60,
                    retry_delay=0.1,
                    resume_seqs=resume,
                )
            except BaseException as exc:  # surfaced by the main thread
                result["error"] = exc

        worker = threading.Thread(target=reconnect)
        worker.start()
        # Let a few attempts fail against the closed port first.
        worker.join(timeout=0.5)
        loopback(server_config=ServerConfig(port=port, **config))
        worker.join(timeout=30.0)
        assert not worker.is_alive()
        assert "error" not in result, result.get("error")
        with result["client"] as client:
            for sid, events in live.items():
                replayed, gap = client.replay(sid, 0)
                assert gap is None
                assert [e.seq for e in replayed] == [e.seq for e in events]
                more = client.ingest(sid, traces[sid][:40])
                if events and more:
                    assert more[0].seq == events[-1].seq + 1

    def test_async_connect_retries_through_restart(self, tmp_path, loopback):
        config = dict(tls_cert=TLS_CERT, tls_key=TLS_KEY, auth_token="tok")
        thread, host, port = loopback(server_config=ServerConfig(**config))
        thread.stop()
        endpoint = Endpoint(
            host=host, port=port, tls=True, tls_ca=TLS_CERT, token="tok"
        )

        async def run():
            task = asyncio.ensure_future(
                AsyncDetectionClient.connect(
                    endpoint, namespace="ns", connect_retries=60, retry_delay=0.1
                )
            )
            await asyncio.sleep(0.4)
            assert not task.done()  # still retrying against the dead port
            await asyncio.to_thread(
                loopback, None, ServerConfig(port=port, **config)
            )
            client = await asyncio.wait_for(task, timeout=30.0)
            try:
                return await client.ingest("app", [5, 6, 7] * 30)
            finally:
                await client.close()

        assert asyncio.run(run()) is not None
