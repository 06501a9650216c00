"""HELLO token authentication: server, router, old peers, TLS.

The contract under test: a missing/unknown/expired token answers ERROR
and closes *before any pool mutation* (a rejected ``fresh`` handshake
drops nothing), the token scan is constant-time (every configured
token is compared even after a match), and a token's forced namespace
overrides the client-requested one.
"""

from __future__ import annotations

import asyncio
import json
import socket

import pytest

import repro.server.auth as auth_module
from _server_helpers import TLS_CERT, TLS_KEY, event_config
from repro.server import protocol
from repro.server.auth import AuthError, TokenAuthenticator
from repro.server.client import AsyncDetectionClient, DetectionClient, ServerError
from repro.server.endpoint import Endpoint
from repro.server.protocol import FrameType
from repro.server.router import RouterConfig, RouterThread
from repro.server.server import ServerConfig


def _client(host, port, **kwargs) -> DetectionClient:
    return DetectionClient(Endpoint(host=host, port=port), **kwargs)


class TestTokenAuthenticator:
    def test_single_token(self):
        authn = TokenAuthenticator({"tok": None})
        assert authn.authenticate("tok") is None
        with pytest.raises(AuthError, match="invalid or missing"):
            authn.authenticate("nope")
        with pytest.raises(AuthError, match="invalid or missing"):
            authn.authenticate(None)

    def test_forced_namespace(self):
        authn = TokenAuthenticator({"a": "tenant-a", "b": None})
        assert authn.authenticate("a") == "tenant-a"
        assert authn.authenticate("b") is None

    def test_expiry(self):
        authn = TokenAuthenticator({"t": None}, expires={"t": 100.0})
        assert authn.authenticate("t", now=99.0) is None
        with pytest.raises(AuthError, match="expired"):
            authn.authenticate("t", now=100.0)

    def test_constant_time_scan_compares_every_token(self, monkeypatch):
        calls = []
        real = auth_module.hmac.compare_digest

        def counting(a, b):
            calls.append(b)
            return real(a, b)

        monkeypatch.setattr(auth_module.hmac, "compare_digest", counting)
        authn = TokenAuthenticator({"aa": None, "bb": None, "cc": None})
        authn.authenticate("aa")  # matches the first configured token
        assert len(calls) == 3  # ... but every token was still compared
        calls.clear()
        with pytest.raises(AuthError):
            authn.authenticate("zz")
        assert len(calls) == 3

    def test_from_file(self, tmp_path):
        path = tmp_path / "tokens"
        path.write_text(
            "# comment\n"
            "plain\n"
            "pinned:tenant-a\n"
            "expiring:tenant-b:100.5\n"
            "\n"
        )
        authn = TokenAuthenticator.from_file(path)
        assert len(authn) == 3
        assert authn.authenticate("plain") is None
        assert authn.authenticate("pinned") == "tenant-a"
        assert authn.authenticate("expiring", now=50.0) == "tenant-b"
        with pytest.raises(AuthError, match="expired"):
            authn.authenticate("expiring", now=200.0)

    @pytest.mark.parametrize("line", ["a:b:c:d", ":ns", "tok:ns:soon"])
    def test_from_file_rejects_malformed(self, tmp_path, line):
        path = tmp_path / "tokens"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match="tokens:1"):
            TokenAuthenticator.from_file(path)

    def test_from_config(self, tmp_path):
        assert TokenAuthenticator.from_config() is None
        path = tmp_path / "tokens"
        path.write_text("filetok:tenant-f\n")
        authn = TokenAuthenticator.from_config(
            token="single", token_file=path, tokens={"mapped": "tenant-m"}
        )
        assert authn is not None and len(authn) == 3
        assert authn.authenticate("single") is None
        assert authn.authenticate("filetok") == "tenant-f"
        assert authn.authenticate("mapped") == "tenant-m"

    def test_requires_tokens(self):
        with pytest.raises(ValueError):
            TokenAuthenticator({})


class TestServerAuth:
    def test_tokenless_server_stays_open(self, loopback):
        thread, host, port = loopback()
        with _client(host, port, namespace="ns") as client:
            assert client.ingest("app", [1, 2, 3] * 30) is not None

    def test_missing_and_wrong_token_rejected(self, loopback):
        thread, host, port = loopback(
            server_config=ServerConfig(auth_token="s3cret")
        )
        with pytest.raises(ServerError, match="authentication failed"):
            _client(host, port)
        with pytest.raises(ServerError, match="authentication failed"):
            _client(host, port, token="wrong")
        with _client(host, port, token="s3cret", namespace="ns") as client:
            assert client.ingest("app", [1, 2, 3] * 30) is not None

    def test_rejected_fresh_handshake_mutates_nothing(self, loopback):
        thread, host, port = loopback(
            server_config=ServerConfig(auth_token="s3cret")
        )
        with _client(host, port, token="s3cret", namespace="ns") as client:
            live = client.ingest("app", [7, 8, 9] * 40)
        assert live
        # A rejected peer asking for the same namespace with fresh=True
        # must not drop its streams or journal.
        with pytest.raises(ServerError):
            _client(host, port, token="wrong", namespace="ns", fresh=True)
        with _client(host, port, token="s3cret", namespace="ns") as client:
            stats = client.stats()
            assert stats["pool"]["streams"] == 1
            replayed, gap = client.replay("app", 0)
            assert gap is None
            assert [e.seq for e in replayed] == [e.seq for e in live]
            auth_stats = stats["server"]["auth"]
            assert auth_stats["rejected"] >= 1
            assert auth_stats["accepted"] >= 2

    def test_expired_token_rejected(self, tmp_path, loopback):
        path = tmp_path / "tokens"
        path.write_text("old:tenant:1000000000\nfresh:tenant\n")
        thread, host, port = loopback(
            server_config=ServerConfig(auth_token_file=str(path))
        )
        with pytest.raises(ServerError, match="authentication failed"):
            _client(host, port, token="old")
        with _client(host, port, token="fresh") as client:
            assert client.namespace == "tenant"

    def test_token_forces_namespace(self, tmp_path, loopback):
        path = tmp_path / "tokens"
        path.write_text("a-token:tenant-a\nfree-token\n")
        thread, host, port = loopback(
            server_config=ServerConfig(auth_token_file=str(path))
        )
        # The credential wins over the requested namespace ...
        with _client(host, port, token="a-token", namespace="other") as client:
            assert client.namespace == "tenant-a"
        # ... while an unpinned token leaves the namespace to the client.
        with _client(host, port, token="free-token", namespace="mine") as client:
            assert client.namespace == "mine"

    def test_old_peer_meets_the_token_check_first(self, loopback):
        """A version-2 HELLO (no ``protocol`` key) is denied for a bad
        token and refused for its protocol with a good one."""
        thread, host, port = loopback(
            server_config=ServerConfig(auth_token="s3cret")
        )
        answers = []
        for token in ("wrong", "s3cret"):
            with socket.create_connection((host, port), timeout=10) as sock:
                protocol.write_frame(sock, FrameType.HELLO, {"token": token})
                answers.append(protocol.read_frame(sock))
                assert sock.recv(1) == b""
        denied, refused = answers
        assert denied.type == refused.type == FrameType.ERROR
        assert denied.meta["auth"] == "denied"
        assert "auth" not in refused.meta
        assert "protocol" in refused.meta["message"]
        with _client(host, port, token="s3cret") as client:
            assert client.ingest("app", [1, 2, 3] * 30) is not None

    def test_async_client_auth(self, loopback):
        thread, host, port = loopback(
            server_config=ServerConfig(auth_token="s3cret")
        )
        endpoint = Endpoint(host=host, port=port)

        async def run():
            with pytest.raises(ServerError, match="authentication failed"):
                await AsyncDetectionClient.connect(endpoint, namespace="ns")
            client = await AsyncDetectionClient.connect(
                endpoint, namespace="ns", token="s3cret"
            )
            try:
                return await client.ingest("app", [1, 2, 3] * 30)
            finally:
                await client.close()

        assert asyncio.run(run()) is not None

    def test_tls_plus_auth(self, loopback):
        thread, host, port = loopback(
            server_config=ServerConfig(
                tls_cert=TLS_CERT, tls_key=TLS_KEY, auth_token="s3cret"
            )
        )
        url = f"repros://s3cret@{host}:{port}?ca={TLS_CERT}"
        with DetectionClient(url, namespace="ns") as client:
            assert client.ingest("app", [4, 5, 6] * 30) is not None
        with pytest.raises(ServerError, match="authentication failed"):
            DetectionClient(f"repros://{host}:{port}?ca={TLS_CERT}")


class TestRouterAuth:
    def test_router_requires_token_and_mutates_nothing(self, loopback):
        thread, host, port = loopback(pool_config=event_config())
        with RouterThread(
            [f"{host}:{port}"], RouterConfig(auth_token="upstream")
        ) as (rhost, rport):
            with pytest.raises(ServerError, match="authentication failed"):
                _client(rhost, rport, namespace="ns")
            with _client(
                rhost, rport, namespace="ns", token="upstream"
            ) as client:
                live = client.ingest("app", [1, 2, 3] * 40)
                assert live
            # A rejected fresh handshake reaches no backend: the stream
            # (and its seq history) survives on the fleet.
            with pytest.raises(ServerError):
                _client(rhost, rport, namespace="ns", token="bad", fresh=True)
            with _client(
                rhost, rport, namespace="ns", token="upstream"
            ) as client:
                replayed, gap = client.replay("app", 0)
                assert gap is None
                assert [e.seq for e in replayed] == [e.seq for e in live]
                auth_stats = client.stats()["server"]["auth"]
                assert auth_stats["rejected"] >= 2

    def test_router_presents_backend_token(self, loopback):
        thread, host, port = loopback(
            pool_config=event_config(),
            server_config=ServerConfig(auth_token="backend-secret"),
        )
        config = RouterConfig(backend_token="backend-secret")
        with RouterThread([f"{host}:{port}"], config) as (rhost, rport):
            with _client(rhost, rport, namespace="ns") as client:
                assert client.ingest("app", [1, 2, 3] * 40)

    def test_backend_url_token_never_reported(self, loopback):
        """A backend named by a token-carrying URL is keyed and reported
        without the token: not in STATS, not in ``router.backends``."""
        _, host, port = loopback(
            pool_config=event_config(),
            server_config=ServerConfig(auth_token="backend-secret"),
        )
        _, host2, port2 = loopback(pool_config=event_config())
        bare = f"{host2}:{port2}"
        thread = RouterThread([f"repro://backend-secret@{host}:{port}", bare])
        with thread as (rhost, rport):
            with _client(rhost, rport, namespace="ns") as client:
                assert client.ingest_many({f"s{i}": [1, 2, 3] * 40 for i in range(8)})
                stats = client.stats()
            names = sorted([f"repro://{host}:{port}", bare])
            assert thread.router.backends == names
            assert "backend-secret" not in json.dumps(stats)
            assert stats["server"]["router"]["backends"] == names
            assert sorted(stats["server"]["backends"]) == names
            # A bare HOST:PORT backend keeps its name, and so its ring
            # placement.
            assert bare in stats["server"]["router"]["ring"]["nodes"]

    def test_router_without_backend_token_cannot_join(self, loopback):
        thread, host, port = loopback(
            pool_config=event_config(),
            server_config=ServerConfig(auth_token="backend-secret"),
        )
        with RouterThread([f"{host}:{port}"], RouterConfig(connect_retries=0)) as (
            rhost,
            rport,
        ):
            with pytest.raises(ServerError):
                _client(rhost, rport, namespace="ns").ingest("app", [1, 2, 3])
