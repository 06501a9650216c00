"""The unified endpoint abstraction of the network detection service.

Every way of naming a detection server — the blocking client, the
asyncio client, the router's ``--backend`` list and ``repro pool
--connect`` — accepts one :class:`Endpoint`, or the URL string it
parses from::

    repro://HOST:PORT                  plain TCP
    repros://HOST:PORT                 TLS
    repros://TOKEN@HOST:PORT           TLS + auth token (userinfo part)
    repros://HOST:PORT?ca=ca.pem       TLS, verify against a CA bundle
    repros://HOST:PORT?insecure=1      TLS without certificate checks
    HOST:PORT                          bare address, plain TCP

An endpoint carries everything a connect path needs: host, port,
whether to speak TLS (and how to verify the peer), the auth token to
present in HELLO and the socket timeout.  Query parameters ``ca``,
``insecure`` and ``timeout`` round out what the compact URL grammar
cannot say inline.

TLS contexts are deliberately *not* cached on the endpoint:
:meth:`Endpoint.client_ssl_context` builds a fresh
:class:`ssl.SSLContext` per call, so every reconnect attempt (the
bounded-backoff retry loops in the client layer) negotiates from a
clean context instead of reusing one from a dead connection.

>>> Endpoint.parse("repro://127.0.0.1:8757").port
8757
>>> Endpoint.parse("repros://secret@10.0.0.5:9000").tls
True
>>> Endpoint.parse("10.0.0.5:9000").tls
False
>>> str(Endpoint.parse("repros://secret@10.0.0.5:9000"))  # token redacted
'repros://10.0.0.5:9000'
"""

from __future__ import annotations

import ssl
import urllib.parse
from dataclasses import dataclass, replace

from repro.util.validation import ValidationError

__all__ = [
    "DEFAULT_TIMEOUT",
    "Endpoint",
    "resolve_endpoint",
    "server_ssl_context",
]

#: Default socket timeout (seconds) of an endpoint that does not name one.
DEFAULT_TIMEOUT = 30.0

#: Sentinel distinguishing "caller did not override" from an explicit
#: ``None`` (e.g. ``timeout=None`` meaning *no* socket timeout).
_UNSET = object()

_SCHEMES = {"repro": False, "repros": True}


@dataclass(frozen=True)
class Endpoint:
    """One server address plus its transport security parameters.

    Attributes
    ----------
    host, port:
        The TCP address.
    tls:
        Speak TLS on the connection (the ``repros://`` scheme).
    token:
        Auth token presented in the HELLO handshake (``None``: none).
    tls_ca:
        CA bundle (PEM path) the peer certificate is verified against;
        ``None`` uses the system trust store.  A self-signed server
        certificate verifies against itself — pass the cert file here.
    tls_insecure:
        Disable certificate and hostname verification (testing only).
    timeout:
        Socket timeout in seconds for connect and blocking replies
        (``None``: never time out).
    """

    host: str = "127.0.0.1"
    port: int = 8757
    tls: bool = False
    token: str | None = None
    tls_ca: str | None = None
    tls_insecure: bool = False
    timeout: float | None = DEFAULT_TIMEOUT

    def __post_init__(self) -> None:
        if not self.host:
            raise ValidationError("endpoint host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise ValidationError(
                f"endpoint port must be in [0, 65535], got {self.port}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValidationError(
                f"endpoint timeout must be positive, got {self.timeout}"
            )

    @classmethod
    def parse(cls, text: str, **overrides) -> "Endpoint":
        """Parse a ``repro://``/``repros://`` URL or bare ``HOST:PORT``.

        The userinfo part carries the auth token; query parameters
        ``ca`` (CA bundle path), ``insecure`` (``1``/``true``) and
        ``timeout`` (seconds) fill the remaining fields.  Keyword
        ``overrides`` replace parsed fields afterwards.
        """
        if not isinstance(text, str) or not text:
            raise ValidationError(f"endpoint must be a URL string, got {text!r}")
        if "://" in text:
            split = urllib.parse.urlsplit(text)
            scheme = split.scheme.lower()
            if scheme not in _SCHEMES:
                raise ValidationError(
                    f"endpoint scheme must be repro:// or repros://, got {text!r}"
                )
            tls = _SCHEMES[scheme]
            host, port = split.hostname, split.port
            token = urllib.parse.unquote(split.username) if split.username else None
            params = dict(urllib.parse.parse_qsl(split.query))
        else:
            host, _, port_text = text.rpartition(":")
            if not host or not port_text.isdigit():
                raise ValidationError(
                    f"endpoint must be HOST:PORT or a repro[s]:// URL, got {text!r}"
                )
            tls, token, params = False, None, {}
            port = int(port_text)
        if not host or port is None:
            raise ValidationError(f"endpoint {text!r} must name HOST and PORT")
        fields: dict = {
            "host": host,
            "port": port,
            "tls": tls,
            "token": token,
            "tls_ca": params.get("ca"),
            "tls_insecure": str(params.get("insecure", "")).lower()
            in ("1", "true", "yes"),
        }
        if "timeout" in params:
            try:
                fields["timeout"] = float(params["timeout"])
            except ValueError as exc:
                raise ValidationError(
                    f"bad timeout in endpoint {text!r}"
                ) from exc
        fields.update(overrides)
        return cls(**fields)

    def __str__(self) -> str:
        # The token is deliberately omitted: str(endpoint) feeds logs
        # and error messages, which must never leak credentials.
        scheme = "repros" if self.tls else "repro"
        return f"{scheme}://{self.host}:{self.port}"

    def client_ssl_context(self) -> ssl.SSLContext | None:
        """A *fresh* client-side TLS context, or ``None`` when plain.

        Built anew on every call so reconnect retries never reuse a
        context from a failed attempt.
        """
        if not self.tls:
            return None
        context = ssl.create_default_context(ssl.Purpose.SERVER_AUTH)
        if self.tls_ca:
            context.load_verify_locations(cafile=self.tls_ca)
        if self.tls_insecure:
            context.check_hostname = False
            context.verify_mode = ssl.CERT_NONE
        return context


def server_ssl_context(cert: str, key: str | None = None) -> ssl.SSLContext:
    """A server-side TLS context serving ``cert`` (+ ``key``).

    ``key`` may be ``None`` when the certificate file also holds the
    private key.  Shared by ``repro serve`` and ``repro route``.
    """
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(certfile=cert, keyfile=key)
    return context


def resolve_endpoint(
    endpoint,
    *,
    token=_UNSET,
    tls_ca=_UNSET,
    tls_insecure=_UNSET,
    timeout=_UNSET,
) -> Endpoint:
    """Normalise the client constructors' first argument to an Endpoint.

    Accepts an :class:`Endpoint` or a URL string.  Explicit keyword
    ``token``/``tls_ca``/``tls_insecure``/``timeout`` values override
    whatever the endpoint carried.
    """
    if isinstance(endpoint, Endpoint):
        resolved = endpoint
    elif isinstance(endpoint, str):
        resolved = Endpoint.parse(endpoint)
    else:
        raise TypeError(
            f"endpoint must be an Endpoint or a URL string, got {endpoint!r}"
        )
    updates: dict = {}
    if token is not _UNSET:
        updates["token"] = token
    if tls_ca is not _UNSET:
        updates["tls_ca"] = tls_ca
    if tls_insecure is not _UNSET:
        updates["tls_insecure"] = bool(tls_insecure)
    if timeout is not _UNSET:
        updates["timeout"] = timeout
    return replace(resolved, **updates) if updates else resolved
