"""Network detection service: asyncio daemon + wire protocol + clients.

The :mod:`repro.service` layer turned the paper's single detector into a
multi-stream library (:class:`~repro.service.pool.DetectorPool`,
:class:`~repro.service.sharding.ShardedDetectorPool`).  This package
turns that library into a *service*: remote producers push sample
batches over TCP, the server routes them into the (optionally sharded)
pool without ever blocking its event loop, and subscribers receive
:class:`~repro.service.events.PeriodStartEvent` frames as they fire.

* :mod:`repro.server.protocol` — the length-prefixed, versioned binary
  frame format shared by both ends (NumPy payloads travel as raw
  buffers, not pickles);
* :mod:`repro.server.server` — the asyncio daemon
  (:class:`DetectionServer`, ``repro serve``) with per-connection stream
  namespacing, bounded queues with explicit ``BUSY`` backpressure,
  cross-connection batch coalescing into ``ingest_many`` and graceful
  drain on shutdown;
* :mod:`repro.server.frontend` — the daemon frontend both daemons
  share: connection state, the bounded HELLO handshake (size cap,
  deadline, token auth, version negotiation), REGISTER, the batched
  writer loop, the shared config fields and the loop-thread host;
* :mod:`repro.server.client` — the blocking
  (:class:`DetectionClient`) and asyncio
  (:class:`AsyncDetectionClient`) client libraries used by the CLI, the
  benchmarks and the tests;
* :mod:`repro.server.persistence` — durable server state
  (:class:`CheckpointStore`, :class:`Checkpointer`): crash-safe
  incremental checkpoints under ``repro serve --state-dir`` and the
  warm-restart restore path;
* :mod:`repro.server.router` — the multi-node tier
  (:class:`DetectionRouter`, ``repro route``): consistent-hash stream
  placement across N backend daemons behind one server endpoint, with
  zero-JSON hot-frame forwarding, seq-coherent event fan-in and
  snapshot-based live migration on node join/leave;
* :mod:`repro.server.endpoint` — the unified :class:`Endpoint`
  abstraction (``repro://`` / ``repros://`` URLs) every connect path
  accepts, carrying host, port, TLS parameters, auth token and timeout;
* :mod:`repro.server.auth` — optional HELLO token authentication
  (:class:`TokenAuthenticator`), constant-time comparison, tokens
  mapped to tenant namespaces;
* :mod:`repro.server.quotas` — per-namespace admission quotas
  (:class:`QuotaManager`): stream caps, sample-rate token buckets and
  subscriber caps, denied via in-order ERROR/BUSY replies.

Connecting is one call — a URL names the server, its security and the
tenant credential in one string::

    from repro.server import connect

    with connect("repros://token@detector.example:8757?ca=ca.pem") as client:
        client.register(["sensor-1"])
        events = client.ingest("sensor-1", samples)

``connect_async`` is the asyncio twin; both accept an
:class:`Endpoint` instead of a URL, plus keyword overrides.
"""

from repro.server.auth import AuthError, TokenAuthenticator
from repro.server.client import AsyncDetectionClient, DetectionClient
from repro.server.endpoint import Endpoint, server_ssl_context
from repro.server.persistence import (
    CheckpointError,
    CheckpointStore,
    CheckpointVersionError,
    Checkpointer,
    CorruptSegmentError,
)
from repro.server.protocol import PROTOCOL_VERSION, Frame, FrameType, ProtocolError
from repro.server.quotas import QuotaManager, QuotaPolicy
from repro.server.router import DetectionRouter, RouterConfig, RouterThread
from repro.server.server import DetectionServer, ServerConfig, ServerThread

__all__ = [
    "AsyncDetectionClient",
    "AuthError",
    "CheckpointError",
    "CheckpointStore",
    "CheckpointVersionError",
    "Checkpointer",
    "CorruptSegmentError",
    "DetectionClient",
    "DetectionRouter",
    "DetectionServer",
    "Endpoint",
    "Frame",
    "FrameType",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QuotaManager",
    "QuotaPolicy",
    "RouterConfig",
    "RouterThread",
    "ServerConfig",
    "ServerThread",
    "TokenAuthenticator",
    "connect",
    "connect_async",
    "server_ssl_context",
]


def connect(endpoint, **overrides) -> DetectionClient:
    """Open a blocking :class:`DetectionClient` to ``endpoint``.

    ``endpoint`` is an :class:`Endpoint` or a ``repro://`` /
    ``repros://`` URL string; keyword ``overrides`` pass straight
    through to :class:`DetectionClient` (``namespace``, ``token``,
    ``tls_ca``, ``connect_retries``, ...).
    """
    return DetectionClient(endpoint, **overrides)


async def connect_async(endpoint, **overrides) -> AsyncDetectionClient:
    """Asyncio twin of :func:`connect`.

    Returns a connected :class:`AsyncDetectionClient`; accepts the
    same endpoint forms and keyword overrides as
    :meth:`AsyncDetectionClient.connect`.
    """
    return await AsyncDetectionClient.connect(endpoint, **overrides)
