"""The daemon frontend shared by ``repro serve`` and ``repro route``.

A detection daemon has a backend that does the work — the server's
dispatcher in front of a local pool, or the router's ring of backend
links — and a frontend that carries it to remote peers.  The frontend is
the same for both daemons, so it lives here once:

* :class:`Connection`: namespace, subscription, in-flight and push
  counters, handle table and one bounded FIFO outbox for replies and
  pushes.
* Accept and handshake.  The first frame must be a HELLO of at most
  :data:`HELLO_MAX_BYTES`, refused from its header before any payload is
  read, arriving within :data:`HANDSHAKE_TIMEOUT` seconds (STATS
  ``handshake`` counts both refusals).  Then the token check (STATS
  ``auth``), the protocol check — a HELLO that does not name wire
  protocol 3 or later is answered ERROR and closed — and namespace
  assignment.
* REGISTER, and the request parsers both daemons use.
* The writer loop: one scatter-gather write per wakeup, small frames
  coalescing into pooled scratch buffers; a failed request answers
  ERROR, or BUSY when it failed with
  :class:`~repro.server.client.ServerBusy`.
* The (TLS) listener, the BYE-and-flush step of a graceful stop, the
  shared config (:class:`FrontendConfig`) and the loop-thread host
  (:class:`LoopThread`).

A daemon subclasses :class:`Frontend` and plugs in through three hooks:
``_hello(conn, fresh)`` answers the HELLO, ``_handle_request(conn,
frame)`` serves every later frame except REGISTER, and
``_release(conn)`` frees what the daemon holds for a closed connection.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass

from repro.server import protocol
from repro.server.auth import AuthError, TokenAuthenticator
from repro.server.client import ServerBusy
from repro.server.endpoint import server_ssl_context
from repro.server.protocol import Frame, FrameType, ProtocolError
from repro.service.events import PeriodStartEvent
from repro.util.logging import get_logger
from repro.util.validation import ValidationError, check_positive_int

__all__ = [
    "HANDSHAKE_TIMEOUT",
    "HELLO_MAX_BYTES",
    "Connection",
    "Frontend",
    "FrontendConfig",
    "LoopThread",
    "UnknownHandleError",
    "build_authenticator",
]

_logger = get_logger(__name__)

#: Largest HELLO payload a daemon reads.  A client HELLO carries only
#: namespace, fresh, token and protocol, so a few KiB is generous; the
#: cap keeps an unauthenticated peer from making the daemon buffer up
#: to the protocol's 1 GiB frame limit before its token is checked.
HELLO_MAX_BYTES = 4096

#: Seconds a new connection has to deliver its complete HELLO before it
#: is closed, so a silent or trickling peer cannot hold a connection
#: open without authenticating.
HANDSHAKE_TIMEOUT = 10.0

#: Seconds a graceful stop waits for the connections' writers to flush
#: behind BYE before closing them regardless (a peer that stopped
#: reading must not hold the shutdown).
_BYE_TIMEOUT = 5.0

#: Sample-carrying requests (:func:`ingest_request` parses them).
INGEST_FRAMES = frozenset((FrameType.INGEST_HOT, FrameType.LOCKSTEP_HOT))

_CLOSE = object()  # outbox sentinel: flush and stop the writer task

#: Writer-loop buffer pooling: frame buffers at or below the copy limit
#: coalesce into a reused scratch bytearray (one allocation serves many
#: wakeups); larger buffers — raw sample/event arrays — pass through to
#: the scatter-gather write uncopied.  A scratch that ballooned past the
#: cap is dropped instead of being pooled, and at most ``_SCRATCH_POOL``
#: buffers are retained per connection.
_SCRATCH_COPY_LIMIT = 1 << 15
_SCRATCH_CAP = 1 << 20
_SCRATCH_POOL = 4


class UnknownHandleError(Exception):
    """A hot frame referenced a stream handle this connection never
    registered.

    Deliberately *not* a :class:`ProtocolError`: the frame itself was
    well formed — the peer merely raced a ``fresh`` reconnect (handle
    tables are per connection and start empty) or skipped ``REGISTER``.
    The daemon answers with an ``ERROR`` frame, in order, and keeps the
    connection alive; only malformed frames disconnect.
    """


@dataclass
class FrontendConfig:
    """The settings every daemon frontend takes.

    :class:`~repro.server.server.ServerConfig` and
    :class:`~repro.server.router.RouterConfig` extend it.

    Attributes
    ----------
    host, port:
        Listen address; port 0 binds an ephemeral port (read it back
        from the daemon's ``port`` — the tests and the loopback
        benchmark do exactly that).
    max_inflight:
        Per-connection bound on unanswered ingest requests.  A request
        arriving with the bound exhausted is answered ``BUSY`` (in
        order) instead of being queued.
    push_queue:
        Per-connection bound on undelivered subscriber event pushes;
        batches beyond it are dropped and counted, never buffered
        without bound (the journals make them recoverable via REPLAY).
    tls_cert, tls_key:
        Serve TLS with this certificate chain + private key (``--tls-cert
        /--tls-key``).  Both unset (the default) keeps the listener
        plain TCP; clients then connect with a ``repros://`` endpoint.
    auth_token, auth_token_file, auth_tokens:
        When any is set, every HELLO must carry a matching ``token`` or
        the handshake is answered ``ERROR`` and closed before the
        daemon acts on it.  ``auth_token`` accepts one token (no forced
        namespace); ``auth_token_file`` loads ``token[:namespace
        [:expires]]`` lines; ``auth_tokens`` is the programmatic
        token→namespace mapping; all sources combine (see
        :mod:`repro.server.auth`).  A token's namespace, when set,
        overrides the one the client asked for.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 32
    push_queue: int = 256
    tls_cert: str | None = None
    tls_key: str | None = None
    auth_token: str | None = None
    auth_token_file: str | None = None
    auth_tokens: dict[str, str | None] | None = None

    def __post_init__(self) -> None:
        check_positive_int(self.max_inflight, "max_inflight")
        check_positive_int(self.push_queue, "push_queue")
        if not 0 <= self.port <= 65535:
            raise ValidationError(f"port must be in [0, 65535], got {self.port}")
        if bool(self.tls_cert) != bool(self.tls_key):
            raise ValidationError(
                "tls_cert and tls_key must be given together (or neither)"
            )


def build_authenticator(config: FrontendConfig) -> TokenAuthenticator | None:
    """The config's HELLO authenticator, or ``None`` when auth is off."""
    return TokenAuthenticator.from_config(
        token=config.auth_token,
        token_file=config.auth_token_file,
        tokens=config.auth_tokens,
    )


class Connection:
    """One accepted peer: namespace, handle table, bounded outbox, counters."""

    def __init__(self, frontend: "Frontend", writer: asyncio.StreamWriter) -> None:
        self.frontend = frontend
        self.writer = writer
        self.namespace = ""
        self.prefix = ""
        self.subscription: str | None = None  # None | "own" | "all"
        self.inflight = 0
        self.queued_pushes = 0
        self.dropped_events = 0
        self.dead = False
        # The handle table: one intern space per connection, shared by
        # client registrations (REGISTER) and the daemon's push
        # announcements.  ``handle_ids[h]`` is the name exactly as the
        # peer sees it (namespace-local for its own streams, full
        # ``<ns>/<stream>`` ids for scope-"all" pushes); ``peer_known``
        # tracks which handles the peer has been told about, so the
        # first EVENT_HOT using a daemon-assigned handle announces it.
        self.handle_ids: list[str] = []
        self.handle_of: dict[str, int] = {}
        self.peer_known: set[int] = set()
        cfg = frontend.config
        # Replies (bounded by max_inflight plus the BUSY notices the
        # writer has not flushed yet) and pushes share one FIFO so reply
        # order is preserved; capacity beyond it closes the connection.
        self.outbox: asyncio.Queue = asyncio.Queue(
            maxsize=2 * cfg.max_inflight + cfg.push_queue + 8
        )
        self.writer_task: asyncio.Task | None = None

    # -- outbound ------------------------------------------------------
    def enqueue_reply(self, entry) -> None:
        """Queue a reply (ready tuple or ``(future, formatter)``), FIFO.

        Overflow means the peer stopped reading while pipelining hard;
        the connection is aborted rather than buffering without bound.
        """
        try:
            self.outbox.put_nowait(entry)
        except asyncio.QueueFull:
            _logger.warning(
                "connection %s: outbound queue overflow, closing", self.namespace
            )
            self.abort()

    # -- handle table --------------------------------------------------
    def intern(self, name: str) -> int:
        """The peer-visible name's handle, assigned on first use."""
        handle = self.handle_of.get(name)
        if handle is None:
            handle = len(self.handle_ids)
            self.handle_ids.append(name)
            self.handle_of[name] = handle
        return handle

    def resolve_handles(self, handles: list[int]) -> list[str]:
        """Map hot-frame handles back to local stream names."""
        table = self.handle_ids
        names = []
        for handle in handles:
            if not 0 <= handle < len(table):
                raise UnknownHandleError(
                    f"unknown stream handle {handle}; REGISTER it first "
                    "(handle tables are per connection and reset on reconnect)"
                )
            names.append(table[handle])
        return names

    def push_events(self, ids: list[str], events: list[PeriodStartEvent]) -> None:
        """Queue a subscriber push of ``events`` (named as the peer sees
        them, one of ``ids`` each), dropping and counting on overflow."""
        if self.dead or self.queued_pushes >= self.frontend.config.push_queue:
            self.dropped_events += len(events)
            self.frontend.dropped_events += len(events)
            return
        positions = {sid: pos for pos, sid in enumerate(ids)}
        table = protocol.events_to_array(events, positions)
        self.queued_pushes += 1
        # EVENT_HOT: handles instead of repeated names, announcing each
        # daemon-assigned handle exactly once (outbox FIFO guarantees the
        # announce is decoded before any later frame relies on it).
        handles = []
        announce = []
        for sid in ids:
            handle = self.intern(sid)
            if handle not in self.peer_known:
                self.peer_known.add(handle)
                announce.append((handle, sid))
            handles.append(handle)
        self.enqueue_reply(("push_hot", handles, announce, table))

    def abort(self) -> None:
        self.dead = True
        try:
            self.writer.transport.abort()
        except Exception:  # pragma: no cover - transport already gone
            pass


def stream_list(frame: Frame) -> list[str]:
    """A request's ``streams`` meta: distinct stream names."""
    ids = frame.meta.get("streams")
    if not isinstance(ids, list) or not all(isinstance(s, str) for s in ids):
        raise ProtocolError("'streams' must be a list of stream names")
    if len(set(ids)) != len(ids):
        raise ProtocolError("duplicate stream names in one request")
    return ids


def ingest_request(conn: Connection, frame: Frame):
    """Validate a hot ingest request; returns ``(local_ids, rows,
    handles)``.

    ``rows`` holds one row of samples per handle: the frame's matrix
    (rectangular form) or its list of 1-D arrays (per-row form), as
    zero-copy views into the received frame.
    """
    handles = list(frame.meta["handles"])
    local_ids = conn.resolve_handles(handles)  # may raise UnknownHandle
    if len(set(local_ids)) != len(local_ids):
        raise ProtocolError("duplicate stream handles in one request")
    rows = frame.arrays
    if len(rows) == 1 and rows[0].ndim == 2:
        rows = rows[0]
    return local_ids, rows, handles


def ingest_formatter(local_ids: list[str], handles: list[int], named: str = ""):
    """The ``EVENTS_HOT`` reply formatter (pre-encoded, by handle) of an
    ingest request whose events name their streams ``named + local
    id``."""
    positions = {named + sid: pos for pos, sid in enumerate(local_ids)}

    def fmt(events: list[PeriodStartEvent]):
        table = protocol.events_to_array(events, positions)
        return "raw", protocol.encode_hot_events(FrameType.EVENTS_HOT, handles, table)

    return fmt


def request_scope(frame: Frame, request: str) -> str:
    """A SUBSCRIBE or REPLAY request's ``scope``: ``"own"`` or ``"all"``."""
    scope = frame.meta.get("scope", "own")
    if scope not in ("own", "all"):
        raise ProtocolError(f"{request} scope must be 'own' or 'all', got {scope!r}")
    return scope


def replay_range(frame: Frame) -> tuple[str, int, int | None]:
    """A REPLAY request's ``(stream, from_seq, upto)``."""
    stream = frame.meta.get("stream")
    if not isinstance(stream, str) or not stream:
        raise ProtocolError("'stream' must be a non-empty stream name")
    try:
        from_seq = int(frame.meta["from_seq"])
        upto_raw = frame.meta.get("upto")
        upto = None if upto_raw is None else int(upto_raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(
            "'from_seq' (and optional 'upto') must be integers"
        ) from exc
    if from_seq < 0 or (upto is not None and upto < from_seq):
        raise ProtocolError("replay range must satisfy 0 <= from_seq <= upto")
    return stream, from_seq, upto


def replay_reply(
    stream: str,
    from_seq: int,
    upto: int | None,
    events: list[PeriodStartEvent],
    first_available: int | None,
):
    """The ``(type, meta, arrays)`` answering a REPLAY: ``EVENTS``, or
    ``EVENTS_GAP`` naming the first available seq when the head of the
    range is lost.  ``events`` are named ``stream``."""
    table = protocol.events_to_array(events, {stream: 0})
    meta: dict = {"streams": [stream], "stream": stream, "from_seq": from_seq}
    if upto is not None:
        meta["upto"] = upto
    if first_available is None:
        return FrameType.EVENTS, meta, (table,)
    meta["first_available"] = first_available
    return FrameType.EVENTS_GAP, meta, (table,)


class Frontend:
    """Accept peers, run their handshake and write their replies.

    A daemon passes its :class:`FrontendConfig` subclass to
    ``__init__`` and implements the three hooks named in the module
    docstring.
    """

    #: Namespace prefix of connections whose HELLO names none.
    _auto_prefix = "c"
    #: The per-connection state class.
    _connection = Connection

    def __init__(self, config: FrontendConfig) -> None:
        self.config = config
        # Built before the socket ever opens, so no connection is
        # admitted under a half-configured policy.
        self._auth = build_authenticator(config)
        self._connections: set[Connection] = set()
        #: Every connection handler still running, including those past
        #: leaving ``_connections`` that are releasing their resources.
        self._handlers: set[asyncio.Task] = set()
        self._server: asyncio.AbstractServer | None = None
        self._draining = False
        self._conn_counter = 0
        # counters, reported by STATS
        self.auth_accepted = 0
        self.auth_rejected = 0
        self.hello_oversized = 0
        self.handshake_timeouts = 0
        self.busy_replies = 0
        self.dropped_events = 0
        self.writer_batches = 0
        self.writer_frames = 0
        #: Cumulative per-layer seconds: frame encode and socket
        #: write+drain here; each daemon adds its own layers.
        self.profile: dict[str, float] = {"encode": 0.0, "syscall": 0.0}

    # -- hooks (``conn`` is an instance of the daemon's ``_connection``)
    def _hello(self, conn, fresh: bool) -> None:
        """Answer an accepted HELLO (``fresh``: drop the namespace's streams)."""
        raise NotImplementedError

    def _handle_request(self, conn, frame: Frame) -> None:
        """Serve one post-handshake frame other than REGISTER."""
        raise NotImplementedError

    async def _release(self, conn) -> None:
        """Free the daemon's resources of a closed connection."""

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and begin serving (returns once listening)."""
        ssl_context = (
            server_ssl_context(self.config.tls_cert, self.config.tls_key)
            if self.config.tls_cert
            else None
        )
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            ssl=ssl_context,
        )
        _logger.info(
            "%s listening on %s:%d%s",
            type(self).__name__,
            self.host,
            self.port,
            " (TLS)" if ssl_context is not None else "",
        )

    @property
    def host(self) -> str:
        return self._server.sockets[0].getsockname()[0]

    @property
    def port(self) -> int:
        """The bound port (resolves port 0 to the ephemeral choice)."""
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Serve until cancelled (``repro serve`` / ``repro route``)."""
        await self._server.serve_forever()

    async def _say_bye(self) -> None:
        """Flush every connection's outbox behind a BYE notice, then
        close them all."""
        writers = []
        for conn in list(self._connections):
            conn.enqueue_reply(("push", FrameType.BYE, {}, ()))
            conn.enqueue_reply(_CLOSE)
            if conn.writer_task is not None:
                writers.append(conn.writer_task)
        if writers:
            await asyncio.wait(writers, timeout=_BYE_TIMEOUT)
        for conn in list(self._connections):
            conn.abort()
        # Wait out every handler's own cleanup (its release and the close
        # of its stream), so none is left pending when the loop stops.
        if self._handlers:
            await asyncio.wait(self._handlers, timeout=_BYE_TIMEOUT)

    def _admit_ingest(self, conn: Connection) -> bool:
        """Whether one more ingest request may start: a draining daemon
        answers ERROR, an exhausted ``max_inflight`` bound answers BUSY
        (both in request order)."""
        if self._draining:
            message = f"{type(self).__name__} is draining"
            conn.enqueue_reply(("reply", FrameType.ERROR, {"message": message}, ()))
            return False
        if conn.inflight >= self.config.max_inflight:
            self.busy_replies += 1
            meta = {"inflight": conn.inflight}
            conn.enqueue_reply(("reply", FrameType.BUSY, meta, ()))
            return False
        return True

    def _frontend_stats(self, conn: Connection) -> dict:
        """The STATS entries every daemon reports under ``server``."""
        stats: dict = {
            "protocol": {
                "supported": protocol.PROTOCOL_VERSION,
                "connection": protocol.PROTOCOL_VERSION,
            },
            "writer": {"batches": self.writer_batches, "frames": self.writer_frames},
            "handshake": {
                "oversized": self.hello_oversized,
                "timeouts": self.handshake_timeouts,
            },
        }
        if self._auth is not None:
            stats["auth"] = {
                "accepted": self.auth_accepted,
                "rejected": self.auth_rejected,
            }
        return stats

    # ------------------------------------------------------------------
    # accept + handshake
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = self._connection(self, writer)
        conn.writer_task = asyncio.ensure_future(self._writer_loop(conn))
        self._connections.add(conn)
        handler = asyncio.current_task()
        self._handlers.add(handler)
        try:
            await self._serve_frames(conn, reader)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # peer disconnected
        except ProtocolError as exc:
            conn.enqueue_reply(("push", FrameType.ERROR, {"message": str(exc)}, ()))
        except Exception:  # pragma: no cover - defensive
            _logger.exception("connection %s: unexpected error", conn.namespace)
        finally:
            self._connections.discard(conn)
            conn.enqueue_reply(_CLOSE)
            try:
                if conn.writer_task is not None:
                    try:
                        await conn.writer_task
                    except asyncio.CancelledError:  # pragma: no cover
                        pass
                await self._release(conn)
            finally:
                self._handlers.discard(handler)
                try:
                    writer.close()
                except Exception:  # pragma: no cover
                    pass
            if conn.dropped_events:
                _logger.warning(
                    "connection %s: dropped %d subscriber events (slow consumer)",
                    conn.namespace,
                    conn.dropped_events,
                )

    async def _read_hello(self, reader: asyncio.StreamReader) -> Frame:
        """The connection's first frame, bounded in size and time."""
        try:
            hello = await asyncio.wait_for(
                protocol.read_frame_async(reader, max_payload=HELLO_MAX_BYTES),
                HANDSHAKE_TIMEOUT,
            )
        except asyncio.TimeoutError:
            self.handshake_timeouts += 1
            raise ProtocolError(f"no HELLO within {HANDSHAKE_TIMEOUT} s") from None
        except protocol.FrameTooLarge:
            self.hello_oversized += 1
            raise
        if hello.type != FrameType.HELLO:
            raise ProtocolError("the first frame must be HELLO")
        return hello

    async def _serve_frames(self, conn: Connection, reader) -> None:
        hello = await self._read_hello(reader)
        # Authentication and the protocol check happen before *anything*
        # the handshake does — the connection is not counted, no
        # namespace exists, and in particular the daemon's `fresh` stream
        # purge never runs for a refused peer.
        forced_namespace: str | None = None
        if self._auth is not None:
            try:
                forced_namespace = self._auth.authenticate(hello.meta.get("token"))
            except AuthError as exc:
                self.auth_rejected += 1
                conn.enqueue_reply(
                    (
                        "reply",
                        FrameType.ERROR,
                        {"message": f"authentication failed: {exc}", "auth": "denied"},
                        (),
                    )
                )
                return  # _handle_connection flushes the ERROR and closes
            self.auth_accepted += 1
        spoken = hello.meta.get("protocol")
        if type(spoken) is not int or spoken < protocol.PROTOCOL_VERSION:
            message = (
                f"wire protocol {spoken!r} is not supported; this daemon "
                f"speaks protocol {protocol.PROTOCOL_VERSION}"
            )
            conn.enqueue_reply(("reply", FrameType.ERROR, {"message": message}, ()))
            return  # _handle_connection flushes the ERROR and closes
        self._conn_counter += 1
        namespace = (
            forced_namespace
            or hello.meta.get("namespace")
            or f"{self._auto_prefix}{self._conn_counter}"
        )
        if not isinstance(namespace, str) or "/" in namespace or not namespace:
            raise ProtocolError("namespace must be a non-empty string without '/'")
        conn.namespace = namespace
        conn.prefix = namespace + "/"
        self._hello(conn, bool(hello.meta.get("fresh")))
        while True:
            frame = await protocol.read_frame_async(reader)
            try:
                if frame.type == FrameType.REGISTER:
                    self._handle_register(conn, frame)
                else:
                    self._handle_request(conn, frame)
            except UnknownHandleError as exc:
                # An ERROR reply in request order — the connection (and
                # its other in-flight requests) survive.
                conn.enqueue_reply(
                    ("reply", FrameType.ERROR, {"message": str(exc)}, ())
                )
            await asyncio.sleep(0)  # let the writer and the backend breathe

    def _handle_register(self, conn: Connection, frame: Frame) -> None:
        """Intern stream names into per-connection int32 handles.

        Served on the event loop (the handle table is loop-local); the
        reply's ``handles`` list aligns with the request's ``streams``
        list.  Re-registering a name returns its existing handle, so the
        call is idempotent.
        """
        handles = []
        for name in stream_list(frame):
            if not name:
                raise ProtocolError("stream names must be non-empty")
            handle = conn.intern(name)
            conn.peer_known.add(handle)
            handles.append(handle)
        conn.enqueue_reply(("reply", FrameType.OK, {"handles": handles}, ()))

    # ------------------------------------------------------------------
    # writer task
    # ------------------------------------------------------------------
    def _encode_entry(self, conn: Connection, entry) -> list:
        """Encode one resolved outbox entry into frame buffers."""
        start = time.perf_counter()
        try:
            if entry[0] == "push_hot":
                _, handles, announce, table = entry
                return protocol.encode_hot_events(
                    FrameType.EVENT_HOT, handles, table, announce
                )
            _, ftype, meta, arrays = entry
            return protocol.encode_frame(ftype, meta, arrays)
        finally:
            self.profile["encode"] += time.perf_counter() - start

    def _resolve_future(self, future: asyncio.Future, formatter):
        """A finished request future as an outbox entry, or ``("raw",
        buffers)`` when its formatter encoded the frame itself."""
        exc = future.exception()
        if exc is None:
            start = time.perf_counter()
            formatted = formatter(future.result())
            self.profile["encode"] += time.perf_counter() - start
            return formatted if formatted[0] == "raw" else ("reply", *formatted)
        if isinstance(exc, ServerBusy):
            # Backpressure from further down passes through as BUSY.
            self.busy_replies += 1
            return ("reply", FrameType.BUSY, {}, ())
        message = f"{type(exc).__name__}: {exc}"
        return ("reply", FrameType.ERROR, {"message": message}, ())

    async def _writer_loop(self, conn: Connection) -> None:
        """Flush the connection's outbox in FIFO order, batched per wakeup.

        Every wakeup drains the outbox greedily: each ready entry's
        frame buffers are appended to one pending write vector, small
        buffers coalescing into pooled (reused) scratch bytearrays, and
        the whole vector goes to the transport as a single
        ``writelines`` + ``drain`` — one coalesced write per wakeup
        instead of one write and one drain per reply.  An unresolved
        future mid-batch first flushes everything already encoded (the
        peer keeps receiving while the backend works), then waits.

        A write failure marks the connection dead but keeps consuming
        entries (futures still resolve; results are discarded) so the
        backend and the drain logic never block on a gone peer.
        """
        pool: list[bytearray] = []  # reusable scratch buffers
        pending: list = []  # write vector of the current batch
        borrowed: list[bytearray] = []  # scratch in use by `pending`
        scratch: bytearray | None = None

        async def flush() -> None:
            nonlocal scratch
            if pending and not conn.dead:
                start = time.perf_counter()
                try:
                    conn.writer.writelines(pending)
                    await conn.writer.drain()
                except (ConnectionError, RuntimeError):
                    conn.dead = True
                self.profile["syscall"] += time.perf_counter() - start
                self.writer_batches += 1
            pending.clear()
            # The selector transport copies on write (immediate send or
            # buffer extend), so the scratch bytearrays are free again.
            while borrowed and len(pool) < _SCRATCH_POOL:
                buf = borrowed.pop()
                if len(buf) <= _SCRATCH_CAP:
                    pool.append(buf)
            borrowed.clear()
            scratch = None

        def put(buffers: list) -> None:
            nonlocal scratch
            self.writer_frames += 1
            for buf in buffers:
                if len(buf) <= _SCRATCH_COPY_LIMIT:
                    if scratch is None or len(scratch) > _SCRATCH_CAP:
                        scratch = pool.pop() if pool else bytearray()
                        scratch.clear()
                        borrowed.append(scratch)
                        pending.append(scratch)
                    scratch += buf
                else:
                    # Large (array) buffers pass through uncopied; later
                    # small buffers must start a fresh scratch to keep
                    # byte order.
                    pending.append(buf)
                    scratch = None

        while True:
            entry = await conn.outbox.get()
            batch = [entry]
            while entry is not _CLOSE:
                try:
                    entry = conn.outbox.get_nowait()
                except asyncio.QueueEmpty:
                    break
                batch.append(entry)
            closing = False
            for entry in batch:
                if entry is _CLOSE:
                    closing = True
                    break
                if entry[0] == "future":
                    _, future, formatter = entry
                    if not future.done():
                        # Ship what is already encoded before blocking.
                        await flush()
                        await asyncio.wait([future])
                    if future.cancelled():
                        continue
                    resolved = self._resolve_future(future, formatter)
                    if resolved[0] == "raw":
                        if not conn.dead:
                            put(resolved[1])
                        continue
                else:
                    resolved = entry
                    if resolved[0] == "push_hot":
                        conn.queued_pushes = max(0, conn.queued_pushes - 1)
                if conn.dead:
                    continue
                put(self._encode_entry(conn, resolved))
            await flush()
            if closing:
                return


class LoopThread:
    """Host a :class:`Frontend` daemon on a private event loop in a
    daemon thread.

    ``start()`` (or ``__enter__``) returns ``(host, port)`` once the
    daemon is listening and re-raises a startup failure such as a bind
    error; ``stop()`` (or ``__exit__``) runs the daemon's graceful stop
    and joins the thread.
    """

    def __init__(self, daemon, name: str) -> None:
        self.daemon = daemon  # a Frontend subclass: start(), stop(), host, port
        self._name = name
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self) -> tuple[str, int]:
        """Start the loop thread; returns ``(host, port)`` when listening."""
        if self._thread is not None:
            raise ValidationError(f"{self._name} thread already started")
        self._thread = threading.Thread(target=self._run, name=self._name, daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self.daemon.host, self.daemon.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.daemon.start())
        except BaseException as exc:  # surface bind errors in start()
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def call(self, coro, timeout: float):
        """Run ``coro`` on the daemon's loop and return its result."""
        if self._loop is None:
            coro.close()
            raise ValidationError(f"{self._name} thread not started")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)

    def stop(self, timeout: float = 30.0) -> None:
        """Gracefully stop the daemon and join the loop thread."""
        if self._thread is None or self._loop is None:
            return
        if self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(self.daemon.stop(), self._loop)
            try:
                future.result(timeout=timeout)
            finally:
                self._loop.call_soon_threadsafe(self._loop.stop)
                self._thread.join(timeout=timeout)

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
