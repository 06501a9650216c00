"""Client libraries of the network detection service.

One protocol core under two transports (wire format:
:mod:`repro.server.protocol`):

* :class:`_Session` — the sans-IO core; it touches no socket and no
  event loop.  Each operation is a generator that yields one request's
  encoded buffers, is sent the reply frame and returns the result.  It
  owns the HELLO check, the interned handles, the layout of the hot
  ingest frames, the per-stream seq log and gap splicing.
* :class:`DetectionClient` — the blocking transport, used by ``repro
  pool --connect``, the loopback benchmark and most tests.  Replies
  come strictly in order; event pushes that arrive meanwhile are
  buffered.  :meth:`DetectionClient.pipeline` keeps several ingest
  requests in flight (bounded by the server's ``max_inflight`` — beyond
  it the server answers ``BUSY``).
* :class:`AsyncDetectionClient` — the asyncio transport; a background
  reader task resolves reply futures in FIFO order and queues pushes.

A transport keeps only connect/retry/TLS, frame read/write and push
demultiplexing.  Both raise :class:`ServerBusy` on ``BUSY`` replies
(the explicit backpressure signal — back off and retry) and
:class:`ServerError` when the server reports a failed request.

Both speak wire protocol 3 only: a server whose HELLO reply does not
name protocol 3 or later is refused with :class:`ProtocolError`.
Ingests and pushes travel as binary hot frames under per-connection
int32 stream handles: batches of one length and dtype as the
rectangular frame, ragged or mixed-dtype batches in the per-row form.
A sample dtype without a wire code is widened where that is exact
(``float16`` to ``float64``) and refused with ``ValueError`` otherwise,
before a byte is sent.

Both also *resume transparently*: every event carries the pool's
per-stream monotonic ``seq``, and ``next_events`` tracks the last seq
delivered per stream.  When a pushed batch reveals a gap (the server
dropped pushes on this slow consumer, or the client reconnected), the
client replays exactly the missed range and splices it in front, so
consumers observe the complete ordered sequence.  Only when the
server's bounded journal has already evicted part of the range does the
loss surface, through ``on_gap(stream_id, from_seq, first_available)``
(fired exactly once per evicted range).
"""

from __future__ import annotations

import asyncio
import random
import select
import socket
import ssl
import time
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.server import protocol
from repro.server.endpoint import _UNSET, Endpoint, resolve_endpoint
from repro.server.protocol import Frame, FrameType, ProtocolError
from repro.service.events import PeriodStartEvent

__all__ = [
    "AsyncDetectionClient",
    "ConnectionClosedError",
    "DetectionClient",
    "RETRY_DELAY_CAP",
    "ServerBusy",
    "ServerError",
    "backoff_delay",
]


class ServerError(Exception):
    """The server answered a request with an ERROR frame."""


class ServerBusy(ServerError):
    """The server answered BUSY: its per-connection inflight bound is hit."""


class ConnectionClosedError(ConnectionError):
    """The server said BYE (drain) or the connection is gone."""


#: Cap on one reconnect backoff step.  Growth is exponential from the
#: caller's ``retry_delay`` but bounded: a fleet waiting out a long
#: router restart should retry every few seconds, not every few minutes.
RETRY_DELAY_CAP = 5.0

#: Connect-time errors worth retrying: the daemon is not listening yet
#: (refused) or is mid-restart and dropped the half-open handshake
#: (reset / aborted, or an EOF mid-TLS-handshake).
_RETRYABLE_CONNECT_ERRORS = (
    ConnectionRefusedError,
    ConnectionResetError,
    ConnectionAbortedError,
    ssl.SSLEOFError,
)

#: The frame type the server pushes outside any request.
_PUSH = FrameType.EVENT_HOT


def backoff_delay(
    attempt: int, base: float, cap: float = RETRY_DELAY_CAP
) -> float:
    """Bounded exponential backoff with jitter for reconnect attempt N.

    ``base * 2**attempt``, capped at ``cap``, then jittered uniformly
    into ``[0.5, 1.0]`` of that bound so a fleet of clients reconnecting
    to one restarted router (or backend) does not hammer it in lockstep.
    """
    bound = min(base * (2.0 ** max(attempt, 0)), cap)
    return bound * (0.5 + 0.5 * random.random())


def _events_from_frame(frame: Frame) -> list[PeriodStartEvent]:
    ids = frame.meta.get("streams", [])
    if not frame.arrays:
        return []
    return protocol.events_from_array(frame.arrays[0], ids)


def _wire(samples: np.ndarray) -> np.ndarray:
    """``samples`` in a dtype with a wire code: as they are, or widened
    where that is exact; ``ValueError`` otherwise."""
    if protocol.hot_dtype_code(samples.dtype) is not None:
        return samples
    if samples.dtype.kind == "f" and samples.dtype.itemsize == 2:
        return samples.astype(np.float64)
    raise ValueError(f"samples of dtype {samples.dtype} have no wire encoding")


def _hot_rows(rows) -> np.ndarray | list[np.ndarray]:
    """The rows of one hot ingest frame: a matrix (rectangular form) when
    they share one length and dtype, else a list of 1-D arrays."""
    if isinstance(rows, np.ndarray):
        if rows.ndim != 2:
            raise ValueError("ingest rows need a 2-D matrix, one row per stream id")
        return _wire(rows)
    arrays = [np.ascontiguousarray(np.asarray(row).ravel()) for row in rows]
    if not arrays:
        return np.empty((0, 0))
    first = arrays[0]
    if any(arr.dtype != first.dtype or arr.size != first.size for arr in arrays):
        return [_wire(arr) for arr in arrays]
    return _wire(first.reshape(1, -1) if len(arrays) == 1 else np.stack(arrays))


def _check(frame: Frame) -> Frame:
    """Raise for a BUSY or ERROR reply; return any other frame."""
    if frame.type == FrameType.BUSY:
        raise ServerBusy(f"server busy (inflight={frame.meta.get('inflight')})")
    if frame.type == FrameType.ERROR:
        raise ServerError(frame.meta.get("message", "unknown server error"))
    return frame


class _HandleRegistry:
    """Per-connection stream-handle state of one session."""

    __slots__ = ("of_name", "names")

    def __init__(self) -> None:
        self.of_name: dict[str, int] = {}  # name -> handle (sent frames)
        self.names: dict[int, str] = {}  # handle -> name (received frames)

    def learn(self, name: str, handle: int) -> None:
        self.of_name[name] = handle
        self.names[handle] = name

    def decode_events(self, frame: Frame) -> list[PeriodStartEvent]:
        """Decode an EVENTS_HOT/EVENT_HOT frame against the registry."""
        for handle, name in frame.meta.get("announce", ()):
            self.names[handle] = name
        ids = []
        for handle in frame.meta.get("handles", ()):
            name = self.names.get(handle)
            if name is None:
                raise ProtocolError(
                    f"server referenced unannounced stream handle {handle}"
                )
            ids.append(name)
        if not frame.arrays:
            return []
        return protocol.events_from_array(frame.arrays[0], ids)


class _Session:
    """The protocol state and logic of one client connection, sans IO.

    Every *operation* is a generator: each ``yield`` hands the
    transport one request's encoded buffers, the transport sends back
    the reply :class:`Frame`, and the return value is the result.  The
    two *plans*, :meth:`splice` and :meth:`resync`, yield ``(stream_id,
    from_seq, upto)`` replays instead and are sent back ``(events,
    first_available)``: the transport runs each through its public
    ``replay``.  The parameters are :class:`DetectionClient`'s.
    """

    def __init__(
        self,
        on_gap=None,
        auto_replay: bool = True,
        resume_seqs: Mapping[str, int] | None = None,
    ) -> None:
        self.handles = _HandleRegistry()
        self.on_gap = on_gap
        self.auto_replay = bool(auto_replay)
        self.scope = "own"
        # Per stream (named as delivered), the last seq handed to the
        # consumer; seeded from resume_seqs on a reconnect.
        self.last_seq: dict[str, int] = dict(resume_seqs or {})

    def events_of(self, frame: Frame) -> list[PeriodStartEvent]:
        """Decode the events of a reply or push: binary, or a REPLAY's JSON."""
        if frame.type in (FrameType.EVENTS_HOT, FrameType.EVENT_HOT):
            return self.handles.decode_events(frame)
        return _events_from_frame(frame)

    # Operations; the client methods of the same name document them.
    def request(self, ftype: FrameType, meta=None, arrays: Iterable = ()):
        """One request; returns its reply, BUSY and ERROR raised."""
        return _check((yield protocol.encode_frame(ftype, meta, arrays)))

    def hello(self, namespace: str | None, fresh: bool, token: str | None):
        """The handshake; returns the server info."""
        meta: dict = {
            "namespace": namespace,
            "fresh": bool(fresh),
            "protocol": protocol.PROTOCOL_VERSION,
        }
        if token is not None:
            meta["token"] = token
        reply = yield from self.request(FrameType.HELLO, meta)
        spoken = reply.meta.get("protocol")
        if type(spoken) is not int or spoken < protocol.PROTOCOL_VERSION:
            raise ProtocolError(
                f"the server speaks wire protocol {spoken!r}; this client needs "
                f"protocol {protocol.PROTOCOL_VERSION}"
            )
        return reply.meta

    def register(self, ids: Sequence[str]):
        """Handles for ``ids``, registering the missing ones (one request)."""
        known = self.handles.of_name
        missing = [sid for sid in ids if sid not in known]
        if missing:
            reply = yield from self.request(FrameType.REGISTER, {"streams": missing})
            for sid, handle in zip(missing, reply.meta["handles"]):
                self.handles.learn(sid, int(handle))
        return [known[sid] for sid in ids]

    def ingest(self, ids, rows, *, lockstep=False):
        """One ingest request (REGISTERing the ids not interned yet);
        returns its operation, whose result is the period-start events.

        ``rows`` is a 2-D matrix with one row per id, or one batch per
        id.  Rows of one length and dtype travel as the rectangular hot
        frame, others in the per-row form; ``lockstep`` needs the
        rectangular one.  The rows are checked here, so a ``ValueError``
        comes before the operation has sent a byte.
        """
        ids, rows = list(ids), _hot_rows(rows)
        if len(rows) != len(ids):
            raise ValueError("ingest needs one sample row per stream id")
        if lockstep and not isinstance(rows, np.ndarray):
            raise ValueError("lockstep rows must share one length")
        return self._ingest(ids, rows, lockstep)

    def _ingest(self, ids, rows, lockstep):
        handles = yield from self.register(ids)
        ftype = FrameType.LOCKSTEP_HOT if lockstep else FrameType.INGEST_HOT
        reply = yield protocol.encode_hot_ingest(ftype, handles, rows)
        return self.events_of(_check(reply))

    def ingest_many(self, batches: Mapping):
        return self.ingest(list(batches), list(batches.values()))

    def ingest_lockstep(self, traces: Mapping):
        matrix = np.stack([np.asarray(trace).ravel() for trace in traces.values()])
        return self.ingest(list(traces), matrix, lockstep=True)

    def subscribe(self, scope: str):
        yield from self.request(FrameType.SUBSCRIBE, {"scope": scope})
        self.scope = scope

    def replay(self, stream_id: str, from_seq: int, upto=None, scope=None):
        meta: dict = {
            "stream": stream_id,
            "from_seq": int(from_seq),
            "scope": scope or self.scope,
        }
        if upto is not None:
            meta["upto"] = int(upto)
        frame = yield protocol.encode_frame(FrameType.REPLAY, meta)
        if frame.type == FrameType.EVENTS_GAP:
            return _events_from_frame(frame), int(frame.meta["first_available"])
        return _events_from_frame(_check(frame)), None

    def snapshot(self, stream_ids: Sequence[str] | None):
        meta = {"streams": list(stream_ids)} if stream_ids is not None else {}
        reply = yield from self.request(FrameType.SNAPSHOT, meta)
        return protocol.unpack_object(reply.meta["states"], reply.arrays)

    def restore(self, states: Mapping[str, dict]):
        tree, arrays = protocol.pack_object(dict(states))
        reply = yield from self.request(FrameType.RESTORE, {"states": tree}, arrays)
        return int(reply.meta["restored"])

    def remove_streams(self, stream_ids: Sequence[str]):
        meta = {"streams": list(stream_ids)}
        return int((yield from self.request(FrameType.REMOVE, meta)).meta["removed"])

    def stats(self, periods: bool):
        return (yield from self.request(FrameType.STATS, {"periods": periods})).meta

    # Plans: seq tracking over replays.
    def splice(self, batch: list[PeriodStartEvent]):
        """Deliver one pushed batch with its seq gaps replayed in front.

        For every event whose seq jumps past the stream's last delivered
        seq, the missed range is replayed (bounded: ``[last + 1, seq)``,
        so nothing already in hand is re-fetched) and inserted in front
        of it; an unrecoverable head fires ``on_gap`` exactly once.  A
        seq at or below the last delivered one resets the baseline — the
        stream was re-created (LRU eviction, ``fresh`` reconnect), not
        rewound.
        """
        out: list[PeriodStartEvent] = []
        for event in batch:
            if event.seq < 0:  # unsequenced (pre-seq server): pass through
                out.append(event)
                continue
            last = self.last_seq.get(event.stream_id)
            if self.auto_replay and last is not None and event.seq > last + 1:
                recovered, first_available = yield event.stream_id, last + 1, event.seq
                if first_available is not None and self.on_gap is not None:
                    self.on_gap(event.stream_id, last + 1, first_available)
                out.extend(recovered)
            self.last_seq[event.stream_id] = event.seq
            out.append(event)
        return out

    def resync(self, stream_ids: Iterable[str]):
        """Replay every stream's tail after its last delivered seq."""
        out: list[PeriodStartEvent] = []
        for stream_id in stream_ids:
            from_seq = self.last_seq.get(stream_id, -1) + 1
            events, first_available = yield stream_id, from_seq, None
            if first_available is not None:
                if self.on_gap is not None:
                    self.on_gap(stream_id, from_seq, first_available)
                # Advance past the reported loss so it is not re-reported
                # by the next resync or push-revealed replay.  (An
                # unknown-extent loss — first_available == from_seq, the
                # journal never saw the stream — cannot advance anything
                # and is re-reported by every explicit resync until a
                # live push re-baselines the stream.)
                self.last_seq[stream_id] = max(
                    self.last_seq.get(stream_id, -1), first_available - 1
                )
            for event in events:
                self.last_seq[stream_id] = event.seq
            out.extend(events)
        return out


class _Transport:
    """What both transports read off their session."""

    _session: _Session

    @property
    def last_seqs(self) -> dict[str, int]:
        """Last delivered seq per stream — hand to ``resume_seqs`` on
        reconnect to recover everything missed while disconnected."""
        return dict(self._session.last_seq)

    def _replay_gap(self, gap):
        """A plan's replay, issued through the public ``replay``."""
        stream_id, from_seq, upto = gap
        return self.replay(stream_id, from_seq, upto=upto)  # type: ignore[attr-defined]


class DetectionClient(_Transport):
    """Blocking client of a :class:`~repro.server.server.DetectionServer`.

    Parameters
    ----------
    endpoint:
        Where (and how) to connect: an
        :class:`~repro.server.endpoint.Endpoint`, or a URL string such
        as ``"repro://127.0.0.1:8757"`` / ``"repros://token@host:port"``
        (TLS), or a bare ``"HOST:PORT"``.  The endpoint carries the TLS
        parameters and the auth token; the keyword ``token`` /
        ``tls_ca`` / ``tls_insecure`` / ``timeout`` arguments override
        its fields.
    namespace:
        Stream namespace on the server.  ``None`` lets the server assign
        a fresh one; pass a stable name to reconnect to previous streams
        (combine with ``fresh=True`` to drop them instead).
    fresh:
        Ask the server to remove any resident streams of this namespace
        during the handshake (a clean-slate reconnect).
    connect_retries, retry_delay:
        Retry refused/reset connects — a daemon that was *just* started
        (CI smoke jobs, examples) or is mid-restart (a router bounce)
        may not be listening yet.  ``retry_delay`` seeds a *bounded
        exponential backoff with jitter* (see :func:`backoff_delay`):
        attempt N sleeps ``min(retry_delay * 2**N,`` ``RETRY_DELAY_CAP)``
        scaled by a uniform ``[0.5, 1.0]`` jitter, so a reconnecting
        fleet spreads out instead of hammering the daemon in lockstep.
        Every attempt re-resolves the endpoint's security material — a
        fresh TLS context per try, the token re-sent in the new HELLO —
        so a client riding out a TLS+auth server restart resumes
        exactly like a plaintext one.
    timeout:
        Socket timeout in seconds for connect and replies (overrides
        the endpoint's).
    token, tls_ca, tls_insecure:
        Endpoint field overrides — the auth token presented in HELLO,
        the CA bundle the server certificate is verified against, and
        the verification kill-switch for testing.
    on_gap:
        ``on_gap(stream_id, from_seq, first_available)`` — called
        (exactly once per evicted range) when an automatic replay finds
        that the server's journal no longer holds part of the missed
        range ``[from_seq, first_available)``; those events are lost.
        ``None`` ignores unrecoverable gaps.
    auto_replay:
        When True (default), :meth:`next_events` detects per-stream seq
        gaps in pushed batches and recovers them via :meth:`replay`
        before delivering; False hands batches through verbatim (seqs
        are still tracked).
    resume_seqs:
        Seed for the per-stream last-seen seq map — pass a previous
        client's :attr:`last_seqs` when reconnecting, and the first push
        of each stream then reveals (and replays) everything missed
        while disconnected.  Without it a fresh client treats the first
        event it sees as the baseline.
    """

    def __init__(
        self,
        endpoint: "Endpoint | str",
        *,
        namespace: str | None = None,
        fresh: bool = False,
        connect_retries: int = 0,
        retry_delay: float = 0.25,
        timeout: float | None = _UNSET,  # type: ignore[assignment]
        on_gap=None,
        auto_replay: bool = True,
        resume_seqs: Mapping[str, int] | None = None,
        token: str | None = _UNSET,  # type: ignore[assignment]
        tls_ca: str | None = _UNSET,  # type: ignore[assignment]
        tls_insecure: bool = _UNSET,  # type: ignore[assignment]
    ) -> None:
        self.endpoint = resolve_endpoint(
            endpoint,
            token=token,
            tls_ca=tls_ca,
            tls_insecure=tls_insecure,
            timeout=timeout,
        )
        self._session = _Session(on_gap, auto_replay, resume_seqs)
        last_error: Exception | None = None
        self._sock: socket.socket | None = None
        for attempt in range(connect_retries + 1):
            try:
                self._sock = self._open_socket(self.endpoint)
                break
            except _RETRYABLE_CONNECT_ERRORS as exc:
                last_error = exc
                if attempt < connect_retries:
                    time.sleep(backoff_delay(attempt, retry_delay))
        if self._sock is None:
            raise last_error  # type: ignore[misc]
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._events: list[list[PeriodStartEvent]] = []  # buffered pushes
        self._closed = False
        self._saw_bye = False
        try:
            self.server_info = self._run(
                self._session.hello(namespace, fresh, self.endpoint.token)
            )
        except BaseException:
            # A failed handshake (ERROR reply, rejected token, draining
            # server, protocol mismatch) must not leak the socket.
            self._sock.close()
            raise
        self.namespace = self.server_info["namespace"]

    @staticmethod
    def _open_socket(endpoint: Endpoint) -> socket.socket:
        """One connect attempt, TLS-wrapped when the endpoint asks.

        The TLS context is built *inside* the attempt (see
        :meth:`Endpoint.client_ssl_context`), so every backoff retry
        negotiates from a fresh context.
        """
        sock = socket.create_connection(
            (endpoint.host, endpoint.port), timeout=endpoint.timeout
        )
        if not endpoint.tls:
            return sock
        try:
            context = endpoint.client_ssl_context()
            assert context is not None
            return context.wrap_socket(sock, server_hostname=endpoint.host)
        except BaseException:
            sock.close()
            raise

    # Plumbing.
    def _send(self, buffers: Sequence) -> None:
        if self._closed:
            raise ConnectionClosedError("client is closed")
        if self._saw_bye:
            raise ConnectionClosedError("server is draining (BYE received)")
        protocol.send_buffers(self._sock, buffers)

    def _read_frame(self) -> Frame:
        frame = protocol.read_frame(self._sock)
        if frame.type == FrameType.BYE:
            self._saw_bye = True
            raise ConnectionClosedError("server is draining (BYE received)")
        return frame

    def _read_reply(self) -> Frame:
        """Next non-push frame; event pushes are buffered on the side."""
        while (frame := self._read_frame()).type == _PUSH:
            self._events.append(self._session.events_of(frame))
        return frame

    def _roundtrip(self, buffers: Sequence) -> Frame:
        self._send(buffers)
        return self._read_reply()

    @staticmethod
    def _drive(op, step, result=None):
        """Run a session operation or plan: each request it yields goes
        through ``step``, whose result is sent back (``result`` resumes
        an operation whose request is already out)."""
        try:
            while True:
                result = step(op.send(result))
        except StopIteration as done:
            return done.value

    def _run(self, op, reply: Frame | None = None):
        return self._drive(op, self._roundtrip, reply)

    # Ingestion.
    def ingest(self, stream_id: str, samples) -> list[PeriodStartEvent]:
        """Feed one batch into one stream; returns its period-start events."""
        return self.ingest_many({stream_id: samples})

    def ingest_many(
        self, batches: Mapping[str, Sequence | np.ndarray]
    ) -> list[PeriodStartEvent]:
        """Feed one batch per stream in a single request/reply round trip."""
        return self._run(self._session.ingest_many(batches))

    def ingest_lockstep(
        self, traces: Mapping[str, Sequence | np.ndarray]
    ) -> list[PeriodStartEvent]:
        """Feed equally long traces into many streams as one 2-D matrix."""
        return self._run(self._session.ingest_lockstep(traces))

    def pipeline(
        self,
        requests: Iterable[Mapping[str, Sequence | np.ndarray]],
        *,
        window: int = 8,
        on_busy: str = "raise",
    ) -> list[PeriodStartEvent]:
        """Pipelined ``ingest_many``: keep up to ``window`` requests in flight.

        ``on_busy`` is ``"raise"`` (default) or ``"count"``; with
        ``"count"``, BUSY replies are tallied on
        :attr:`busy_replies` and the corresponding request's samples are
        *not* retried (the caller opted into lossy backpressure).
        """
        if on_busy not in ("raise", "count"):
            raise ValueError("on_busy must be 'raise' or 'count'")
        events: list[PeriodStartEvent] = []
        in_flight: list = []  # operations awaiting their reply, FIFO
        busy: ServerBusy | None = None

        def collect_one() -> None:
            nonlocal busy
            op = in_flight.pop(0)
            try:
                events.extend(self._run(op, self._read_reply()))
            except ServerBusy as exc:
                # Never raise with replies still outstanding: the
                # request/reply FIFO must stay paired or every later
                # call on this client would read a stale reply.
                self.busy_replies += 1
                if on_busy == "raise" and busy is None:
                    busy = exc

        known = self._session.handles.of_name
        for batches in requests:
            if busy is not None:
                break  # stop feeding a server that already said BUSY
            op = self._session.ingest_many(batches)
            if any(sid not in known for sid in batches):
                # REGISTER is its own request/reply, so it waits until
                # nothing is in flight: the reply FIFO must stay paired.
                # In the steady state every id is already interned and
                # the window never drains here.
                while in_flight:
                    collect_one()
                if busy is not None:
                    break
                self._run(self._session.register(list(batches)))
            self._send(next(op))
            in_flight.append(op)
            while len(in_flight) >= window:
                collect_one()
        while in_flight:
            collect_one()
        if busy is not None:
            raise busy
        return events

    busy_replies: int = 0

    # Subscriptions.
    def subscribe(self, scope: str = "own") -> None:
        """Receive event pushes for ``"own"`` streams or ``"all"`` streams."""
        self._run(self._session.subscribe(scope))

    def replay(
        self,
        stream_id: str,
        from_seq: int,
        *,
        upto: int | None = None,
        scope: str | None = None,
    ) -> tuple[list[PeriodStartEvent], int | None]:
        """Re-fetch journaled events of one stream from the server.

        Returns ``(events, first_available)`` with the events of
        ``[from_seq, upto)`` (open-ended without ``upto``) still inside
        the server's journal, oldest first.  ``first_available`` is
        ``None`` when the whole requested head was served; otherwise the
        range ``[from_seq, first_available)`` has been evicted and is
        unrecoverable.  ``scope`` defaults to the current subscription
        scope: ``"own"`` resolves ``stream_id`` inside this connection's
        namespace, ``"all"`` takes a full ``<namespace>/<stream>`` id.
        """
        return self._run(self._session.replay(stream_id, from_seq, upto, scope))

    def resync(self, stream_ids: Iterable[str]) -> list[PeriodStartEvent]:
        """Catch up to the journal's tail without waiting for a push.

        Push-revealed gap recovery only triggers when a *later* push
        arrives; if the very last pushes were dropped there is nothing
        left to reveal them.  ``resync`` closes that hole: for each
        stream it replays everything after the last delivered seq
        (streams never seen start at 0) and advances the tracking, with
        ``on_gap`` fired for unrecoverable heads exactly like automatic
        replay.  Meant for quiescent moments (shutdown, after a
        producer pause) — events pushed concurrently with a resync may
        be delivered twice.
        """
        return self._drive(self._session.resync(stream_ids), self._replay_gap)

    def next_events(
        self, timeout: float | None = None
    ) -> list[PeriodStartEvent] | None:
        """Next pushed event batch, or ``None`` when ``timeout`` expires.

        Per-stream seq gaps are recovered transparently before delivery
        (see the class docstring); the returned list therefore may be
        longer than the pushed batch — missed events appear in front of
        the push that revealed them, in seq order.

        The timeout gates only the *wait for the first byte* (via
        ``select``); once a frame starts arriving it is read to
        completion.  A per-read socket timeout would be wrong here: it
        could fire mid-frame, discard the consumed bytes and leave the
        connection permanently desynchronised.
        """
        if self._events:
            batch = self._events.pop(0)
        else:
            if timeout is not None:
                readable, _, _ = select.select([self._sock], [], [], timeout)
                if not readable:
                    return None
            frame = self._read_frame()
            if frame.type != _PUSH:
                raise ProtocolError(
                    f"unexpected {frame.type.name} frame outside a request"
                )
            batch = self._session.events_of(frame)
        return self._drive(self._session.splice(batch), self._replay_gap)

    # State and stats.
    def snapshot(self, stream_ids: Sequence[str] | None = None) -> dict[str, dict]:
        """Engine snapshots of (some of) this namespace's streams.

        Returns ``stream_id -> {"state", "samples", "events"}`` — opaque
        blobs to hand back to :meth:`restore` after a reconnect.
        """
        return self._run(self._session.snapshot(stream_ids))

    def restore(self, states: Mapping[str, dict]) -> int:
        """Reinstate streams from :meth:`snapshot` blobs; returns the count."""
        return self._run(self._session.restore(states))

    def remove_streams(self, stream_ids: Sequence[str]) -> int:
        """Drop named streams from this namespace; returns how many were
        resident.  The namespace's journal keeps their already-produced
        events replayable (see the server's REMOVE handler)."""
        return self._run(self._session.remove_streams(stream_ids))

    def stats(self, *, periods: bool = False) -> dict:
        """Pool + server statistics; ``periods=True`` adds this
        namespace's per-stream locked periods."""
        return self._run(self._session.stats(periods))

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass

    def __enter__(self) -> "DetectionClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


async def _within(timeout: float | None, awaitable):
    """Await, raising the builtin (OSError) TimeoutError after ``timeout``."""
    try:
        return await asyncio.wait_for(awaitable, timeout)
    except asyncio.TimeoutError as exc:  # distinct from TimeoutError on 3.10
        raise TimeoutError(f"no answer within {timeout} s") from exc


class AsyncDetectionClient(_Transport):
    """Asyncio client; create it with :meth:`connect`.

    A background reader task demultiplexes the socket: replies resolve
    their request futures in FIFO order, event pushes land on
    :attr:`events` (an ``asyncio.Queue`` of event-batch lists).

    Examples
    --------
    ::

        client = await AsyncDetectionClient.connect(f"repro://127.0.0.1:{port}")
        events = await client.ingest("app", batch)
        await client.close()
    """

    def __init__(
        self,
        reader,
        writer,
        namespace_hint,
        fresh: bool,
        on_gap=None,
        auto_replay: bool = True,
        resume_seqs: Mapping[str, int] | None = None,
    ) -> None:
        self._session = _Session(on_gap, auto_replay, resume_seqs)
        self._reader = reader
        self._writer = writer
        self._pending: list[asyncio.Future] = []
        self._order = asyncio.Lock()  # see _ingest
        self.events: asyncio.Queue = asyncio.Queue()
        self._closed = False
        self._saw_bye = False
        self._conn_error: Exception | None = None
        self._hello = (namespace_hint, fresh)
        self._reader_task: asyncio.Task | None = None
        self.namespace = ""
        self.server_info: dict = {}
        self.endpoint: Endpoint | None = None

    @classmethod
    async def connect(
        cls,
        endpoint: "Endpoint | str",
        *,
        namespace: str | None = None,
        fresh: bool = False,
        connect_retries: int = 0,
        retry_delay: float = 0.25,
        on_gap=None,
        auto_replay: bool = True,
        resume_seqs: Mapping[str, int] | None = None,
        token: str | None = _UNSET,  # type: ignore[assignment]
        tls_ca: str | None = _UNSET,  # type: ignore[assignment]
        tls_insecure: bool = _UNSET,  # type: ignore[assignment]
    ) -> "AsyncDetectionClient":
        """Connect and handshake.

        ``endpoint`` follows :class:`DetectionClient`: an
        :class:`~repro.server.endpoint.Endpoint` or a ``repro://`` /
        ``repros://`` URL string.  ``connect_retries`` / ``retry_delay``
        retry refused/reset connects with the same bounded exponential
        backoff + jitter as the blocking client (:func:`backoff_delay`)
        — the router leans on this to ride out a backend respawn.
        Every attempt builds a fresh TLS context and the HELLO it
        completes re-presents the endpoint's auth token, so a restarted
        TLS+auth backend is rejoined with full credentials.  The
        endpoint's ``timeout`` bounds each connect attempt (TCP and TLS)
        and the HELLO, as the blocking client's socket timeout does; a
        silent peer raises :class:`TimeoutError`."""
        resolved = resolve_endpoint(
            endpoint, token=token, tls_ca=tls_ca, tls_insecure=tls_insecure
        )
        client = cls(None, None, namespace, fresh, on_gap, auto_replay, resume_seqs)
        client.endpoint = resolved
        last_error: Exception | None = None
        for attempt in range(connect_retries + 1):
            try:
                ssl_context = resolved.client_ssl_context()  # fresh per try
                client._reader, client._writer = await _within(
                    resolved.timeout,
                    asyncio.open_connection(
                        resolved.host,
                        resolved.port,
                        ssl=ssl_context,
                        server_hostname=resolved.host if ssl_context else None,
                    ),
                )
                break
            except _RETRYABLE_CONNECT_ERRORS as exc:
                last_error = exc
                if attempt < connect_retries:
                    await asyncio.sleep(backoff_delay(attempt, retry_delay))
        if client._reader is None:
            raise last_error  # type: ignore[misc]
        client._reader_task = asyncio.ensure_future(client._read_loop())
        try:
            client.server_info = await _within(
                resolved.timeout,
                client._run(client._session.hello(namespace, fresh, resolved.token)),
            )
        except BaseException:
            # A failed handshake (rejected token, draining server, silent
            # peer) must not leak the reader task + writer transport.
            await client.close()
            raise
        client.namespace = client.server_info["namespace"]
        return client

    async def _read_loop(self) -> None:
        try:
            while True:
                frame = await protocol.read_frame_async(self._reader)
                if frame.type == _PUSH:
                    self.events.put_nowait(self._session.events_of(frame))
                elif frame.type == FrameType.BYE:
                    self._saw_bye = True
                    self._fail_pending(ConnectionClosedError("server is draining"))
                elif not self._pending:
                    raise ProtocolError(f"unsolicited {frame.type.name} reply")
                else:
                    future = self._pending.pop(0)
                    if not future.done():
                        future.set_result(frame)
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            asyncio.CancelledError,
        ) as exc:
            self._fail_pending(ConnectionClosedError(f"connection lost: {exc!r}"))
        except ProtocolError as exc:
            self._fail_pending(exc)

    def _fail_pending(self, exc: Exception) -> None:
        # Remember the terminal error: a request issued *after* the read
        # loop died would otherwise enqueue a future nothing resolves.
        self._conn_error = exc
        pending, self._pending = self._pending, []
        for future in pending:
            if not future.done():
                future.set_exception(exc)

    def _check_usable(self) -> None:
        if self._closed or self._saw_bye:
            raise ConnectionClosedError("client is closed")
        if self._conn_error is not None:
            raise ConnectionClosedError(
                f"connection unusable: {self._conn_error}"
            ) from self._conn_error

    def _send(self, buffers: Sequence) -> asyncio.Future:
        """Write one request; returns the future of its reply."""
        self._check_usable()
        future = asyncio.get_running_loop().create_future()
        self._pending.append(future)
        self._writer.writelines(buffers)
        return future

    async def _roundtrip(self, buffers: Sequence) -> Frame:
        future = self._send(buffers)
        await self._writer.drain()
        return await future

    @staticmethod
    async def _drive(op, step, result=None):
        """:meth:`DetectionClient._drive`, awaiting each ``step``."""
        try:
            while True:
                result = await step(op.send(result))
        except StopIteration as done:
            return done.value

    def _run(self, op):
        return self._drive(op, self._roundtrip)

    async def ingest(self, stream_id: str, samples) -> list[PeriodStartEvent]:
        """Feed one batch into one stream."""
        return await self.ingest_many({stream_id: samples})

    async def _ingest(self, ids: list[str], op) -> list[PeriodStartEvent]:
        """Run an ingest operation with its request sent in call order.

        Concurrent ingests share the connection (the router forwards
        many at once).  One whose ids need a REGISTER round trip first
        holds the later ones back until its own request is out, so no
        stream's samples overtake its earlier ones.
        """
        async with self._order:
            await self._run(self._session.register(ids))
            future = self._send(next(op))  # the ids are interned by now
        await self._writer.drain()
        return await self._drive(op, self._roundtrip, await future)

    async def ingest_many(self, batches: Mapping) -> list[PeriodStartEvent]:
        """Feed one batch per stream in one round trip."""
        return await self._ingest(list(batches), self._session.ingest_many(batches))

    async def ingest_lockstep(self, traces: Mapping) -> list[PeriodStartEvent]:
        """Feed equally long traces into many streams as one matrix."""
        return await self._ingest(list(traces), self._session.ingest_lockstep(traces))

    async def ingest_rows(
        self,
        ids: Sequence[str],
        rows: np.ndarray | Sequence[np.ndarray],
        *,
        lockstep: bool = False,
    ) -> list[PeriodStartEvent]:
        """Feed one pre-built row per stream, without re-stacking.

        The router's forwarding fast path: it already holds a decoded
        hot frame's rows — a matrix, or the per-row form's arrays — and
        the per-backend slice *is* the payload; re-splitting it into
        per-stream dicts only to have ``ingest_many`` stack them again
        would add a copy and a Python loop per stream.  Handles are
        re-interned against *this* connection.
        """
        op = self._session.ingest(ids, rows, lockstep=lockstep)
        return await self._ingest(list(ids), op)

    async def subscribe(self, scope: str = "own") -> None:
        """Receive event pushes on :attr:`events`."""
        await self._run(self._session.subscribe(scope))

    async def replay(
        self,
        stream_id: str,
        from_seq: int,
        *,
        upto: int | None = None,
        scope: str | None = None,
    ) -> tuple[list[PeriodStartEvent], int | None]:
        """Re-fetch journaled events (see :meth:`DetectionClient.replay`)."""
        return await self._run(self._session.replay(stream_id, from_seq, upto, scope))

    async def resync(self, stream_ids: Iterable[str]) -> list[PeriodStartEvent]:
        """Catch up to the journal's tail without waiting for a push
        (see :meth:`DetectionClient.resync`)."""
        return await self._drive(self._session.resync(stream_ids), self._replay_gap)

    async def next_events(
        self, timeout: float | None = None
    ) -> list[PeriodStartEvent] | None:
        """Next pushed event batch (or ``None`` on timeout), with
        per-stream seq gaps transparently replayed before delivery —
        the asyncio twin of :meth:`DetectionClient.next_events`.
        Reading :attr:`events` directly bypasses gap recovery.
        """
        try:
            batch = await asyncio.wait_for(self.events.get(), timeout)
        except asyncio.TimeoutError:
            return None
        return await self._drive(self._session.splice(batch), self._replay_gap)

    async def snapshot(self, stream_ids=None) -> dict[str, dict]:
        """Engine snapshots of this namespace's streams."""
        return await self._run(self._session.snapshot(stream_ids))

    async def restore(self, states: Mapping[str, dict]) -> int:
        """Reinstate streams from snapshot blobs."""
        return await self._run(self._session.restore(states))

    async def remove_streams(self, stream_ids: Sequence[str]) -> int:
        """Drop named streams from this namespace (journal untouched —
        see :meth:`DetectionClient.remove_streams`)."""
        return await self._run(self._session.remove_streams(stream_ids))

    async def stats(self, *, periods: bool = False) -> dict:
        """Pool + server statistics."""
        return await self._run(self._session.stats(periods))

    async def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass
