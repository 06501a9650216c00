"""Multi-node detection cluster: the consistent-hash router tier.

One ``repro serve`` daemon scales to the cores of one machine (via
:class:`~repro.service.sharding.ShardedDetectorPool`); this module
scales past the machine.  :class:`DetectionRouter` (``repro route``) is
an asyncio daemon that speaks the existing wire protocol
(:mod:`repro.server.protocol`) on *both* sides and makes N backend
``repro serve`` daemons look like one server.  Its upstream side —
accept, handshake, REGISTER, the per-connection outbox and writer loop —
is the daemon frontend it shares with ``repro serve``
(:mod:`repro.server.frontend`); this module is the backend behind it,
a ring of links to the backend daemons:

* **Placement** — streams are placed on backends by a consistent-hash
  ring (:class:`~repro.service.sharding.HashRing`, the same process-
  stable crc32 that backs ``shard_of``), so a node join/leave moves
  ~1/N of the streams instead of re-homing everything.
* **Hot-path forwarding, zero JSON** — an incoming ``INGEST_HOT`` /
  ``LOCKSTEP_HOT`` frame is decoded once (a zero-copy view), its sample
  matrix is sliced *row-wise* per owning backend, and each slice is
  re-emitted as a binary hot frame with handles re-interned against the
  backend connection.  The payload bytes are never re-encoded through
  JSON; backends are driven concurrently, never serialised.
* **Seq-coherent fan-in** — every stream lives on exactly one backend
  at a time and its per-stream ``seq`` travels with its snapshot, so
  the per-backend event feeds are already globally coherent per stream:
  the router simply forwards each backend's pushes in arrival order and
  no cross-node coordination is needed.  ``REPLAY`` fans out to every
  backend and fuses the answers with
  :func:`~repro.server.protocol.merge_replay_answers` — a stream's
  journal history may be split across nodes by past migrations.
* **Migration** — :meth:`DetectionRouter.add_backend` /
  :meth:`~DetectionRouter.remove_backend` quiesce forwarding, move the
  re-homed streams over the wire with the existing SNAPSHOT/RESTORE
  frames (the snapshot carries the stream's seq counter, so the new
  owner *continues* the numbering), drop them from the old owner with
  REMOVE (its journal keeps the already-produced prefix replayable),
  and flush pending backend pushes through a loop-side replay barrier
  before new-owner events can be produced.  Subscribers therefore see
  an exact, gap-replayable seq tail across a migration.  Migration
  assumes backends without cross-call pipelining (the ``repro serve``
  default), whose snapshots always observe fully applied state.
* **STATS aggregation** — one STATS call sums the per-backend pool
  blocks and merges ``kernel_backend`` / ``lockstep_backend`` exactly
  like the sharded-pool stats merge (``"mixed"`` on disagreement), so a
  heterogeneous fleet is visible at a glance; per-backend blocks ride
  along under ``server.backends``.

Upstream, the frontend gives the router the same TLS, token auth and
handshake bounds as ``repro serve``.  Downstream, backends are
per-backend endpoints (``repros://`` URLs or ``backend_token`` /
``backend_tls_ca`` defaults), with every reconnect re-presenting the
token and negotiating a fresh TLS context.  Backend quota denials pass
through untouched — a backend's BUSY becomes the upstream reply via the
frontend writer loop's ``ServerBusy`` mapping, and backend quota STATS
aggregate per namespace across the fleet.

A backend that dies is reconnected on demand with the client layer's
bounded exponential backoff; while it is down, requests that need it
answer ERROR (producers retry), and once it respawns — ``repro serve
--state-dir`` restores its streams and journal — the end subscriber's
seq tracking replays exactly what the outage dropped, through the
router, from the backend's recovered journal.
"""

from __future__ import annotations

import asyncio
import time
import urllib.parse
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from repro.server import protocol
from repro.server.client import (
    AsyncDetectionClient,
    ConnectionClosedError,
    backoff_delay,
)
from repro.server.endpoint import Endpoint
from repro.server.frontend import (
    INGEST_FRAMES,
    LOCKSTEP_FRAMES,
    Connection,
    Frontend,
    FrontendConfig,
    LoopThread,
    ingest_formatter,
    ingest_request,
    replay_range,
    replay_reply,
    request_scope,
    stream_list,
)
from repro.server.protocol import Frame, FrameType, ProtocolError
from repro.service.events import PeriodStartEvent
from repro.service.sharding import HashRing
from repro.util.logging import get_logger
from repro.util.validation import ValidationError, check_positive_int

__all__ = ["DetectionRouter", "RouterConfig", "RouterThread"]

_logger = get_logger(__name__)

#: Stream name of the loop-side replay used as a migration barrier; its
#: reply queues behind every already-produced push on the same backend
#: connection, so awaiting it (plus the pump's queue join) proves the
#: old owner's events reached the upstream outbox first.
_BARRIER_STREAM = "__router_migration_barrier__"


def parse_backend(address: str) -> tuple[str, int]:
    """Split a ``HOST:PORT`` backend address."""
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise ValidationError(f"backend address must be HOST:PORT, got {address!r}")
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ValidationError(f"bad backend port in {address!r}") from exc
    return host, port


def _backend_name(address: str) -> str:
    """The name a backend is keyed and reported by: the address as
    given, minus a URL's token, so STATS and logs never carry it."""
    if "://" not in address:
        return address
    split = urllib.parse.urlsplit(address)
    return split._replace(netloc=split.netloc.rpartition("@")[2]).geturl()


@dataclass
class RouterConfig(FrontendConfig):
    """Configuration of :class:`DetectionRouter`.

    The listen address, per-connection bounds, ``max_protocol``, TLS
    and token auth are the :class:`~repro.server.frontend.
    FrontendConfig` fields, applied to upstream clients (each backend
    additionally applies its own ``max_inflight``); the router adds:

    Attributes
    ----------
    replicas:
        Virtual points per backend on the hash ring.
    connect_retries, retry_delay:
        Downstream (re)connect policy per backend — bounded exponential
        backoff with jitter, shared with the client layer.  The default
        rides out a backend respawn of a few seconds.
    backend_token, backend_tls_ca, backend_tls_insecure:
        Defaults applied to every backend endpoint that does not set
        them itself: the token presented to backends' HELLO, the CA
        bundle their certificates verify against, and (testing only)
        disabling backend certificate verification.
    """

    replicas: int = 128
    connect_retries: int = 12
    retry_delay: float = 0.1
    backend_token: str | None = None
    backend_tls_ca: str | None = None
    backend_tls_insecure: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive_int(self.replicas, "replicas")
        if self.connect_retries < 0:
            raise ValidationError("connect_retries must be >= 0")
        if self.retry_delay <= 0:
            raise ValidationError("retry_delay must be positive")


@dataclass
class _BackendLink:
    """One upstream connection's channel to one backend."""

    backend: str
    client: AsyncDetectionClient | None = None
    pump: asyncio.Task | None = None
    monitor: asyncio.Task | None = None
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)


class _RouterConn(Connection):
    """An upstream connection plus its downstream links."""

    def __init__(self, router: "DetectionRouter", writer: asyncio.StreamWriter):
        super().__init__(router, writer)
        #: Downstream clients, one per backend, created on demand.  Each
        #: shares this connection's namespace, so stream names map 1:1.
        self.links: dict[str, _BackendLink] = {}
        #: Set once the links are being closed: a link connect still in
        #: flight then closes its client instead of installing it.
        self.released = False


class DetectionRouter(Frontend):
    """Present N backend detection servers as one (see module docstring).

    Parameters
    ----------
    backends:
        Initial backend addresses, at least one — ``"HOST:PORT"`` or
        ``repro[s]://`` endpoint URLs (see
        :class:`~repro.server.endpoint.Endpoint`); the config's
        ``backend_token`` / ``backend_tls_ca`` / ``backend_tls_insecure``
        fill whatever a URL leaves unset.
    config:
        Listen address, ring and queue bounds, upstream TLS + auth.
    """

    config: RouterConfig
    _auto_prefix = "r"
    _connection = _RouterConn

    def __init__(
        self, backends: Iterable[str], config: RouterConfig | None = None
    ) -> None:
        super().__init__(config or RouterConfig())
        self._backends: dict[str, Endpoint] = {}
        for address in backends:
            self._backends[_backend_name(address)] = self._backend_endpoint(address)
        if not self._backends:
            raise ValidationError("a router needs at least one backend")
        self.ring = HashRing(self._backends, replicas=self.config.replicas)
        #: Every full ``<ns>/<stream>`` id the router has placed; the
        #: enumeration basis for migrations (ownership itself is always
        #: re-derived from the ring).
        self._placement: dict[str, str] = {}
        # Forward quiescing: migrations close the gate, wait for the
        # in-flight forwards to drain, move streams, reopen.
        self._forward_gate = asyncio.Event()
        self._forward_gate.set()
        self._inflight_forwards = 0
        self._forwards_idle = asyncio.Event()
        self._forwards_idle.set()
        self._migrate_lock = asyncio.Lock()
        # Counters + per-layer profile (cumulative seconds, on top of
        # the frontend's upstream encode and syscall), surfaced by STATS
        # for the bench's --profile breakdown.
        self.hot_forwards = 0
        self.json_forwards = 0
        self.fanin_batches = 0
        self.replays_served = 0
        self.migrations = 0
        self.migrated_streams = 0
        self.profile.update(
            slice=0.0,  # partition + row-slice of incoming matrices
            forward=0.0,  # awaiting backend ingest replies
            fanin=0.0,  # backend push -> upstream outbox
        )

    def _backend_endpoint(self, address: str) -> Endpoint:
        """Normalise one ``--backend`` address to an :class:`Endpoint`.

        URL addresses carry their own TLS/token parameters; bare
        ``HOST:PORT`` stays plain TCP.  Config-level backend defaults
        fill only the fields the address left unset.
        """
        if "://" in address:
            endpoint = Endpoint.parse(address)
        else:
            host, port = parse_backend(address)
            endpoint = Endpoint(host=host, port=port)
        cfg = self.config
        updates: dict = {}
        if endpoint.token is None and cfg.backend_token is not None:
            updates["token"] = cfg.backend_token
        if endpoint.tls and endpoint.tls_ca is None and cfg.backend_tls_ca:
            updates["tls_ca"] = cfg.backend_tls_ca
        if endpoint.tls and cfg.backend_tls_insecure and not endpoint.tls_insecure:
            updates["tls_insecure"] = True
        return replace(endpoint, **updates) if updates else endpoint

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def backends(self) -> list[str]:
        """Current backend names (see :func:`_backend_name`), sorted."""
        return sorted(self._backends)

    async def stop(self) -> None:
        """Say BYE upstream, close every connection and stop listening."""
        self._draining = True
        if self._server is not None:
            self._server.close()
        conns = list(self._connections)
        await self._say_bye()
        for conn in conns:
            await self._close_links(conn)
        self._connections.clear()
        if self._server is not None:
            await self._server.wait_closed()

    async def _close_links(self, conn: _RouterConn) -> None:
        conn.released = True
        for backend in list(conn.links):
            await self._drop_link(conn, backend)
        conn.links.clear()

    # ------------------------------------------------------------------
    # downstream links
    # ------------------------------------------------------------------
    async def _link_client(
        self, conn: _RouterConn, backend: str, *, fresh: bool = False
    ) -> AsyncDetectionClient:
        """The connection's client for ``backend``, (re)connected on demand.

        The whole connect *including the HELLO handshake* retries with
        bounded exponential backoff: during a backend kill/respawn
        window a connect can be accepted by the dying socket and reset
        mid-handshake, which a refused-connect-only retry would miss.
        """
        if conn.released:
            raise ConnectionClosedError("upstream connection closed")
        link = conn.links.get(backend)
        if link is None:
            link = conn.links[backend] = _BackendLink(backend)
        async with link.lock:
            if link.client is None:
                endpoint = self._backends[backend]
                for attempt in range(self.config.connect_retries + 1):
                    try:
                        # Each attempt re-resolves TLS (a fresh context
                        # per try) and re-presents the backend token in
                        # HELLO — both live on the endpoint.
                        client = await AsyncDetectionClient.connect(
                            endpoint,
                            namespace=conn.namespace,
                            fresh=fresh,
                            max_protocol=self.config.max_protocol,
                        )
                        break
                    except (ConnectionError, OSError):
                        if attempt >= self.config.connect_retries:
                            raise
                        await asyncio.sleep(
                            backoff_delay(attempt, self.config.retry_delay)
                        )
                if conn.released:
                    await client.close()
                    raise ConnectionClosedError("upstream connection closed")
                link.client = client
                if conn.subscription is not None:
                    await client.subscribe(conn.subscription)
                    self._start_pump(conn, link)
        return link.client

    async def _drop_link(self, conn: _RouterConn, backend: str) -> None:
        """Tear a link down after a connection failure (or backend leave)."""
        link = conn.links.get(backend)
        if link is None:
            return
        for attr in ("pump", "monitor"):
            task = getattr(link, attr)
            if task is not None and task is not asyncio.current_task():
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
            setattr(link, attr, None)
        if link.client is not None:
            try:
                await link.client.close()
            except Exception:  # pragma: no cover
                pass
            link.client = None

    async def _on_link(self, conn: _RouterConn, backend: str, op):
        """Run ``op(client)`` on a backend link, reconnecting once if the
        connection turns out to be dead (a backend respawn)."""
        for attempt in (0, 1):
            client = await self._link_client(conn, backend)
            try:
                return await op(client)
            except (ConnectionClosedError, ConnectionError, OSError):
                await self._drop_link(conn, backend)
                if attempt:
                    raise

    def _start_pump(self, conn: _RouterConn, link: _BackendLink) -> None:
        link.pump = asyncio.ensure_future(self._pump(conn, link, link.client))
        link.monitor = asyncio.ensure_future(
            self._monitor_link(conn, link, link.client)
        )

    async def _monitor_link(
        self, conn: _RouterConn, link: _BackendLink, client: AsyncDetectionClient
    ) -> None:
        """Repair a subscribed link whose backend connection died.

        Pumps only *read* their client, so a killed backend would
        otherwise leave the subscription silently dark until the next
        request happened to touch that backend.  This watches the
        client's reader task; when it ends unexpectedly (not a close we
        initiated) the link reconnects with the usual backoff and
        re-subscribes.  Events pushed while the backend was down surface
        to the end subscriber as seq gaps, which its auto-replay
        recovers through the router's replay fan-in from the respawned
        backend's journal.
        """
        reader = client._reader_task
        if reader is None:  # pragma: no cover - connect always sets it
            return
        await asyncio.wait({reader})
        if (
            self._draining
            or conn.dead
            or client._closed
            or conn.links.get(link.backend) is not link
            or link.client is not client
        ):
            return
        link.monitor = None
        _logger.warning(
            "router: connection to backend %s lost; reconnecting", link.backend
        )
        try:
            await self._drop_link(conn, link.backend)
            await self._link_client(conn, link.backend)
        except Exception as exc:
            _logger.warning(
                "router: reconnect to backend %s failed: %s", link.backend, exc
            )

    async def _pump(
        self, conn: _RouterConn, link: _BackendLink, client: AsyncDetectionClient
    ) -> None:
        """Forward one backend subscription feed upstream, FIFO.

        Per-stream ordering needs nothing more: a stream's events come
        from its single owner in seq order, and migrations flush this
        queue (``events.join()``) before the new owner may produce.
        """
        try:
            while True:
                batch = await client.events.get()
                try:
                    start = time.perf_counter()
                    if batch:
                        self.fanin_batches += 1
                        conn.push_events(sorted({e.stream_id for e in batch}), batch)
                    self.profile["fanin"] += time.perf_counter() - start
                finally:
                    client.events.task_done()
        except asyncio.CancelledError:
            raise
        except Exception:  # pragma: no cover - defensive
            _logger.exception("router pump for backend %s failed", link.backend)

    # ------------------------------------------------------------------
    # forward quiescing (migrations)
    # ------------------------------------------------------------------
    async def _acquire_forward(self) -> None:
        while not self._forward_gate.is_set():
            await self._forward_gate.wait()
        self._inflight_forwards += 1
        self._forwards_idle.clear()

    def _release_forward(self) -> None:
        self._inflight_forwards -= 1
        if self._inflight_forwards == 0:
            self._forwards_idle.set()

    # ------------------------------------------------------------------
    # membership + migration
    # ------------------------------------------------------------------
    async def add_backend(self, address: str) -> int:
        """Join a backend and migrate the ~1/N streams it now owns.

        Returns the number of migrated streams.  The new node must be
        reachable; so must every old owner of a moving stream.
        """
        name = _backend_name(address)
        async with self._migrate_lock:
            if name in self._backends:
                return 0
            target = self._backend_endpoint(address)
            self._forward_gate.clear()
            try:
                await self._forwards_idle.wait()
                self._backends[name] = target
                self.ring.add(name)
                moves = {
                    sid: (old, self.ring.node_of(sid))
                    for sid, old in self._placement.items()
                    if self.ring.node_of(sid) != old
                }
                moved = await self._migrate(moves)
                # Subscribed connections need a live, subscribed link to
                # the new node *before* it can produce events (forwards
                # are still gated here), or its pushes would be dropped
                # until the next request touched it.
                for conn in list(self._connections):
                    if conn.subscription is not None and not conn.dead:
                        await self._link_client(conn, name)
            except BaseException:
                # Failed joins must not leave a half-member node behind.
                if not any(b == name for b in self._placement.values()):
                    self.ring.remove(name)
                    self._backends.pop(name, None)
                raise
            finally:
                self._forward_gate.set()
            self.migrations += 1
            self.migrated_streams += moved
            return moved

    async def remove_backend(self, address: str) -> int:
        """Gracefully drain a backend: migrate its streams off, drop it.

        The leaving backend must still be reachable (its live stream
        state is the only copy — replicated placement is future work).
        """
        name = _backend_name(address)
        async with self._migrate_lock:
            if name not in self._backends:
                raise ValidationError(f"unknown backend {name!r}")
            if len(self._backends) == 1:
                raise ValidationError("cannot remove the last backend")
            self._forward_gate.clear()
            try:
                await self._forwards_idle.wait()
                self.ring.remove(name)
                moves = {
                    sid: (name, self.ring.node_of(sid))
                    for sid, old in self._placement.items()
                    if old == name
                }
                moved = await self._migrate(moves)
                for conn in list(self._connections):
                    await self._drop_link(conn, name)
                    conn.links.pop(name, None)
                self._backends.pop(name, None)
            except BaseException:
                self.ring.add(name)
                raise
            finally:
                self._forward_gate.set()
            self.migrations += 1
            self.migrated_streams += moved
            return moved

    async def _migrate(self, moves: dict[str, tuple[str, str]]) -> int:
        """Move streams between backends via SNAPSHOT/RESTORE/REMOVE.

        Runs with forwards quiesced.  Per (old owner, namespace) group:
        snapshot on the old owner (ephemeral connection in that
        namespace), restore on each stream's new owner, REMOVE the old
        copies.  The snapshot carries the per-stream seq counter, so the
        new owner continues the numbering exactly; the old owner's
        journal keeps the produced prefix replayable.
        """
        if not moves:
            return 0
        groups: dict[tuple[str, str], list[str]] = {}
        for sid, (old, _new) in moves.items():
            ns, _, local = sid.partition("/")
            groups.setdefault((old, ns), []).append(local)
        moved = 0
        touched_old: set[str] = set()
        for (old, ns), locals_ in sorted(groups.items()):
            snap_client = await AsyncDetectionClient.connect(
                self._backends[old],
                namespace=ns,
                connect_retries=self.config.connect_retries,
                retry_delay=self.config.retry_delay,
            )
            try:
                states = await snap_client.snapshot(sorted(locals_))
                by_new: dict[str, dict] = {}
                for local, entry in states.items():
                    new = moves[f"{ns}/{local}"][1]
                    by_new.setdefault(new, {})[local] = entry
                for new, entries in sorted(by_new.items()):
                    restore_client = await AsyncDetectionClient.connect(
                        self._backends[new],
                        namespace=ns,
                        connect_retries=self.config.connect_retries,
                        retry_delay=self.config.retry_delay,
                    )
                    try:
                        moved += await restore_client.restore(entries)
                    finally:
                        await restore_client.close()
                if states:
                    await snap_client.remove_streams(sorted(states))
            finally:
                await snap_client.close()
            touched_old.add(old)
        # Flush every subscribed link to an old owner: a loop-side
        # replay's reply queues behind all pending pushes, and the queue
        # join proves the pump forwarded them upstream — after this, no
        # pre-migration event can trail a post-migration one.
        for conn in list(self._connections):
            if conn.subscription is None or conn.dead:
                continue
            for backend in touched_old:
                link = conn.links.get(backend)
                if link is None or link.client is None:
                    continue
                try:
                    await link.client.replay(_BARRIER_STREAM, 0)
                    await link.client.events.join()
                except (ConnectionError, OSError):  # pragma: no cover
                    pass  # dead link: its pushes are gone anyway
        for sid, (_old, new) in moves.items():
            self._placement[sid] = new
        return moved

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    def _hello(self, conn: _RouterConn, fresh: bool) -> None:
        self._spawn_reply(
            conn, self._finish_hello(conn, fresh), self._format_hello(conn)
        )

    async def _release(self, conn: _RouterConn) -> None:
        await self._close_links(conn)

    async def _finish_hello(self, conn: _RouterConn, fresh: bool) -> tuple[int, dict]:
        """Eagerly connect this namespace to every backend.

        The eager connect pins the namespace's links (so the first
        ingest pays no extra round trips), forwards a ``fresh``
        handshake to each backend, and yields one backend's server info
        for the upstream HELLO reply (mode / window are fleet-wide pool
        configuration).
        """
        if fresh:
            for sid in [s for s in self._placement if s.startswith(conn.prefix)]:
                self._placement.pop(sid, None)
        removed = 0
        info: dict = {}
        for backend in sorted(self._backends):
            client = await self._link_client(conn, backend, fresh=fresh)
            removed += int(client.server_info.get("removed_streams", 0))
            if not info:
                info = client.server_info
        return removed, info

    def _format_hello(self, conn: _RouterConn):
        def fmt(result):
            removed, info = result
            return (
                FrameType.OK,
                {
                    "namespace": conn.namespace,
                    "protocol": conn.version,
                    "mode": info.get("mode"),
                    "window_size": info.get("window_size"),
                    "removed_streams": removed,
                    "router": {"backends": len(self._backends)},
                },
                (),
            )

        return fmt

    def _spawn_reply(self, conn: _RouterConn, coro, formatter) -> asyncio.Future:
        """Run ``coro`` as a task whose result answers in request order."""
        task = asyncio.ensure_future(coro)
        conn.enqueue_reply(("future", task, formatter))
        return task

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------
    def _handle_request(self, conn: _RouterConn, frame: Frame) -> None:
        kind = frame.type
        if kind in INGEST_FRAMES:
            self._handle_ingest(conn, frame)
        elif kind == FrameType.SUBSCRIBE:
            self._handle_subscribe(conn, frame)
        elif kind == FrameType.REPLAY:
            self._handle_replay(conn, frame)
        elif kind == FrameType.SNAPSHOT:
            requested = (
                stream_list(frame) if frame.meta.get("streams") is not None else None
            )
            self._spawn_reply(
                conn,
                self._forward_snapshot(conn, requested),
                self._format_snapshot,
            )
        elif kind == FrameType.RESTORE:
            self._handle_restore(conn, frame)
        elif kind == FrameType.REMOVE:
            ids = stream_list(frame)
            self._spawn_reply(
                conn,
                self._forward_remove(conn, ids),
                lambda n: (FrameType.OK, {"removed": n}, ()),
            )
        elif kind == FrameType.STATS:
            self._spawn_reply(
                conn,
                self._forward_stats(conn, bool(frame.meta.get("periods"))),
                lambda stats: (FrameType.OK, stats, ()),
            )
        else:
            raise ProtocolError(f"unexpected frame type {kind.name}")

    def _handle_subscribe(self, conn: _RouterConn, frame: Frame) -> None:
        scope = request_scope(frame, "subscribe")
        conn.subscription = scope

        async def run() -> str:
            for backend in sorted(self._backends):
                await self._on_link(conn, backend, self._subscribe_op(conn, scope))
            return scope

        self._spawn_reply(conn, run(), lambda s: (FrameType.OK, {"scope": s}, ()))

    def _subscribe_op(self, conn: _RouterConn, scope: str):
        async def op(client: AsyncDetectionClient):
            await client.subscribe(scope)
            link = next(
                ln for ln in conn.links.values() if ln.client is client
            )
            if link.pump is None:
                self._start_pump(conn, link)

        return op

    # -- ingest forwarding (the hot path) ------------------------------
    def _handle_ingest(self, conn: _RouterConn, frame: Frame) -> None:
        if not self._admit_ingest(conn):
            return
        local_ids, matrix, arrays, handles = ingest_request(conn, frame)
        # Decoded payloads are zero-copy views into the network buffer;
        # own the bytes before handing rows to concurrent forward tasks.
        if matrix is not None:
            matrix = np.ascontiguousarray(matrix)
        else:
            arrays = [np.array(arr, copy=True) for arr in arrays]
        if handles is None:
            self.json_forwards += 1
        else:
            self.hot_forwards += 1
        lockstep = frame.type in LOCKSTEP_FRAMES
        conn.inflight += 1
        task = self._spawn_reply(
            conn,
            self._forward_ingest(conn, local_ids, matrix, arrays, lockstep),
            ingest_formatter(conn, local_ids, handles),
        )
        task.add_done_callback(lambda _t: setattr(conn, "inflight", conn.inflight - 1))

    async def _forward_ingest(
        self,
        conn: _RouterConn,
        local_ids: list[str],
        matrix: np.ndarray | None,
        arrays: list[np.ndarray] | None,
        lockstep: bool,
    ) -> list[PeriodStartEvent]:
        """Split one ingest across owning backends and fuse the replies.

        Matrix requests slice row-wise per backend and re-emit binary
        hot frames downstream (zero JSON end to end); ragged JSON
        ingests forward per-stream arrays.  Backends run concurrently.
        """
        await self._acquire_forward()
        try:
            start = time.perf_counter()
            groups: dict[str, list[int]] = {}
            for row, sid in enumerate(local_ids):
                full = conn.prefix + sid
                owner = self.ring.node_of(full)
                groups.setdefault(owner, []).append(row)
                self._placement[full] = owner
            parts: list[tuple[str, list[str], np.ndarray | list[np.ndarray]]] = []
            for backend, rows in groups.items():
                ids = [local_ids[r] for r in rows]
                if matrix is not None:
                    # One backend owns everything: the frame's own matrix
                    # is the forward payload, no slice needed.
                    sub = matrix if len(groups) == 1 else matrix[rows]
                    parts.append((backend, ids, sub))
                else:
                    parts.append((backend, ids, [arrays[r] for r in rows]))
            self.profile["slice"] += time.perf_counter() - start

            async def one(backend: str, ids: list[str], payload):
                if matrix is not None:
                    async def op(client: AsyncDetectionClient):
                        return await client.ingest_rows(ids, payload, lockstep=lockstep)
                else:
                    async def op(client: AsyncDetectionClient):
                        return await client.ingest_many(dict(zip(ids, payload)))
                return await self._on_link(conn, backend, op)

            start = time.perf_counter()
            replies = await asyncio.gather(*(one(*part) for part in parts))
            self.profile["forward"] += time.perf_counter() - start
        finally:
            self._release_forward()
        events: list[PeriodStartEvent] = []
        for batch in replies:
            events.extend(batch)
        return events

    # -- replay fan-in -------------------------------------------------
    def _handle_replay(self, conn: _RouterConn, frame: Frame) -> None:
        stream, from_seq, upto = replay_range(frame)
        scope = request_scope(frame, "replay")

        async def run():
            async def op(client: AsyncDetectionClient):
                return await client.replay(stream, from_seq, upto=upto, scope=scope)

            answers = []
            for backend in sorted(self._backends):
                try:
                    answers.append(await self._on_link(conn, backend, op))
                except (ConnectionError, OSError):
                    # A dead backend holds no replayable history right
                    # now; the remaining answers (and the merge's gap
                    # rules) stay honest about what is recoverable.
                    continue
            self.replays_served += 1
            return protocol.merge_replay_answers(answers, from_seq, upto)

        self._spawn_reply(
            conn, run(), lambda result: replay_reply(stream, from_seq, upto, *result)
        )

    # -- state + stats -------------------------------------------------
    @staticmethod
    def _format_snapshot(states: dict):
        tree, arrays = protocol.pack_object(states)
        return FrameType.OK, {"states": tree}, tuple(arrays)

    async def _forward_snapshot(
        self, conn: _RouterConn, requested: list[str] | None
    ) -> dict:
        merged: dict[str, dict] = {}
        for backend in sorted(self._backends):
            async def op(client: AsyncDetectionClient):
                return await client.snapshot(requested)

            states = await self._on_link(conn, backend, op)
            for sid, entry in states.items():
                merged.setdefault(sid, entry)
        return merged

    def _handle_restore(self, conn: _RouterConn, frame: Frame) -> None:
        states = protocol.unpack_object(frame.meta.get("states"), frame.arrays)
        if not isinstance(states, dict):
            raise ProtocolError("RESTORE meta must carry a 'states' mapping")

        async def run() -> int:
            await self._acquire_forward()
            try:
                groups: dict[str, dict] = {}
                for local, entry in states.items():
                    full = conn.prefix + local
                    owner = self.ring.node_of(full)
                    groups.setdefault(owner, {})[local] = entry
                    self._placement[full] = owner

                async def one(backend: str, entries: dict) -> int:
                    async def op(client: AsyncDetectionClient):
                        return await client.restore(entries)

                    return await self._on_link(conn, backend, op)

                counts = await asyncio.gather(
                    *(one(b, entries) for b, entries in groups.items())
                )
            finally:
                self._release_forward()
            return sum(counts)

        self._spawn_reply(conn, run(), lambda n: (FrameType.OK, {"restored": n}, ()))

    async def _forward_remove(self, conn: _RouterConn, ids: list[str]) -> int:
        await self._acquire_forward()
        try:
            removed = 0
            for backend in sorted(self._backends):
                async def op(client: AsyncDetectionClient):
                    return await client.remove_streams(ids)

                removed += await self._on_link(conn, backend, op)
            for sid in ids:
                self._placement.pop(conn.prefix + sid, None)
        finally:
            self._release_forward()
        return removed

    async def _forward_stats(self, conn: _RouterConn, periods: bool) -> dict:
        per_backend: dict[str, dict] = {}
        for backend in sorted(self._backends):
            async def op(client: AsyncDetectionClient):
                return await client.stats(periods=periods)

            try:
                per_backend[backend] = await self._on_link(conn, backend, op)
            except (ConnectionError, OSError):
                per_backend[backend] = {"error": "backend unavailable"}
        pools = [b["pool"] for b in per_backend.values() if "pool" in b]
        # kernel_backend / lockstep_backend merge exactly like the
        # sharded-pool stats merge: one value when the fleet agrees,
        # "mixed" on disagreement, None when never reported.
        lockstep = {p.get("lockstep_backend") for p in pools} - {None}
        kernels = {p.get("kernel_backend") for p in pools} - {None}
        modes = {p.get("mode") for p in pools} - {None}
        merged_pool = {
            "streams": sum(p.get("streams", 0) for p in pools),
            "created": sum(p.get("created", 0) for p in pools),
            "evicted": sum(p.get("evicted", 0) for p in pools),
            "total_samples": sum(p.get("total_samples", 0) for p in pools),
            "total_events": sum(p.get("total_events", 0) for p in pools),
            "locked_streams": sum(p.get("locked_streams", 0) for p in pools),
            "mode": modes.pop() if len(modes) == 1 else ("mixed" if modes else None),
            "lockstep_backend": (
                lockstep.pop()
                if len(lockstep) == 1
                else ("mixed" if lockstep else None)
            ),
            "kernel_backend": (
                kernels.pop() if len(kernels) == 1 else ("mixed" if kernels else None)
            ),
        }
        result: dict = {
            "pool": merged_pool,
            "server": {
                "router": {
                    "backends": sorted(self._backends),
                    "ring": {
                        "nodes": self.ring.nodes,
                        "replicas": self.ring.replicas,
                        "placed_streams": len(self._placement),
                    },
                    "connections": len(self._connections),
                    "busy_replies": self.busy_replies,
                    "dropped_events": self.dropped_events,
                    "hot_forwards": self.hot_forwards,
                    "json_forwards": self.json_forwards,
                    "fanin_batches": self.fanin_batches,
                    "replays_served": self.replays_served,
                    "migrations": self.migrations,
                    "migrated_streams": self.migrated_streams,
                },
                "profile": dict(self.profile),
                "backends": per_backend,
            },
        }
        result["server"].update(self._frontend_stats(conn))
        # Per-namespace quota counters are all integers by contract
        # (see QuotaManager.stats), so a tenant spread across backends
        # aggregates by plain summation.
        quota_totals: dict[str, dict[str, int]] = {}
        for block in per_backend.values():
            backend_quotas = block.get("server", {}).get("quotas") or {}
            for namespace, counters in backend_quotas.items():
                dest = quota_totals.setdefault(namespace, {})
                for key, value in counters.items():
                    if isinstance(value, bool) or not isinstance(value, (int, float)):
                        continue
                    dest[key] = dest.get(key, 0) + value
        if quota_totals:
            result["server"]["quotas"] = {
                namespace: quota_totals[namespace]
                for namespace in sorted(quota_totals)
            }
        if periods:
            merged_periods: dict = {}
            for block in per_backend.values():
                for sid, period in block.get("periods", {}).items():
                    if merged_periods.get(sid) is None:
                        merged_periods[sid] = period
            result["periods"] = merged_periods
        return result


# ----------------------------------------------------------------------
# threaded hosting (tests, benchmarks)
# ----------------------------------------------------------------------
class RouterThread(LoopThread):
    """Host a :class:`DetectionRouter` on a private loop in a daemon
    thread — the router twin of :class:`~repro.server.server.ServerThread`::

        with RouterThread([f"{host}:{port}"]) as (rhost, rport):
            client = DetectionClient(f"repro://{rhost}:{rport}")
    """

    def __init__(
        self, backends: Sequence[str], config: RouterConfig | None = None
    ) -> None:
        self.router = DetectionRouter(backends, config)
        super().__init__(self.router, "repro-router")

    def add_backend(self, address: str, timeout: float = 60.0) -> int:
        """Join a backend (see :meth:`DetectionRouter.add_backend`)."""
        return self.call(self.router.add_backend(address), timeout)

    def remove_backend(self, address: str, timeout: float = 60.0) -> int:
        """Drain a backend (see :meth:`DetectionRouter.remove_backend`)."""
        return self.call(self.router.remove_backend(address), timeout)
