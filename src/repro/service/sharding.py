"""Sharded multi-process detection service: scale the pool across cores.

One :class:`~repro.service.pool.DetectorPool` is single-threaded, and
under the GIL threads cannot help, so :class:`ShardedDetectorPool`
partitions streams by a *stable* hash of their name across N worker
processes, each owning a private pool.  The partition is pure routing —
streams are independent, so a sharded run is stream-for-stream identical
to a single-process pool ingesting the same traces.

Data path (see :mod:`repro.service.shm_ring`): sample batches cross the
process boundary through a preallocated shared-memory ring per shard
(one copy into the ring in the parent, a zero-copy NumPy view in the
worker); detected period starts come back over the control pipe as one
compact structured array per request — never as pickled per-event
object lists.  Batches larger than the ring are chunked transparently.
With ``ShardingConfig.pipeline_depth > 0`` consecutive ingest calls
additionally *pipeline*: the parent keeps a bounded per-shard window of
unacknowledged requests instead of waiting for each call's replies, so
a worker's detector time overlaps the parent's next ring write; events
are handed back as their replies arrive (later ingest calls,
``collect()``, or ``flush()``), and every stateful operation drains
lazily first.

State management reuses the engine ``snapshot`` / ``restore`` protocol
verbatim — the exact mechanism the SoA banks already use to hand streams
to standalone engines — for three jobs:

* ``checkpoint()`` pulls every stream's snapshot into the parent;
* a worker that dies is respawned and its streams are restored from the
  last checkpoint (crash recovery loses at most the samples since then);
* ``rebalance(workers)`` re-partitions all streams onto a different
  worker count by draining snapshots and restoring each stream on its
  new home shard.

No new detection semantics live here: a shard worker runs an unmodified
``DetectorPool``.
"""

from __future__ import annotations

import bisect
import functools
import multiprocessing
import os
import zlib
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, cast

import numpy as np

from repro import kernels
from repro.service.events import PeriodStartEvent, PoolStats, StreamStats
from repro.service.pool import DetectorPool, PoolConfig
from repro.service.shm_ring import ShmSpanWriter, attach_shared_memory, map_span
from repro.util.logging import get_logger
from repro.util.validation import ValidationError, check_positive_int

__all__ = ["HashRing", "ShardedDetectorPool", "ShardingConfig", "shard_of"]

_logger = get_logger(__name__)

#: Cap on unacknowledged requests per shard; bounds both the control-pipe
#: backlog (so neither side ever blocks on a full OS pipe buffer) and the
#: number of live spans in the ring.
_MAX_OUTSTANDING = 32


class _WorkerCrash(Exception):
    """A shard worker died while a request was in flight."""

    def __init__(self, index: int) -> None:
        super().__init__(f"shard worker {index} died mid-operation")
        self.index = index


def shard_of(stream_id: str, shards: int) -> int:
    """Home shard of ``stream_id`` — a stable hash, identical across
    processes and interpreter runs (unlike builtin ``hash``, which is
    salted per process and would route the same stream to different
    shards after a restart)."""
    return zlib.crc32(stream_id.encode("utf-8")) % shards


class HashRing:
    """Consistent-hash placement of streams onto a mutable node set.

    ``shard_of`` routes modulo a *fixed* shard count, so changing the
    count remaps almost every stream.  The router tier needs the other
    property: when a backend joins or leaves an N-node cluster, only
    ~1/N of the streams may move.  The ring gets that the classic way —
    each node is hashed onto a 32-bit circle at ``replicas`` pseudo-
    random points (the same process-stable ``crc32`` that backs
    ``shard_of``, over ``"node#i"``), and a stream belongs to the first
    node point at or after its own hash, wrapping around.  Adding a node
    inserts only that node's points, so only the arc segments directly
    in front of them change owner.

    Placement is a pure function of the node names and ``replicas`` —
    identical across processes, interpreter runs and insertion order.

    Examples
    --------
    >>> ring = HashRing(["a:1", "b:1"])
    >>> ring.node_of("app-0") in {"a:1", "b:1"}
    True
    >>> ring.node_of("app-0") == HashRing(["b:1", "a:1"]).node_of("app-0")
    True
    """

    def __init__(self, nodes: Iterable[str] = (), *, replicas: int = 128) -> None:
        check_positive_int(replicas, "replicas")
        self.replicas = replicas
        self._points: list[int] = []
        self._owners: list[str] = []
        self._nodes: set[str] = set()
        for node in nodes:
            self.add(node)

    @property
    def nodes(self) -> list[str]:
        """Member node names, sorted."""
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def _node_points(self, node: str) -> list[int]:
        return [
            zlib.crc32(f"{node}#{i}".encode("utf-8")) for i in range(self.replicas)
        ]

    def add(self, node: str) -> None:
        """Insert a node's virtual points (idempotent)."""
        if not node:
            raise ValidationError("ring node name must be non-empty")
        if node in self._nodes:
            return
        self._nodes.add(node)
        for point in self._node_points(node):
            at = bisect.bisect_left(self._points, point)
            # Break crc32 point collisions by node name so the winner
            # does not depend on insertion order.
            while at < len(self._points) and self._points[at] == point:
                if self._owners[at] < node:
                    at += 1
                else:
                    break
            self._points.insert(at, point)
            self._owners.insert(at, node)

    def remove(self, node: str) -> None:
        """Drop a node's virtual points (idempotent)."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        keep = [i for i, owner in enumerate(self._owners) if owner != node]
        self._points = [self._points[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]

    def node_of(self, key: str) -> str:
        """Owning node of ``key`` — the first ring point clockwise from
        the key's own hash position."""
        if not self._nodes:
            raise ValidationError("hash ring has no nodes")
        at = bisect.bisect_right(self._points, zlib.crc32(key.encode("utf-8")))
        if at == len(self._points):
            at = 0
        return self._owners[at]

    def partition(self, keys: Iterable[str]) -> dict[str, list[str]]:
        """Group ``keys`` by owning node (nodes with no keys omitted)."""
        groups: dict[str, list[str]] = {}
        for key in keys:
            groups.setdefault(self.node_of(key), []).append(key)
        return groups


@dataclass
class ShardingConfig:
    """Configuration of :class:`ShardedDetectorPool`.

    Attributes
    ----------
    workers:
        Number of worker processes (defaults to the CPU count).
    ring_bytes:
        Capacity of each shard's shared-memory ingest ring.  Batches
        larger than this are chunked, so it bounds memory, not batch
        size.
    start_method:
        ``multiprocessing`` start method; ``None`` picks ``fork`` where
        available (cheap, no re-import) and ``spawn`` elsewhere.
    restore_on_crash:
        When True (default), an operation that finds a dead worker
        respawns it and restores its streams from the last checkpoint
        instead of raising.
    pipeline_depth:
        When positive, ``ingest_many`` / ``ingest_lockstep`` *pipeline*
        across consecutive calls: instead of blocking until every shard
        has replied, a call returns once each shard's in-flight window
        is back under this bound, handing back whichever events have
        materialised so far — a worker's detector time then overlaps the
        parent's next ring write.  Outstanding events are delivered by
        later ingest calls, :meth:`ShardedDetectorPool.collect`, or
        :meth:`ShardedDetectorPool.flush`; stateful operations
        (checkpoint, snapshots, stats, ...) drain lazily first, so they
        always observe fully applied state.  ``0`` (the default) keeps
        every call fully synchronous.  Per-stream event order is
        preserved either way — pipelining changes only *when* events are
        handed back, never their content or relative order.  Values
        beyond the per-shard outstanding-request cap are clamped by it.
    """

    workers: int | None = None
    ring_bytes: int = 1 << 22
    start_method: str | None = None
    restore_on_crash: bool = True
    pipeline_depth: int = 0

    def __post_init__(self) -> None:
        if self.workers is not None:
            check_positive_int(self.workers, "workers")
        check_positive_int(self.ring_bytes, "ring_bytes")
        if self.pipeline_depth < 0:
            raise ValidationError(
                f"pipeline_depth must be >= 0, got {self.pipeline_depth}"
            )
        if self.start_method is not None and self.start_method not in (
            "fork",
            "spawn",
            "forkserver",
        ):
            raise ValidationError(
                f"start_method must be fork/spawn/forkserver, got {self.start_method!r}"
            )

    def resolved_workers(self) -> int:
        """Worker count, defaulting to the machine's CPU count."""
        return self.workers if self.workers is not None else max(os.cpu_count() or 1, 1)

    def resolved_start_method(self) -> str:
        """Start method, preferring ``fork`` for its cheap startup."""
        if self.start_method is not None:
            return self.start_method
        methods = multiprocessing.get_all_start_methods()
        return "fork" if "fork" in methods else "spawn"


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
_EVENT_FIELDS = np.dtype(
    [
        ("stream", np.int32),  # position in the request's stream-id list
        ("index", np.int64),
        ("period", np.int64),
        ("confidence", np.float64),
        ("new_detection", np.bool_),
        ("seq", np.int64),  # per-stream ordinal assigned by the worker pool
    ]
)


def _events_to_array(
    events: list[PeriodStartEvent], positions: Mapping[str, int]
) -> np.ndarray:
    """Pack pool events into one compact structured array for the pipe."""
    out = np.empty(len(events), dtype=_EVENT_FIELDS)
    for row, event in enumerate(events):
        out[row] = (
            positions[event.stream_id],
            event.index,
            event.period,
            event.confidence,
            event.new_detection,
            event.seq,
        )
    return out


def _shard_worker_main(conn, shm_name: str, config: PoolConfig) -> None:
    """Entry point of one shard worker process.

    Owns a private :class:`DetectorPool`; serves requests from the
    control pipe until ``close``.  Sample batches are read as zero-copy
    views into the shared-memory ring; every request is answered with
    exactly one ``("ok", payload)`` / ``("err", message)`` reply, in
    order, which is what lets the parent do FIFO span accounting.
    """
    shm = attach_shared_memory(shm_name)
    # Pre-JIT the hot-path kernels before the pool accepts requests: a
    # fresh worker must pay any compile cost here, at spawn, never inside
    # its first ingest (the pool constructor warms up too — this is
    # explicit and first so the ordering survives pool refactors).
    kernels.warmup()
    pool = DetectorPool(config)
    try:
        while True:
            try:
                op, payload = conn.recv()
            except EOFError:
                break
            try:
                if op == "ingest":
                    stream_id, offset, shape, dtype = payload
                    batch = map_span(shm, offset, shape, dtype)
                    events = pool.ingest(stream_id, batch)
                    reply = _events_to_array(events, {stream_id: 0})
                elif op == "lockstep":
                    ids, offset, shape, dtype = payload
                    matrix = map_span(shm, offset, shape, dtype)
                    traces = {sid: matrix[row] for row, sid in enumerate(ids)}
                    events = pool.ingest_lockstep(traces)
                    positions = {sid: row for row, sid in enumerate(ids)}
                    reply = _events_to_array(events, positions)
                elif op == "checkpoint":
                    reply = {
                        sid: {
                            "state": pool.engine(sid).snapshot(),
                            "samples": pool.stream_stats(sid).samples,
                            "events": pool.stream_stats(sid).events,
                        }
                        for sid in pool.stream_ids
                    }
                elif op == "snapshot_streams":
                    reply = {
                        sid: {
                            "state": pool.engine(sid).snapshot(),
                            "samples": pool.stream_stats(sid).samples,
                            "events": pool.stream_stats(sid).events,
                        }
                        for sid in payload
                        if sid in pool
                    }
                elif op == "periods":
                    reply = pool.current_periods()
                elif op == "restore":
                    stream_id, state, samples, events_count = payload
                    pool.restore_stream(
                        stream_id, state, samples=samples, events=events_count
                    )
                    reply = None
                elif op == "remove":
                    reply = pool.remove_stream(payload)
                elif op == "current_period":
                    reply = pool.current_period(payload)
                elif op == "stream_stats":
                    reply = pool.stream_stats(payload)
                elif op == "stream_ids":
                    reply = pool.stream_ids
                elif op == "stats":
                    reply = pool.stats()
                elif op == "close":
                    conn.send(("ok", None))
                    break
                else:
                    raise ValidationError(f"unknown shard op {op!r}")
            except Exception as exc:  # surface worker errors in the parent
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
            else:
                conn.send(("ok", reply))
    finally:
        shm.close()
        conn.close()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class _ShardClient:
    """Parent-side handle of one worker: process, pipe, ring, bookkeeping."""

    def __init__(self, ctx, index: int, config: PoolConfig, ring_bytes: int) -> None:
        from multiprocessing import shared_memory

        self.index = index
        self.shm = shared_memory.SharedMemory(create=True, size=ring_bytes)
        try:
            self.writer = ShmSpanWriter(self.shm)
            self.conn, child_conn = ctx.Pipe()
            self.process = ctx.Process(
                target=_shard_worker_main,
                args=(child_conn, self.shm.name, config),
                daemon=True,
                name=f"repro-shard-{index}",
            )
            self.process.start()
        except Exception:
            # A partially built client is never registered anywhere, so
            # its segment must be freed here or it leaks until exit.
            self.shm.close()
            self.shm.unlink()
            raise
        child_conn.close()
        # Requests awaiting a reply, FIFO.  Each entry: (kind, context)
        # where kind "data" means a ring span must be released on reply.
        self.pending: list[tuple[str, object]] = []
        self.events: list[PeriodStartEvent] = []

    # -- request/reply plumbing ---------------------------------------
    def alive(self) -> bool:
        return self.process.is_alive()

    def send(self, op: str, payload, *, holds_span: bool = False, context=None) -> None:
        try:
            self.conn.send((op, payload))
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise _WorkerCrash(self.index) from exc
        self.pending.append(("data" if holds_span else "ctl", context))

    def recv_one(self):
        """Receive exactly one in-order reply; returns its payload."""
        try:
            status, payload = self.conn.recv()
        except (EOFError, ConnectionResetError, OSError) as exc:
            raise _WorkerCrash(self.index) from exc
        kind, context = self.pending.pop(0)
        if kind == "data":
            self.writer.release()
        if status == "err":
            raise RuntimeError(f"shard {self.index} failed: {payload}")
        if isinstance(payload, np.ndarray) and payload.dtype == _EVENT_FIELDS:
            ids = cast(Sequence[str], context)  # stream ids of the request
            self.events.extend(
                PeriodStartEvent(
                    stream_id=ids[int(row["stream"])],
                    index=int(row["index"]),
                    period=int(row["period"]),
                    confidence=float(row["confidence"]),
                    new_detection=bool(row["new_detection"]),
                    seq=int(row["seq"]),
                )
                for row in payload
            )
            return None
        return payload

    def flush(self) -> None:
        """Collect every outstanding reply (blocking)."""
        while self.pending:
            self.recv_one()

    def collect(self) -> None:
        """Collect replies that are already waiting, without blocking."""
        while self.pending and self.conn.poll():
            self.recv_one()

    def settle(self, depth: int) -> None:
        """Collect until at most ``depth`` requests remain in flight.

        The pipelined ingest path calls this instead of :meth:`flush`:
        ready replies are always gathered, and only an in-flight window
        beyond ``depth`` blocks — that bounded window is what lets a
        worker's detector time overlap the parent's next ring write.
        """
        self.collect()
        while len(self.pending) > depth:
            self.recv_one()

    def call(self, op: str, payload=None):
        """Synchronous control call (flushes pending data replies first,
        so stateful operations always observe fully applied state)."""
        self.flush()
        self.send(op, payload)
        return self.recv_one()

    def take_events(self) -> list[PeriodStartEvent]:
        events, self.events = self.events, []
        return events

    def write_span(self, array: np.ndarray) -> tuple[int, tuple[int, ...], str]:
        """Reserve + fill a ring span, draining acknowledgements as needed."""
        while True:
            self.collect()
            if len(self.pending) >= _MAX_OUTSTANDING:
                self.recv_one()  # blocking: bound the backlog
                continue
            try:
                return self.writer.write(array)
            except BlockingIOError:
                if not self.pending:  # cannot free anything: misuse
                    raise
                self.recv_one()

    def shutdown(self) -> None:
        try:
            if self.alive():
                self.flush()
                self.send("close", None)
                self.recv_one()
        except (BrokenPipeError, EOFError, OSError, RuntimeError):
            pass
        finally:
            self.conn.close()
            self.process.join(timeout=5)
            if self.process.is_alive():  # pragma: no cover - defensive
                self.process.terminate()
                self.process.join(timeout=5)
            self.shm.close()
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


def _recovering(method):
    """Turn a mid-operation worker crash into recovery plus a clean error.

    A worker that dies *while a request is in flight* surfaces as
    :class:`_WorkerCrash` from the pipe plumbing.  The wrapper discards
    the aborted operation's partial results, immediately respawns the
    worker from the last checkpoint (when ``restore_on_crash`` is set —
    recovery must not wait for the next call), and raises a
    ``RuntimeError`` describing what was lost.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        try:
            return method(self, *args, **kwargs)
        except _WorkerCrash as exc:
            raise self._handle_worker_crash(exc) from exc

    return wrapper


class ShardedDetectorPool:
    """A :class:`DetectorPool` sharded across worker processes.

    Streams are routed to ``shard_of(stream_id) = crc32(stream_id) %
    workers``; each worker owns a private pool, so all detection
    semantics — including per-shard LRU eviction when ``max_streams`` is
    set — are exactly those of ``DetectorPool``.

    Examples
    --------
    ::

        pool = ShardedDetectorPool(PoolConfig(mode="magnitude"), workers=4)
        try:
            events = pool.ingest_many({"app-0": batch0, "app-1": batch1})
        finally:
            pool.close()
    """

    def __init__(
        self,
        config: PoolConfig | None = None,
        sharding: ShardingConfig | None = None,
        **kwargs,
    ) -> None:
        shard_keys = {"workers", "ring_bytes", "start_method", "restore_on_crash"}
        shard_kwargs = {k: kwargs.pop(k) for k in list(kwargs) if k in shard_keys}
        if config is None:
            config = PoolConfig(**kwargs)
        elif kwargs:
            raise ValidationError(
                "pass either a PoolConfig or keyword options, not both"
            )
        if sharding is None:
            sharding = ShardingConfig(**shard_kwargs)
        elif shard_kwargs:
            raise ValidationError(
                "pass either a ShardingConfig or keyword options, not both"
            )
        self.config = config
        self.sharding = sharding
        self._ctx = multiprocessing.get_context(sharding.resolved_start_method())
        self._workers = sharding.resolved_workers()
        self._shards: list[_ShardClient] = []
        self._checkpoint: dict[str, dict] = {}
        # Parent-side checkpoint dirty marks (see dirty_marks): the
        # parent is the only place every mutation of a sharded stream
        # passes through, so it can track dirtiness without asking the
        # workers anything.
        self._dirty: dict[str, int] = {}
        self._dirty_clock = 0
        # Pipelined events rescued from shard handles that were torn down
        # by a normal-path reshape (rebalance, drain_to_pool): delivered
        # by the next collection so no event is ever silently dropped.
        self._stray_events: list[PeriodStartEvent] = []
        self._closed = False
        try:
            for index in range(self._workers):
                self._shards.append(
                    _ShardClient(self._ctx, index, config, sharding.ring_bytes)
                )
        except Exception:
            self.close()
            raise

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """Number of worker processes (= shards)."""
        return self._workers

    def shard_of(self, stream_id: str) -> int:
        """Home shard of ``stream_id`` (stable across processes/runs)."""
        return shard_of(stream_id, self._workers)

    def __enter__(self) -> "ShardedDetectorPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut down every worker and free the shared-memory rings.

        Never raises, and is safe to call any number of times from any
        teardown path — explicit ``close()``, context-manager exit,
        ``__del__`` during garbage collection, or a constructor unwind
        after a mid-``__init__`` failure (the ``getattr`` default covers
        an instance whose attributes were never assigned).  A failure to
        tear down one shard is logged and must not leak the remaining
        workers or their shared-memory segments.
        """
        if getattr(self, "_closed", True):
            return
        self._closed = True
        shards, self._shards = self._shards, []
        for shard in shards:
            try:
                shard.shutdown()
            except Exception:  # pragma: no cover - defensive
                _logger.warning(
                    "error shutting down shard worker %d", shard.index, exc_info=True
                )

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run (operations then raise)."""
        return self._closed

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    def _shard(self, stream_id: str) -> _ShardClient:
        return self._shards[self.shard_of(stream_id)]

    def _mark_dirty(self, stream_id: str) -> None:
        self._dirty_clock += 1
        self._dirty[stream_id] = self._dirty_clock

    def dirty_marks(self) -> dict[str, int]:
        """Per-stream mutation marks for incremental checkpointing.

        The sharded counterpart of
        :meth:`~repro.service.pool.DetectorPool.dirty_marks`, tracked in
        the parent (every mutating call passes through it) so reading
        the marks costs zero IPC round trips.  A mark may linger for a
        stream a worker has since LRU-evicted; the checkpoint pass
        resolves that when the snapshot comes back empty and records the
        stream as removed.
        """
        return dict(self._dirty)

    def _handle_worker_crash(self, exc: "_WorkerCrash") -> RuntimeError:
        """Clean up after a mid-operation crash; returns the error to raise."""
        # Discard the aborted operation's partial results everywhere:
        # live shards may still owe replies whose events would otherwise
        # leak into the next call's return value.
        for shard in self._shards:
            if shard.alive():
                try:
                    shard.flush()
                except _WorkerCrash:  # pragma: no cover - second crash
                    pass
            shard.pending.clear()
            shard.events.clear()
        message = (
            f"shard worker {exc.index} died mid-operation; the aborted call's "
            f"events were discarded and its batches may be partially applied "
            f"on surviving shards"
        )
        if self.sharding.restore_on_crash and not self._closed:
            self._ensure_alive()  # respawn + restore from the last checkpoint
            message += (
                "; the crashed shard was respawned and restored to the last "
                "checkpoint (samples since then on that shard are lost)"
            )
        return RuntimeError(message)

    def _ensure_alive(self) -> None:
        """Respawn dead workers and replay the last checkpoint to them."""
        if self._closed:
            raise ValidationError("pool is closed")
        for index, shard in enumerate(self._shards):
            if shard.alive():
                continue
            if not self.sharding.restore_on_crash:
                raise RuntimeError(f"shard worker {index} died")
            _logger.warning(
                "shard worker %d died; respawning from last checkpoint", index
            )
            try:
                shard.shutdown()
            except Exception:  # pragma: no cover - defensive
                pass
            replacement = _ShardClient(
                self._ctx, index, self.config, self.sharding.ring_bytes
            )
            self._shards[index] = replacement
            for sid, entry in self._checkpoint.items():
                if shard_of(sid, self._workers) == index:
                    # The restored state is the (older) crash baseline, so
                    # the stream may have regressed relative to what a
                    # checkpointer last persisted — mark it dirty so the
                    # next pass re-persists the authoritative state.
                    self._mark_dirty(sid)
                    replacement.call(
                        "restore",
                        (sid, entry["state"], entry["samples"], entry["events"]),
                    )

    def _send_batch(
        self, shard: _ShardClient, stream_id: str, batch: np.ndarray
    ) -> None:
        """Route one stream batch into a shard's ring (chunking as needed)."""
        arr = np.ascontiguousarray(batch)
        if arr.dtype not in (np.float64, np.int64):
            arr = arr.astype(
                np.float64 if self.config.mode == "magnitude" else np.int64
            )
        if not shard.writer.fits(arr.nbytes):
            items = max(1, shard.writer.capacity // max(arr.itemsize, 1) // 2)
            for start in range(0, arr.size, items):
                self._send_batch(shard, stream_id, arr[start : start + items])
            return
        offset, shape, dtype = shard.write_span(arr)
        shard.send(
            "ingest",
            (stream_id, offset, shape, dtype),
            holds_span=True,
            context=(stream_id,),
        )

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def _collect_ingest_replies(self) -> list[PeriodStartEvent]:
        """Gather events after an ingest send, honouring the pipeline depth.

        Depth 0 (the default) flushes every shard — the synchronous
        contract: the returned events are exactly this call's.  A
        positive depth only settles each shard back under its in-flight
        window and returns whatever events have materialised, which may
        span earlier pipelined calls (and may not yet include this
        one's); :meth:`flush` retrieves the rest.
        """
        depth = self.sharding.pipeline_depth
        events = self._take_stray_events()
        for shard in self._shards:
            if depth:
                shard.settle(depth)
            else:
                shard.flush()
            events.extend(shard.take_events())
        return events

    def _take_stray_events(self) -> list[PeriodStartEvent]:
        if not self._stray_events:
            return []
        events, self._stray_events = self._stray_events, []
        return events

    @_recovering
    def ingest(
        self, stream_id: str, samples: Sequence[float] | np.ndarray
    ) -> list[PeriodStartEvent]:
        """Feed a batch into one stream; returns its period-start events.

        Synchronous (waits for the owning shard; with a positive
        ``pipeline_depth`` the reply wait is bounded by the in-flight
        window instead).  For cross-shard parallelism feed many streams
        at once with :meth:`ingest_many`.
        """
        self._ensure_alive()
        self._mark_dirty(stream_id)
        shard = self._shard(stream_id)
        self._send_batch(shard, stream_id, np.asarray(samples).ravel())
        if self.sharding.pipeline_depth:
            shard.settle(self.sharding.pipeline_depth)
        else:
            shard.flush()
        return shard.take_events()

    @_recovering
    def ingest_many(
        self, batches: Mapping[str, Sequence[float] | np.ndarray]
    ) -> list[PeriodStartEvent]:
        """Feed one batch per stream, all shards working concurrently.

        The parent writes every batch into the rings before collecting
        any reply, so the N workers overlap their detector work — this
        (and :meth:`ingest_lockstep`) is the multi-core scaling path.
        With a positive ``pipeline_depth`` consecutive calls additionally
        pipeline against each other (see :class:`ShardingConfig`).
        """
        self._ensure_alive()
        for stream_id, samples in batches.items():
            self._mark_dirty(stream_id)
            self._send_batch(
                self._shard(stream_id), stream_id, np.asarray(samples).ravel()
            )
        return self._collect_ingest_replies()

    @_recovering
    def ingest_lockstep(
        self, traces: Mapping[str, Sequence[float] | np.ndarray]
    ) -> list[PeriodStartEvent]:
        """Sharded lockstep ingestion: each worker runs its partition.

        The stream partition of ``traces`` is routed shard by shard; each
        worker then applies its own SoA-vs-per-stream crossover on its
        partition (identical results either way).  With a positive
        ``pipeline_depth`` consecutive lockstep calls pipeline against
        each other (see :class:`ShardingConfig`).
        """
        self._ensure_alive()
        ids = list(traces)
        if not ids:
            return []
        arrays = [np.asarray(traces[sid]).ravel() for sid in ids]
        if len({arr.size for arr in arrays}) != 1:
            raise ValidationError("lockstep ingestion requires equally long traces")
        partitions: list[list[int]] = [[] for _ in self._shards]
        for pos, sid in enumerate(ids):
            self._mark_dirty(sid)
            partitions[self.shard_of(sid)].append(pos)
        for shard, members in zip(self._shards, partitions):
            if not members:
                continue
            matrix = np.stack([arrays[pos] for pos in members])
            if matrix.dtype not in (np.float64, np.int64):
                matrix = matrix.astype(
                    np.float64 if self.config.mode == "magnitude" else np.int64
                )
            member_ids = [ids[pos] for pos in members]
            if shard.writer.fits(matrix.nbytes):
                cols = matrix.shape[1]
            else:
                # Chunk along time; lockstep semantics are preserved
                # because each worker still sees whole columns in order.
                cols = max(
                    1,
                    shard.writer.capacity // matrix.itemsize // len(members) // 2,
                )
            for start in range(0, matrix.shape[1], cols):
                offset, shape, dtype = shard.write_span(matrix[:, start : start + cols])
                shard.send(
                    "lockstep",
                    (member_ids, offset, shape, dtype),
                    holds_span=True,
                    context=member_ids,
                )
        return self._collect_ingest_replies()

    @property
    def outstanding(self) -> int:
        """Unacknowledged pipelined requests across all shards (0 when
        synchronous or fully drained)."""
        return sum(len(shard.pending) for shard in self._shards)

    @_recovering
    def collect(self) -> list[PeriodStartEvent]:
        """Non-blocking: events whose pipelined replies already arrived.

        Complements a positive ``pipeline_depth``; on a synchronous pool
        there is never anything outstanding and this returns ``[]``.
        """
        self._ensure_alive()
        events = self._take_stray_events()
        for shard in self._shards:
            shard.collect()
            events.extend(shard.take_events())
        return events

    @_recovering
    def flush(self) -> list[PeriodStartEvent]:
        """Wait for every outstanding pipelined reply; returns its events.

        The terminal collection of a pipelined ingest sequence — after
        it, every sample handed to ``ingest_many`` / ``ingest_lockstep``
        has been applied and every produced event has been returned
        (here or by an earlier call).
        """
        self._ensure_alive()
        events = self._take_stray_events()
        for shard in self._shards:
            shard.flush()
            events.extend(shard.take_events())
        return events

    # ------------------------------------------------------------------
    # state management: checkpoint / crash recovery / rebalancing
    # ------------------------------------------------------------------
    @_recovering
    def checkpoint(self) -> dict[str, dict]:
        """Pull every stream's engine snapshot into the parent.

        The returned mapping (``stream_id`` -> ``{"state", "samples",
        "events"}``) is also retained as the crash-recovery baseline: a
        worker found dead later is respawned and its streams restored
        from this checkpoint.
        """
        self._ensure_alive()
        merged: dict[str, dict] = {}
        for shard in self._shards:
            merged.update(shard.call("checkpoint"))
        self._checkpoint = merged
        return merged

    @_recovering
    def snapshot_streams(self, stream_ids: Sequence[str]) -> dict[str, dict]:
        """Snapshots + counters of the given streams (absent ones skipped).

        Unlike :meth:`checkpoint` this touches only the shards that own
        a requested stream, snapshots nothing else, and does *not*
        update the crash-recovery baseline — it is the targeted form the
        network server uses to answer per-client SNAPSHOT requests.
        """
        self._ensure_alive()
        wanted: list[list[str]] = [[] for _ in self._shards]
        for sid in stream_ids:
            wanted[self.shard_of(sid)].append(sid)
        merged: dict[str, dict] = {}
        for shard, members in zip(self._shards, wanted):
            if members:
                merged.update(shard.call("snapshot_streams", members))
        return merged

    @_recovering
    def current_periods(self) -> dict[str, int | None]:
        """Locked period of every resident stream — one round trip per
        shard, not per stream."""
        self._ensure_alive()
        merged: dict[str, int | None] = {}
        for shard in self._shards:
            merged.update(shard.call("periods"))
        return merged

    @_recovering
    def restore_stream(
        self, stream_id: str, state: dict, *, samples: int = 0, events: int = 0
    ) -> None:
        """Restore one stream onto its home shard from an engine snapshot."""
        self._ensure_alive()
        self._mark_dirty(stream_id)
        self._shard(stream_id).call("restore", (stream_id, state, samples, events))

    @_recovering
    def remove_stream(self, stream_id: str) -> bool:
        """Drop a stream from its home shard; True when it was resident."""
        self._ensure_alive()
        self._dirty.pop(stream_id, None)
        return bool(self._shard(stream_id).call("remove", stream_id))

    @_recovering
    def rebalance(self, workers: int) -> None:
        """Re-partition all streams onto ``workers`` worker processes.

        Drains a fresh checkpoint, shuts the old workers down, spawns the
        new fleet and restores every stream on its new home shard — the
        engine snapshot/restore protocol end to end, no detector state is
        recomputed.
        """
        check_positive_int(workers, "workers")
        snapshot = self.checkpoint()
        for shard in self._shards:
            # checkpoint() drained any pipelined replies into the shard
            # handles; rescue those events before the handles go away.
            self._stray_events.extend(shard.take_events())
            shard.shutdown()
        self._workers = workers
        self._shards = [
            _ShardClient(self._ctx, index, self.config, self.sharding.ring_bytes)
            for index in range(workers)
        ]
        for sid, entry in snapshot.items():
            self._shard(sid).call(
                "restore", (sid, entry["state"], entry["samples"], entry["events"])
            )

    @_recovering
    def drain_to_pool(self) -> DetectorPool:
        """Materialise the whole sharded state as one local ``DetectorPool``.

        Pipelined events drained by the checkpoint stay retrievable from
        this pool's :meth:`collect`/:meth:`flush` — migrating the state
        out does not lose them.
        """
        snapshot = self.checkpoint()
        for shard in self._shards:
            self._stray_events.extend(shard.take_events())
        pool = DetectorPool(self.config)
        for sid, entry in snapshot.items():
            pool.restore_stream(
                sid, entry["state"], samples=entry["samples"], events=entry["events"]
            )
        return pool

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @_recovering
    def __contains__(self, stream_id: str) -> bool:
        return stream_id in self.stream_ids

    @_recovering
    def __len__(self) -> int:
        return sum(int(shard.call("stats").streams) for shard in self._shards)

    @property
    @_recovering
    def stream_ids(self) -> list[str]:
        """Resident stream names across all shards."""
        self._ensure_alive()
        ids: list[str] = []
        for shard in self._shards:
            ids.extend(shard.call("stream_ids"))
        return ids

    @_recovering
    def current_period(self, stream_id: str) -> int | None:
        """Locked period of a stream (None while searching or absent)."""
        self._ensure_alive()
        return self._shard(stream_id).call("current_period", stream_id)

    @_recovering
    def stream_stats(self, stream_id: str) -> StreamStats:
        """Activity summary of one stream (its shard's local counters)."""
        self._ensure_alive()
        return self._shard(stream_id).call("stream_stats", stream_id)

    @_recovering
    def stats(self) -> PoolStats:
        """Aggregated pool statistics across all shards."""
        self._ensure_alive()
        return PoolStats.merge(shard.call("stats") for shard in self._shards)
