"""The asyncio detection daemon (``repro serve``).

One :class:`DetectionServer` exposes a (possibly sharded) detector pool
over TCP.  Accepting peers, the HELLO handshake (size and time bounds,
token auth, the protocol check, namespaces), REGISTER, the per-
connection outbox and its writer loop are the shared daemon frontend
(:mod:`repro.server.frontend`); this module is the backend behind it.
The design constraints, and how they are met:

**The pool is synchronous and must never block the event loop.**  All
pool work runs on a single-thread executor; the event loop only parses
frames and moves queue entries.  Requests from *all* connections funnel
through one FIFO job queue whose dispatcher coalesces adjacent ingest
jobs with disjoint stream sets into a single
:meth:`~repro.service.facade.ThreadSafePool.ingest_many` call — while
the executor thread crunches one merged batch, the loop keeps reading
frames for the next one, realising the parent/worker overlap the
ROADMAP asks for (with a sharded pool, one merged call additionally
fans out across the shard processes).

**Backpressure is explicit.**  Every connection is bounded in both
directions: at most ``max_inflight`` unanswered ingest requests (excess
requests are answered ``BUSY`` immediately — still in order — instead of
queueing without bound), at most ``push_queue`` undelivered subscriber
pushes (excess event batches are *dropped and counted*, never buffered
without bound), and an outbound queue whose overflow closes the
connection as the last resort.

**Streams are namespaced per connection.**  A client's stream ``"app"``
lives in the pool as ``"<namespace>/app"``; two clients cannot collide
unless they opt into the same namespace (which is also how a client
reconnects to its previous streams).  Subscribers choose between their
own namespace and the whole pool.

**Dropped events are recoverable.**  Every event carries the pool's
per-stream monotonic ``seq``; the server additionally keeps a bounded
:class:`EventJournal` ring per namespace (``journal_size`` events,
appended during fan-out on the event loop — never on the detection hot
path).  A subscriber that notices a seq gap (it was dropped as a slow
consumer, or it reconnected) sends ``REPLAY(stream, from_seq[, upto])``
and receives exactly the missed events back; a range the ring has
already evicted is answered with ``EVENTS_GAP`` naming the first still
available seq, so the loss is explicit, never silent.

**Shutdown drains.**  :meth:`DetectionServer.stop` stops accepting
work, runs every already-queued job to completion, flushes every
connection's outbound queue, then says ``BYE`` and closes — no accepted
sample batch is silently discarded.

**The data path is binary.**  Peers intern stream names into
per-connection int32 handles (``REGISTER``) and exchange binary hot
frames (``INGEST_HOT``/``LOCKSTEP_HOT`` requests, ``EVENTS_HOT``
replies, ``EVENT_HOT`` pushes) with no JSON on the ingest/events path.
A hot frame naming a handle the connection never registered answers
``ERROR`` and keeps the connection alive (:class:`UnknownHandleError`)
— only malformed frames disconnect.

:class:`ServerThread` runs a server on a private event loop in a
daemon thread, which is how the blocking client's tests, the benchmark
harness and the examples host a loopback server in-process.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.server import protocol
from repro.server.frontend import (
    INGEST_FRAMES,
    Connection,
    Frontend,
    FrontendConfig,
    LoopThread,
    UnknownHandleError,
    ingest_formatter,
    ingest_request,
    replay_range,
    replay_reply,
    request_scope,
    stream_list,
)
from repro.server.persistence import CheckpointStore, Checkpointer
from repro.server.protocol import Frame, FrameType, ProtocolError
from repro.server.quotas import QuotaManager, QuotaPolicy
from repro.service.events import PeriodStartEvent
from repro.service.facade import ThreadSafePool
from repro.service.pool import DetectorPool, PoolConfig
from repro.service.sharding import ShardedDetectorPool, ShardingConfig
from repro.util.logging import get_logger
from repro.util.validation import ValidationError, check_positive_int

__all__ = [
    "DetectionServer",
    "EventJournal",
    "ServerConfig",
    "ServerThread",
    "UnknownHandleError",
]

_logger = get_logger(__name__)

#: Upper bound on distinct namespace journals; namespaces are created by
#: connections (auto-assigned ones included), so without a cap a
#: reconnect-happy client could grow the journal table without bound.
#: Least recently touched journals are evicted first.
_MAX_JOURNALS = 1024


class EventJournal:
    """Bounded ring of one namespace's recently fanned-out events.

    The journal is the server-side half of replay-from-sequence
    recovery: every event batch that reaches the fan-out path is
    appended here (full stream ids, pool-assigned ``seq``), the oldest
    events falling off once ``capacity`` is exceeded.  :meth:`replay`
    answers "give me stream S from seq F (up to U)" against that ring
    and reports explicitly when part of the range has already been
    evicted.

    Appending is O(batch) deque work on the asyncio loop — the
    detection hot path (pool/executor) never touches the journal.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: deque[PeriodStartEvent] = deque(maxlen=capacity)
        #: highest seq ever appended per stream — survives eviction, so
        #: an evicted range is distinguishable from one that never was.
        self._last_seq: dict[str, int] = {}
        self.appended = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def evicted(self) -> int:
        """Events pushed out of the ring since the journal was created."""
        return self.appended - len(self._entries)

    def append(self, events: "list[PeriodStartEvent]") -> None:
        """Append an event batch (per-stream seq order is the caller's
        contract — fan-out delivers batches in production order).

        A seq at or below the stream's last journaled one means the
        stream restarted (LRU-evicted and re-created under the same
        name); the previous incarnation's entries are purged so they can
        never replay into the new numbering.
        """
        for event in events:
            last = self._last_seq.get(event.stream_id)
            if last is not None and event.seq <= last:
                self._entries = deque(
                    (e for e in self._entries if e.stream_id != event.stream_id),
                    maxlen=self._entries.maxlen,
                )
            self._entries.append(event)
            self._last_seq[event.stream_id] = event.seq
        self.appended += len(events)

    def last_seq(self, stream_id: str) -> int | None:
        """Highest seq ever journaled for ``stream_id`` (None: never)."""
        return self._last_seq.get(stream_id)

    def capture(self) -> tuple[list[PeriodStartEvent], dict[str, int]]:
        """The journal's persistable state: ring entries + high-water map.

        Both are copied (the checkpointer serialises them off the event
        loop while this journal keeps appending).
        """
        return list(self._entries), dict(self._last_seq)

    def restore(
        self, entries: "list[PeriodStartEvent]", last_seq: dict[str, int]
    ) -> None:
        """Reinstate captured state into this (fresh) journal.

        ``appended`` restarts at the restored entry count, so the
        ``evicted`` derivation stays consistent — pre-restart evictions
        are not re-reported by the restarted process.
        """
        self._entries = deque(entries, maxlen=self.capacity)
        self._last_seq = dict(last_seq)
        self.appended = len(self._entries)

    def trim_from(self, stream_id: str, events_counter: int) -> int:
        """Drop entries of ``stream_id`` with ``seq >= events_counter``.

        The restore-time consistency trim: a checkpoint's journal may be
        *ahead* of the same checkpoint's stream snapshot (the journal is
        captured after the snapshots in a pass), and ingestion resumed
        from the snapshot will re-produce those events with the same
        seqs.  Left in place, the re-produced seqs would look like a
        stream restart to :meth:`append` and purge the stream's history;
        trimmed, they simply re-journal.  Returns how many entries were
        dropped.
        """
        last = self._last_seq.get(stream_id)
        if last is None or last < events_counter:
            return 0
        kept = [
            e
            for e in self._entries
            if e.stream_id != stream_id or e.seq < events_counter
        ]
        dropped = len(self._entries) - len(kept)
        self._entries = deque(kept, maxlen=self._entries.maxlen)
        if events_counter > 0:
            self._last_seq[stream_id] = events_counter - 1
        else:
            self._last_seq.pop(stream_id, None)
        self.appended -= dropped
        return dropped

    def replay(
        self, stream_id: str, from_seq: int, upto: int | None = None
    ) -> tuple[list[PeriodStartEvent], int | None]:
        """Journaled events of ``stream_id`` with ``from_seq <= seq``
        (``< upto`` when given), oldest first.

        Returns ``(events, gap_end)``.  ``gap_end`` is ``None`` when the
        head of the requested range was still in the ring; otherwise the
        range ``[from_seq, gap_end)`` has been evicted (or, after a
        journal reset, was never seen) and the returned events resume at
        ``gap_end`` — the caller must surface that loss, not silence it.
        A ``gap_end`` *equal to* ``from_seq`` is the degenerate honest
        answer for a stream this journal never saw when ``from_seq``
        proves events existed: the loss is real but its extent unknown.
        """
        if upto is not None and upto <= from_seq:
            return [], None  # empty range: nothing to fetch, nothing lost
        selected = [
            event
            for event in self._entries
            if event.stream_id == stream_id
            and event.seq >= from_seq
            and (upto is None or event.seq < upto)
        ]
        last = self._last_seq.get(stream_id)
        if last is None:
            # This journal never saw the stream.  With a bounded request
            # the whole range is lost; open-ended, a positive from_seq
            # still proves a loss of unknown extent — report it rather
            # than pretending nothing was missed.
            if upto is not None:
                return [], upto
            return [], (from_seq if from_seq > 0 else None)
        if selected and selected[0].seq == from_seq:
            return selected, None
        if from_seq > last and not selected:
            return [], None  # nothing missed: the stream never got there
        if selected:
            return selected, selected[0].seq
        return [], (upto if upto is not None else last + 1)


@dataclass
class ServerConfig(FrontendConfig):
    """Configuration of :class:`DetectionServer`.

    The listen address, per-connection bounds, TLS and token auth are
    the :class:`~repro.server.frontend.
    FrontendConfig` fields; the server adds:

    Attributes
    ----------
    coalesce_limit:
        Upper bound of the adaptive coalescing window: the maximum
        number of queued ingest jobs merged into one pool
        ``ingest_many`` call (``repro serve --coalesce-max``).
    coalesce_min:
        Lower bound of the adaptive window.  The dispatcher sizes each
        merge from the observed job-queue depth — a deeper backlog
        earns a larger batch, up to ``coalesce_limit`` — but never aims
        below this floor, so lightly loaded pipelined clients still get
        small opportunistic batches.  The defaults need no tuning.
    journal_size:
        Per-namespace capacity (in events) of the replay journal ring.
        A dropped or reconnecting subscriber can recover any seq range
        still inside it via ``REPLAY``; older ranges are answered with
        ``EVENTS_GAP``.  ``0`` disables journaling (every replay then
        reports a gap).
    state_dir:
        Directory for durable server state (``repro serve
        --state-dir``).  When set, the server restores every stream and
        journal from the directory's checkpoint store before listening
        and runs a background :class:`~repro.server.persistence.
        Checkpointer` while serving (plus a final pass on graceful
        stop).  ``None`` (the default) keeps the server fully
        in-memory.
    checkpoint_interval:
        Seconds between background checkpoint passes (each pass only
        writes streams dirty since the previous one).
    checkpoint_max_dirty:
        When set, a pass is additionally kicked early once this many
        ingest jobs have landed since the last pass — bounding how much
        acknowledged work a crash can lose under heavy traffic.
    quota_max_streams, quota_max_samples_per_s, quota_max_subscribers:
        Default per-namespace admission quotas (see
        :mod:`repro.server.quotas`); ``None`` leaves the dimension
        unlimited.
    quotas:
        Per-namespace policy overrides: a mapping of namespace to a
        ``{"max_streams": ..., "max_samples_per_s": ...,
        "max_subscribers": ...}`` mapping.  With a ``state_dir``, the
        effective quota configuration is persisted and restored on warm
        restart even when the restart omits the quota flags.
    """

    coalesce_limit: int = 64
    coalesce_min: int = 4
    journal_size: int = 4096
    state_dir: str | None = None
    checkpoint_interval: float = 30.0
    checkpoint_max_dirty: int | None = None
    quota_max_streams: int | None = None
    quota_max_samples_per_s: float | None = None
    quota_max_subscribers: int | None = None
    quotas: dict[str, dict] | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive_int(self.coalesce_limit, "coalesce_limit")
        check_positive_int(self.coalesce_min, "coalesce_min")
        if self.coalesce_min > self.coalesce_limit:
            raise ValidationError(
                f"coalesce_min ({self.coalesce_min}) must not exceed "
                f"coalesce_limit ({self.coalesce_limit})"
            )
        if self.journal_size < 0:
            raise ValidationError(
                f"journal_size must be >= 0, got {self.journal_size}"
            )
        if not self.checkpoint_interval > 0:
            raise ValidationError(
                f"checkpoint_interval must be > 0, got {self.checkpoint_interval}"
            )
        if self.checkpoint_max_dirty is not None:
            check_positive_int(self.checkpoint_max_dirty, "checkpoint_max_dirty")
        try:
            QuotaPolicy(
                max_streams=self.quota_max_streams,
                max_samples_per_s=self.quota_max_samples_per_s,
                max_subscribers=self.quota_max_subscribers,
            )
            for spec in (self.quotas or {}).values():
                QuotaPolicy.from_mapping(spec)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad quota configuration: {exc}") from exc


def _build_quotas(config: ServerConfig) -> QuotaManager | None:
    """The config's quota manager, or ``None`` when nothing is limited."""
    default = QuotaPolicy(
        max_streams=config.quota_max_streams,
        max_samples_per_s=config.quota_max_samples_per_s,
        max_subscribers=config.quota_max_subscribers,
    )
    overrides = {
        namespace: QuotaPolicy.from_mapping(spec)
        for namespace, spec in (config.quotas or {}).items()
    }
    manager = QuotaManager(default, overrides)
    return manager if manager.configured() else None


@dataclass
class _Job:
    """One unit of pool work, executed in queue order by the dispatcher."""

    kind: str  # "ingest" | "lockstep" | "control"
    future: asyncio.Future
    batches: dict[str, np.ndarray] | None = None
    fn: Callable | None = None


class DetectionServer(Frontend):
    """Serve a detector pool over TCP (see the module docstring).

    Parameters
    ----------
    pool:
        A :class:`DetectorPool`, :class:`ShardedDetectorPool` or
        pre-wrapped :class:`ThreadSafePool` to serve.  The server closes
        it on :meth:`stop`.
    config:
        Listen address and queue bounds.
    """

    config: ServerConfig

    def __init__(self, pool, config: ServerConfig | None = None) -> None:
        super().__init__(config or ServerConfig())
        self.facade = pool if isinstance(pool, ThreadSafePool) else ThreadSafePool(pool)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-pool"
        )
        self._jobs: asyncio.Queue[_Job] = asyncio.Queue()
        self._dispatcher: asyncio.Task | None = None
        self._stopped = False
        # A sharded pool with a positive pipeline_depth returns ingest
        # events lazily; the dispatcher then flushes whenever its queue
        # runs dry so subscribers see the tail without waiting for the
        # next request.  Synchronous pools never have anything pending,
        # so the idle flush is skipped entirely.
        sharding = getattr(self.facade.pool, "sharding", None)
        self._pipelined_pool = bool(
            sharding is not None and getattr(sharding, "pipeline_depth", 0)
        )
        # Replay journals, one bounded ring per namespace, touched only
        # on the event loop (fan-out appends, REPLAY reads).
        self._journals: "OrderedDict[str, EventJournal]" = OrderedDict()
        # Durable state (``state_dir``): the checkpoint store + the
        # background checkpointer, built here, restored/started in
        # ``start()`` and finalised in ``stop()``.
        self._checkpointer: Checkpointer | None = None
        self.restore_stats: dict | None = None
        if self.config.state_dir:
            self._checkpointer = Checkpointer(
                self,
                CheckpointStore(self.config.state_dir),
                interval=self.config.checkpoint_interval,
                max_dirty=self.config.checkpoint_max_dirty,
            )
        # Per-namespace quotas (optional), like the frontend's token
        # auth built before the socket ever opens.
        self._quotas = _build_quotas(self.config)
        # service counters, reported by STATS
        self.ingest_jobs = 0
        self.executor_calls = 0
        self.replays_served = 0
        self.replay_gaps = 0
        # adaptive-coalescing observability (STATS)
        self.ingest_batches = 0
        self.max_batch = 0
        self.adaptive_window = self.config.coalesce_min
        #: Cumulative per-layer seconds (DFAnalyzer-style attribution):
        #: on top of the frontend's encode and syscall, dispatcher
        #: bookkeeping, detection work on the executor, and subscriber
        #: fan-out.  The executor thread adds to "detect", the loop
        #: thread to the rest; CPython float += under the GIL keeps this
        #: race-benign.
        self.profile.update(dispatch=0.0, detect=0.0, fanout=0.0)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and begin serving (returns once listening).

        With a ``state_dir``, the last checkpoint is restored *before*
        the socket opens — the first client already sees every recovered
        stream and can replay against the recovered journals — and the
        background checkpointer starts alongside the dispatcher.
        """
        if self._checkpointer is not None:
            await self._sync_quota_config()
            await self._restore_state()
            self._checkpointer.baseline()
            self._checkpointer.start()
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        await super().start()

    async def _sync_quota_config(self) -> None:
        """Persist or restore the quota configuration (``state_dir``).

        A server started *with* quota flags writes them to the store; a
        warm restart started *without* them restores the stored policy,
        so quotas survive restarts exactly like stream state does.
        """
        assert self._checkpointer is not None
        loop = asyncio.get_running_loop()
        store = self._checkpointer.store
        if self._quotas is not None:
            payload = self._quotas.to_payload()
            await loop.run_in_executor(
                self._executor, lambda: store.save_config("quotas", payload)
            )
            return
        stored = await loop.run_in_executor(
            self._executor, lambda: store.load_config("quotas")
        )
        if stored:
            restored = QuotaManager.from_payload(stored)
            if restored.configured():
                self._quotas = restored
                _logger.info("restored quota configuration from %s", store.root)

    async def _restore_state(self) -> None:
        """Rebuild pool streams + journals from the checkpoint store.

        A version-gated store (written by a newer build) aborts startup
        with the store's error; corrupt segments were already skipped
        (and counted) by the store.  Restored journals are trimmed to
        each restored stream's events counter — see
        :meth:`EventJournal.trim_from` for why entries ahead of the
        snapshot must go.
        """
        assert self._checkpointer is not None
        loop = asyncio.get_running_loop()
        store = self._checkpointer.store
        started = time.perf_counter()
        result = await loop.run_in_executor(self._executor, store.load)

        def restore_streams() -> None:
            for sid, entry in result.streams.items():
                self.facade.restore_stream(
                    sid,
                    entry["state"],
                    samples=int(entry.get("samples", 0)),
                    events=int(entry.get("events", 0)),
                )

        await loop.run_in_executor(self._executor, restore_streams)
        if self._quotas is not None:
            # Restored streams count against their tenants' stream caps.
            for sid in result.streams:
                self._quotas.seed_stream(sid.split("/", 1)[0], sid)
        trimmed = 0
        for namespace, (entries, last_seq) in result.journals.items():
            journal = self._journal_for(namespace)
            journal.restore(entries, last_seq)
            for sid, entry in result.streams.items():
                if sid.split("/", 1)[0] == namespace:
                    trimmed += journal.trim_from(sid, int(entry.get("events", 0)))
        duration = time.perf_counter() - started
        self.restore_stats = {
            "streams": len(result.streams),
            "journals": len(result.journals),
            "journal_entries_trimmed": trimmed,
            "segments_loaded": result.segments_loaded,
            "segments_skipped": result.segments_skipped,
            "duration_s": round(duration, 6),
        }
        if result.streams or result.journals or result.segments_skipped:
            _logger.info(
                "restored %d streams and %d journals from %s in %.3f s "
                "(%d segments, %d skipped, %d journal entries trimmed)",
                len(result.streams),
                len(result.journals),
                store.root,
                duration,
                result.segments_loaded,
                result.segments_skipped,
                trimmed,
            )

    async def checkpoint_now(self) -> dict:
        """Run one checkpoint pass immediately (tests, ServerThread).

        Raises :class:`ValidationError` when the server has no
        ``state_dir`` — callers should not silently no-op a durability
        request.
        """
        if self._checkpointer is None:
            raise ValidationError("server has no state_dir configured")
        return await self._checkpointer.checkpoint()

    async def stop(self) -> None:
        """Graceful drain: finish queued work, flush replies, say BYE."""
        if self._stopped:
            return
        self._stopped = True
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Run every already-accepted job to completion.
        await self._jobs.join()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        if self._pipelined_pool:
            # Deliver the pipelined tail before the subscribers go away.
            await self._flush_pipelined(asyncio.get_running_loop())
        if self._checkpointer is not None:
            # Final pass after the drain: every acknowledged sample (and
            # the journal entries its events produced) is durable before
            # the process exits.  Must precede the executor shutdown —
            # the pass snapshots on the pool executor.
            try:
                await self._checkpointer.aclose(final_pass=True)
            except Exception:  # pragma: no cover - defensive
                _logger.exception("final checkpoint failed; state may be stale")
        await self._say_bye()
        self._connections.clear()
        self._executor.shutdown(wait=True)
        self.facade.close()
        _logger.info("detection server stopped")

    # ------------------------------------------------------------------
    # dispatcher: the executor bridge
    # ------------------------------------------------------------------
    def _timed_detect(self, fn, *args) -> Callable:
        """Wrap an executor call so its runtime lands in ``profile["detect"]``."""

        def run():
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self.profile["detect"] += time.perf_counter() - start

        return run

    async def _dispatch_loop(self) -> None:
        """Run queued jobs in order, coalescing adjacent ingest jobs.

        Ingest jobs with pairwise-disjoint stream sets merge into one
        ``ingest_many`` executor call (their replies are then split back
        per job); a job touching an already-merged stream, a lockstep
        job or a control job closes the merge window so per-stream
        sample order is never reordered.

        The merge window is adaptive: it follows the observed job-queue
        depth between ``coalesce_min`` and ``coalesce_limit``, so a
        backlogged server amortises executor hops over bigger
        ``ingest_many`` batches while a lightly loaded one keeps
        latency.  When the queue runs dry below the window, one event
        loop yield gives the reader tasks a chance to enqueue frames
        they have already parsed before the batch is sealed.
        """
        loop = asyncio.get_running_loop()
        carry: _Job | None = None
        while True:
            # Idle collection first, so every job path reaches it — the
            # control-job `continue` below must not skip the pipelined
            # tail (events drained into the shard handles by a stats or
            # snapshot call would otherwise sit undelivered until the
            # next ingest).
            if self._pipelined_pool and carry is None and self._jobs.empty():
                await self._collect_pipelined_idle(loop)
            job = carry if carry is not None else await self._jobs.get()
            carry = None
            try:
                if job.kind != "ingest":
                    await self._run_single(loop, job)
                    continue
                start = time.perf_counter()
                window = min(
                    max(self._jobs.qsize() + 1, self.config.coalesce_min),
                    self.config.coalesce_limit,
                )
                self.adaptive_window = window
                jobs = [job]
                streams = set(job.batches)
                yielded = False
                while len(jobs) < window:
                    try:
                        nxt = self._jobs.get_nowait()
                    except asyncio.QueueEmpty:
                        if yielded or self._draining:
                            break
                        yielded = True
                        self.profile["dispatch"] += time.perf_counter() - start
                        await asyncio.sleep(0)
                        start = time.perf_counter()
                        continue
                    if nxt.kind != "ingest" or (set(nxt.batches) & streams):
                        carry = nxt
                        break
                    jobs.append(nxt)
                    streams |= set(nxt.batches)
                self.profile["dispatch"] += time.perf_counter() - start
                await self._run_ingest_batch(loop, jobs)
            except asyncio.CancelledError:
                raise
            except Exception:  # pragma: no cover - defensive
                # The dispatcher is the server's heart: if it died, every
                # future request would hang silently.  Whatever slipped
                # through the per-job guards is logged and survived.
                _logger.exception("dispatcher error; continuing")

    async def _collect_pipelined_idle(self, loop) -> None:
        """Deliver a pipelined pool's tail while idle, without stalling.

        Uses the *non-blocking* ``collect`` in a short poll loop — a
        blocking flush here would serialise the dispatcher (and the
        executor) against every in-flight shard reply, adding a full
        drain of latency to any request arriving during an idle blip.
        The loop yields back to job processing the moment work arrives
        and stops once nothing is outstanding; the blocking flush is
        reserved for shutdown.
        """
        while self._jobs.empty():
            try:
                events = await loop.run_in_executor(self._executor, self.facade.collect)
            except Exception:  # pragma: no cover - defensive
                _logger.exception("pipelined collect failed; continuing")
                return
            self._fan_out(events)
            if not self.facade.outstanding:
                return
            await asyncio.sleep(0.002)

    async def _flush_pipelined(self, loop) -> None:
        """Blocking terminal drain of a pipelined pool (shutdown only)."""
        try:
            events = await loop.run_in_executor(self._executor, self.facade.flush)
        except Exception:  # pragma: no cover - defensive
            _logger.exception("pipelined flush failed; continuing")
            return
        self._fan_out(events)

    async def _run_single(self, loop, job: _Job) -> None:
        """Execute one lockstep/control job on the executor thread."""
        try:
            if job.kind == "lockstep":
                self.ingest_jobs += 1
                self.executor_calls += 1
                events = await loop.run_in_executor(
                    self._executor,
                    self._timed_detect(self.facade.ingest_lockstep, job.batches),
                )
                if not job.future.cancelled():
                    job.future.set_result(events)
                self._fan_out(events)
                if self._checkpointer is not None:
                    self._checkpointer.note_ingest(1)
            else:
                result = await loop.run_in_executor(self._executor, job.fn)
                if not job.future.cancelled():
                    job.future.set_result(result)
        except Exception as exc:
            if not job.future.cancelled():
                job.future.set_exception(exc)
        finally:
            self._jobs.task_done()

    async def _run_ingest_batch(self, loop, jobs: list[_Job]) -> None:
        """Execute coalesced ingest jobs as one ``ingest_many`` call."""
        merged: dict[str, np.ndarray] = {}
        for job in jobs:
            merged.update(job.batches)
        self.ingest_jobs += len(jobs)
        self.executor_calls += 1
        self.ingest_batches += 1
        self.max_batch = max(self.max_batch, len(jobs))
        try:
            events = await loop.run_in_executor(
                self._executor, self._timed_detect(self.facade.ingest_many, merged)
            )
        except Exception as exc:
            for job in jobs:
                if not job.future.cancelled():
                    job.future.set_exception(exc)
            return
        finally:
            for _ in jobs:
                self._jobs.task_done()
        try:
            owner: dict[str, int] = {}
            shares: dict[int, list[PeriodStartEvent]] = {}
            for job in jobs:
                shares[id(job)] = []
                for sid in job.batches:
                    owner[sid] = id(job)
            for event in events:
                # A pipelined sharded pool may hand back events of
                # streams no current job touched (an earlier call's
                # tail); those reach subscribers via _fan_out below but
                # belong to no reply.
                job_id = owner.get(event.stream_id)
                if job_id is not None:
                    shares[job_id].append(event)
            for job in jobs:
                if not job.future.cancelled():
                    job.future.set_result(shares[id(job)])
        except Exception as exc:  # pragma: no cover - defensive
            # Reply splitting must not leave any future unresolved: a
            # hanging future blocks its connection's writer forever.
            for job in jobs:
                if not job.future.done():
                    job.future.set_exception(exc)
        self._fan_out(events)
        if self._checkpointer is not None:
            self._checkpointer.note_ingest(len(jobs))

    def _journal_for(self, namespace: str) -> EventJournal:
        """The namespace's journal, created on first use, LRU-bounded."""
        journal = self._journals.get(namespace)
        if journal is None:
            journal = EventJournal(self.config.journal_size)
            self._journals[namespace] = journal
            while len(self._journals) > _MAX_JOURNALS:
                self._journals.popitem(last=False)
        else:
            self._journals.move_to_end(namespace)
        return journal

    def _journal_events(self, events: list[PeriodStartEvent]) -> None:
        """Append a fanned-out batch to its namespaces' journals.

        Runs on the event loop during fan-out, so the executor thread
        (the detection hot path) never pays for it.  Events are
        journaled whether or not anyone is currently subscribed — a
        subscriber that connects later may still replay them.
        """
        by_namespace: dict[str, list[PeriodStartEvent]] = {}
        for event in events:
            namespace = event.stream_id.split("/", 1)[0]
            by_namespace.setdefault(namespace, []).append(event)
        for namespace, batch in by_namespace.items():
            self._journal_for(namespace).append(batch)

    def _fan_out(self, events: list[PeriodStartEvent]) -> None:
        """Journal an event batch, then deliver it to every matching
        subscriber.

        Fan-out is best-effort by design (slow subscribers drop — the
        journal is what makes that recoverable); it must never take the
        dispatcher down with it.
        """
        if not events:
            return
        start = time.perf_counter()
        try:
            if self.config.journal_size:  # size 0 = journaling disabled
                self._journal_events(events)
            self._fan_out_unguarded(events)
        except Exception:  # pragma: no cover - defensive
            _logger.exception("subscriber fan-out failed; events dropped")
        finally:
            self.profile["fanout"] += time.perf_counter() - start

    def _fan_out_unguarded(self, events: list[PeriodStartEvent]) -> None:
        for conn in self._connections:
            if conn.subscription is None or conn.dead:
                continue
            if conn.subscription == "all":
                conn.push_events(sorted({e.stream_id for e in events}), events)
                continue
            prefix = conn.prefix
            matched = [e for e in events if e.stream_id.startswith(prefix)]
            if not matched:
                continue
            cut = len(prefix)
            local = sorted({e.stream_id[cut:] for e in matched})
            conn.push_events(local, matched, named=prefix)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    def _hello(self, conn: Connection, fresh: bool) -> None:
        if fresh:
            # A clean-slate reconnect resets the namespace's sequencing
            # (streams restart at seq 0), so its journal must go too —
            # stale high-seq entries would confuse later replays.
            self._journals.pop(conn.namespace, None)
            if self._quotas is not None:
                self._quotas.reset_namespace(conn.namespace)
            self._submit_control(
                conn,
                lambda: self.facade.remove_streams(
                    self.facade.streams_with_prefix(conn.prefix)
                ),
                lambda removed: (FrameType.OK, self._hello_meta(conn, removed), ()),
            )
        else:
            conn.enqueue_reply(("reply", FrameType.OK, self._hello_meta(conn, 0), ()))

    async def _release(self, conn: Connection) -> None:
        if self._quotas is not None and conn.subscription is not None:
            self._quotas.release_subscriber(conn.namespace)

    def _hello_meta(self, conn: Connection, removed: int) -> dict:
        pool_cfg = self.facade.pool.config
        return {
            "namespace": conn.namespace,
            "protocol": protocol.PROTOCOL_VERSION,
            "mode": pool_cfg.mode,
            # The *resolved* window: a detector_config/event_config
            # override supersedes PoolConfig.window_size.
            "window_size": pool_cfg.resolved_config().window_size,
            "removed_streams": int(removed),
        }

    # -- request dispatch ----------------------------------------------
    def _handle_request(self, conn: Connection, frame: Frame) -> None:
        kind = frame.type
        if kind in INGEST_FRAMES:
            self._handle_ingest(conn, frame)
        elif kind == FrameType.SUBSCRIBE:
            scope = request_scope(frame, "subscribe")
            # The quota slot is taken once per connection (re-SUBSCRIBE
            # merely changes scope) and released on disconnect.  A
            # denied subscribe answers ERROR; the connection survives.
            if (
                self._quotas is not None
                and conn.subscription is None
                and not self._quotas.acquire_subscriber(conn.namespace)
            ):
                conn.enqueue_reply(
                    (
                        "reply",
                        FrameType.ERROR,
                        {
                            "message": "subscriber quota exceeded for namespace "
                            f"{conn.namespace!r}",
                            "quota": "subscribers",
                        },
                        (),
                    )
                )
                return
            conn.subscription = scope
            conn.enqueue_reply(("reply", FrameType.OK, {"scope": scope}, ()))
        elif kind == FrameType.REPLAY:
            self._handle_replay(conn, frame)
        elif kind == FrameType.SNAPSHOT:
            self._handle_snapshot(conn, frame)
        elif kind == FrameType.RESTORE:
            self._handle_restore(conn, frame)
        elif kind == FrameType.REMOVE:
            self._handle_remove(conn, frame)
        elif kind == FrameType.STATS:
            self._handle_stats(conn, frame)
        else:
            raise ProtocolError(f"unexpected frame type {kind.name}")

    def _handle_ingest(self, conn: Connection, frame: Frame) -> None:
        """Queue a hot ingest request (binary, by handle)."""
        local_ids, rows, handles = ingest_request(conn, frame)
        batches = {conn.prefix + sid: rows[row] for row, sid in enumerate(local_ids)}
        job_kind = "lockstep" if frame.type == FrameType.LOCKSTEP_HOT else "ingest"
        formatter = ingest_formatter(local_ids, handles, conn.prefix)
        self._queue_ingest_job(conn, job_kind, batches, formatter)

    def _queue_ingest_job(
        self, conn: Connection, job_kind: str, batches: dict, formatter
    ) -> None:
        """Admission control + job queueing shared by all ingest frames."""
        if not self._admit_ingest(conn):
            return
        if self._quotas is not None:
            samples = sum(int(batch.size) for batch in batches.values())
            nbytes = sum(int(batch.nbytes) for batch in batches.values())
            verdict = self._quotas.admit_ingest(
                conn.namespace, batches.keys(), samples, nbytes
            )
            if verdict == "streams":
                # A hard cap violation: this request is refused, but the
                # connection (and every already-admitted stream) lives.
                conn.enqueue_reply(
                    (
                        "reply",
                        FrameType.ERROR,
                        {
                            "message": "stream quota exceeded for namespace "
                            f"{conn.namespace!r}",
                            "quota": "streams",
                        },
                        (),
                    )
                )
                return
            if verdict == "throttled":
                # Rate-limit denials reuse the in-order BUSY machinery:
                # the client backs off and retries exactly as for
                # inflight backpressure, and recovers once the token
                # bucket refills — no disconnect.
                self.busy_replies += 1
                conn.enqueue_reply(
                    (
                        "reply",
                        FrameType.BUSY,
                        {"inflight": conn.inflight, "throttled": True},
                        (),
                    )
                )
                return
        conn.inflight += 1
        future = asyncio.get_running_loop().create_future()
        future.add_done_callback(
            lambda _f: setattr(conn, "inflight", conn.inflight - 1)
        )
        self._jobs.put_nowait(_Job(kind=job_kind, future=future, batches=batches))
        conn.enqueue_reply(("future", future, formatter))

    def _handle_replay(self, conn: Connection, frame: Frame) -> None:
        """Answer ``REPLAY(stream, from_seq[, upto])`` from the journal.

        Served entirely on the event loop — the journal is loop-local
        state, so a replay never queues behind (or interrupts) detector
        work on the executor.  The reply is an ``EVENTS`` frame holding
        the requested range, or ``EVENTS_GAP`` (plus whatever suffix is
        still available) when the ring has already evicted its head.
        ``scope`` mirrors the subscription scopes: ``"own"`` resolves
        ``stream`` inside the connection's namespace, ``"all"`` takes a
        full ``<namespace>/<stream>`` id as pushed to scope-``all``
        subscribers.
        """
        stream, from_seq, upto = replay_range(frame)
        scope = request_scope(frame, "replay")
        full_sid = stream if scope == "all" else conn.prefix + stream
        namespace = full_sid.split("/", 1)[0]
        journal = self._journals.get(namespace)
        if journal is None:
            # An unknown namespace (never produced, LRU-evicted past the
            # journal cap, or reset) answers exactly like an empty
            # journal — including the explicit unknown-extent loss
            # report for a positive from_seq.
            journal = EventJournal(0)
        else:
            self._journals.move_to_end(namespace)
        events, gap_end = journal.replay(full_sid, from_seq, upto)
        self.replays_served += 1
        renamed = [replace(e, stream_id=stream) for e in events]
        if gap_end is not None:
            self.replay_gaps += 1
        conn.enqueue_reply(
            ("reply", *replay_reply(stream, from_seq, upto, renamed, gap_end))
        )

    def _submit_control(self, conn: Connection, fn, formatter) -> None:
        """Queue a control job; its reply keeps the connection's FIFO order."""
        if self._draining:
            conn.enqueue_reply(
                ("reply", FrameType.ERROR, {"message": "server is draining"}, ())
            )
            return
        future = asyncio.get_running_loop().create_future()
        self._jobs.put_nowait(_Job(kind="control", future=future, fn=fn))
        conn.enqueue_reply(("future", future, formatter))

    def _handle_snapshot(self, conn: Connection, frame: Frame) -> None:
        requested = None
        if frame.meta.get("streams") is not None:
            requested = stream_list(frame)
        prefix = conn.prefix

        def run() -> dict:
            if requested is None:
                wanted = self.facade.streams_with_prefix(prefix)
            else:
                wanted = [prefix + sid for sid in requested]
            states = self.facade.snapshot_streams(wanted)
            return {sid[len(prefix) :]: entry for sid, entry in states.items()}

        def format_snapshot(states: dict):
            tree, arrays = protocol.pack_object(states)
            return FrameType.OK, {"states": tree}, tuple(arrays)

        self._submit_control(conn, run, format_snapshot)

    def _handle_restore(self, conn: Connection, frame: Frame) -> None:
        states = protocol.unpack_object(frame.meta.get("states"), frame.arrays)
        if not isinstance(states, dict):
            raise ProtocolError("RESTORE meta must carry a 'states' mapping")
        prefix = conn.prefix

        def run() -> int:
            for sid, entry in states.items():
                self.facade.restore_stream(
                    prefix + sid,
                    entry["state"],
                    samples=int(entry.get("samples", 0)),
                    events=int(entry.get("events", 0)),
                )
            return len(states)

        self._submit_control(
            conn, run, lambda n: (FrameType.OK, {"restored": n}, ())
        )

    def _handle_remove(self, conn: Connection, frame: Frame) -> None:
        """Drop named streams from the connection's namespace.

        The router's migration cleanup: after a stream's snapshot has
        been restored on its new home node, the old owner drops the live
        state.  The namespace journal is deliberately left untouched —
        the already-journaled seq prefix stays replayable from here,
        which is what keeps a subscriber's seq tail gap-free across a
        migration.
        """
        local_ids = stream_list(frame)
        prefix = conn.prefix
        if self._quotas is not None:
            self._quotas.note_remove(
                conn.namespace, [prefix + sid for sid in local_ids]
            )

        def run() -> int:
            return self.facade.remove_streams([prefix + sid for sid in local_ids])

        self._submit_control(
            conn, run, lambda n: (FrameType.OK, {"removed": n}, ())
        )

    def _handle_stats(self, conn: Connection, frame: Frame) -> None:
        include_periods = bool(frame.meta.get("periods"))
        prefix = conn.prefix
        server_stats = {
            "connections": len(self._connections),
            "busy_replies": self.busy_replies,
            "dropped_events": self.dropped_events,
            "ingest_jobs": self.ingest_jobs,
            "executor_calls": self.executor_calls,
            "draining": self._draining,
            "replays_served": self.replays_served,
            "replay_gaps": self.replay_gaps,
            "coalesce": {
                "window": self.adaptive_window,
                "min": self.config.coalesce_min,
                "limit": self.config.coalesce_limit,
                "batches": self.ingest_batches,
                "max_batch": self.max_batch,
            },
            "profile": dict(self.profile),
            "journal": {
                "namespaces": len(self._journals),
                "entries": sum(len(j) for j in self._journals.values()),
                "appended": sum(j.appended for j in self._journals.values()),
                "evicted": sum(j.evicted for j in self._journals.values()),
                "capacity": self.config.journal_size,
            },
        }
        server_stats.update(self._frontend_stats(conn))
        if self._quotas is not None:
            server_stats["quotas"] = self._quotas.stats()
        if self._checkpointer is not None:
            server_stats["checkpoint"] = self._checkpointer.stats()
            server_stats["restore"] = self.restore_stats

        def run() -> dict:
            pool_stats = self.facade.stats()
            result = {
                "pool": {
                    "streams": pool_stats.streams,
                    "created": pool_stats.created,
                    "evicted": pool_stats.evicted,
                    "total_samples": pool_stats.total_samples,
                    "total_events": pool_stats.total_events,
                    "locked_streams": pool_stats.locked_streams,
                    "mode": pool_stats.mode,
                    "lockstep_backend": pool_stats.lockstep_backend,
                    "kernel_backend": pool_stats.kernel_backend,
                },
                "server": server_stats,
            }
            if include_periods:
                result["periods"] = {
                    sid[len(prefix) :]: period
                    for sid, period in self.facade.current_periods().items()
                    if sid.startswith(prefix)
                }
            return result

        self._submit_control(
            conn, run, lambda stats: (FrameType.OK, stats, ())
        )


# ----------------------------------------------------------------------
# construction + threaded hosting helpers
# ----------------------------------------------------------------------
def build_pool(
    config: PoolConfig,
    *,
    workers: int = 1,
    sharding: ShardingConfig | None = None,
    pipeline_depth: int = 0,
):
    """Build the pool a server should own: plain below 2 workers, sharded above.

    ``pipeline_depth`` (used only when ``sharding`` is not given and the
    pool is sharded) enables cross-call ingest pipelining — see
    :class:`~repro.service.sharding.ShardingConfig`.  With it, an INGEST
    reply may omit events that are still in flight; they reach the
    requester on a later reply for the same streams, or subscribers via
    the dispatcher's idle flush.
    """
    check_positive_int(workers, "workers")
    if workers >= 2:
        return ShardedDetectorPool(
            config,
            sharding
            or ShardingConfig(workers=workers, pipeline_depth=pipeline_depth),
        )
    return DetectorPool(config)


class ServerThread(LoopThread):
    """Host a :class:`DetectionServer` on a private loop in a daemon thread.

    The blocking client, the test-suite and the loopback benchmark all
    need a live server without an event loop of their own::

        with ServerThread(DetectorPool(PoolConfig())) as host_port:
            client = DetectionClient(Endpoint(*host_port))
            ...

    ``__enter__`` returns ``(host, port)`` once the server is listening;
    ``__exit__`` performs the graceful drain.
    """

    def __init__(self, pool, config: ServerConfig | None = None) -> None:
        self.server = DetectionServer(pool, config)
        super().__init__(self.server, "repro-server")

    def checkpoint(self, timeout: float = 30.0) -> dict:
        """Run one checkpoint pass on the server's loop; returns its
        summary.  Lets threaded tests force durability at a known point
        instead of sleeping out the interval."""
        return self.call(self.server.checkpoint_now(), timeout)
