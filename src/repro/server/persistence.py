"""Durable server state: the checkpoint store and the background checkpointer.

``repro serve`` without persistence is a cache — a restart loses every
detector's lock state, every stream's seq position and every namespace's
replay journal.  This module turns the daemon into a system of record by
composing pieces that already exist (versioned engine snapshots,
``snapshot_streams``, seqs that survive restore, the
:class:`~repro.server.server.EventJournal` + ``REPLAY`` recovery path)
into two classes:

:class:`CheckpointStore`
    An append-only, crash-safe on-disk layout under ``--state-dir``::

        state_dir/
          MANIFEST.json          # ordered list of live segment files
          segments/
            000000001.ckpt       # one delta (or compacted base) per pass

    Each *segment* holds one pass's dirty stream snapshots (engine state
    via the existing :func:`~repro.server.protocol.pack_object` tree
    format — NumPy arrays as raw buffers, no pickles), the streams
    removed since the previous pass, and the dirty namespaces' journal
    state (entries + per-stream high-water marks).  Restore replays the
    manifest's segments in order, later records overriding earlier ones.

    Every file is written *write-temp + fsync + rename* (+ directory
    fsync), and the manifest is only updated after its new segment is
    durable, so a ``kill -9`` at any instant leaves either the old
    manifest (the new segment is an invisible orphan) or the new
    manifest pointing at a fully synced segment.  Segments additionally
    carry a CRC-32 + length footer: a torn or bit-rotted file is
    detected at restore, skipped with a warning, and the remaining
    segments still load — corruption degrades, it never crashes the
    daemon.  Once the manifest accumulates ``compact_after`` deltas they
    are folded into a single base segment (append-then-compact, the
    one-store-per-entity shape).

:class:`Checkpointer`
    The background half, owned by a
    :class:`~repro.server.server.DetectionServer`.  Every
    ``checkpoint_interval`` seconds (or earlier, once
    ``checkpoint_max_dirty`` ingest jobs have landed) it takes one
    *incremental pass*: diff the pool's cheap per-stream dirty marks
    against the last pass, snapshot only the changed streams in bounded
    chunks on the server's pool executor (so snapshots serialise with
    detection instead of racing it, and the event loop never blocks),
    capture the dirty journals loop-side, then serialise + fsync on a
    dedicated IO thread.  The detection hot path pays nothing beyond the
    per-ingest dirty-mark increment it already does for LRU bookkeeping.

**Consistency across a kill -9.**  A pass snapshots each stream
atomically (pool executor, facade lock) and captures the journals
*after* every snapshot chunk's loop continuation ran, so for every
persisted stream the persisted journal is at least as new as the
stream's snapshot.  At restore, journal entries with ``seq >= `` the
stream's restored events counter are trimmed: those events are ahead of
the restored detector state and will be *re-produced* (same seqs, same
payload) when ingestion resumes from the checkpoint.  The result is the
zero-stream-loss contract: a subscriber resuming via ``resume_seqs``
receives exactly the per-stream sequence an uninterrupted run would have
delivered, with ``on_gap`` firing only for ranges that genuinely never
reached a durable journal.

Version gates mirror the wire/engine behaviour: a store or segment
written by a *newer* build (``format`` above :data:`STORE_FORMAT`, or
``snapshot_version`` above
:data:`~repro.core.engine.SNAPSHOT_VERSION`) is rejected with a clear
:class:`CheckpointVersionError` instead of being mis-restored.
"""

from __future__ import annotations

import asyncio
import json
import os
import struct
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.core.engine import SNAPSHOT_VERSION
from repro.server import protocol
from repro.service.events import PeriodStartEvent
from repro.util.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (server imports us)
    from repro.server.server import DetectionServer

__all__ = [
    "CheckpointError",
    "CheckpointStore",
    "CheckpointVersionError",
    "Checkpointer",
    "CorruptSegmentError",
    "RestoreResult",
    "STORE_FORMAT",
]

_logger = get_logger(__name__)

#: Version of the on-disk store layout (manifest + segment container).
#: Bump when the container format itself changes; the engine snapshot
#: payloads inside carry their own ``SNAPSHOT_VERSION``.
STORE_FORMAT = 1

_MAGIC = b"RCK1"
_SEGMENT_HEAD = struct.Struct("<I")  # header JSON length
_SEGMENT_FOOT = struct.Struct("<Iq")  # crc32 of everything before it, file length
_MANIFEST = "MANIFEST.json"
_SEGMENT_DIR = "segments"

#: Streams snapshotted per executor hop during a checkpoint pass; bounds
#: how long one chunk occupies the pool executor (detection requests
#: interleave between chunks instead of waiting out a full-fleet pass).
CHECKPOINT_CHUNK = 256


class CheckpointError(Exception):
    """A checkpoint store cannot be read or written."""


class CheckpointVersionError(CheckpointError):
    """The store was written by a newer build than the one restoring it.

    Mirrors the wire-protocol and engine-snapshot version gates: a newer
    layout must be rejected loudly, never guessed at.  Unlike corruption
    (which is skipped with a warning) this aborts the restore — starting
    empty would silently shadow a perfectly good state directory.
    """


class CorruptSegmentError(CheckpointError):
    """A segment file is torn, truncated or fails its CRC."""


@dataclass
class RestoreResult:
    """What :meth:`CheckpointStore.load` recovered (and what it skipped)."""

    streams: dict[str, dict] = field(default_factory=dict)
    """``stream_id -> {"state", "samples", "events"}`` after replaying
    every loadable segment in manifest order."""
    journals: dict[str, tuple[list[PeriodStartEvent], dict[str, int]]] = field(
        default_factory=dict
    )
    """``namespace -> (entries, last_seq)`` journal state, newest wins."""
    segments_loaded: int = 0
    segments_skipped: int = 0
    """Segments dropped as torn/truncated/CRC-mismatching (warned)."""


def _dtype_token(dtype: np.dtype) -> object:
    """A JSON-able dtype description (structured dtypes via ``descr``)."""
    if dtype.fields:
        return [list(item) for item in dtype.descr]
    return dtype.str


def _dtype_from_token(token: object) -> np.dtype:
    if isinstance(token, list):
        return np.dtype([(str(name), str(fmt)) for name, fmt in token])
    return np.dtype(str(token))


class CheckpointStore:
    """Crash-safe append-then-compact persistence for one server's state.

    Parameters
    ----------
    root:
        The state directory (created on first write; ``load`` of a
        directory that never saw a checkpoint returns an empty result).
    compact_after:
        Manifest length at which the accumulated delta segments are
        folded into one base segment.  Compaction runs on the caller's
        thread (the checkpointer's IO thread in production).
    """

    def __init__(self, root: str | os.PathLike, *, compact_after: int = 8) -> None:
        if compact_after < 2:
            raise CheckpointError("compact_after must be >= 2")
        self.root = Path(root)
        self.compact_after = int(compact_after)
        self._generation = 0
        self._segments: list[str] = []
        self._loaded_manifest = False
        self.compactions = 0

    # ------------------------------------------------------------------
    # low-level atomic file plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _fsync_dir(path: Path) -> None:
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:  # pragma: no cover - exotic filesystems
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - fsync on dirs unsupported
            pass
        finally:
            os.close(fd)

    def _write_atomic(self, path: Path, payload: bytes) -> None:
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._fsync_dir(path.parent)

    # ------------------------------------------------------------------
    # segment codec
    # ------------------------------------------------------------------
    @staticmethod
    def _encode_segment(record: dict) -> bytes:
        tree, arrays = protocol.pack_object(record)
        descriptors = []
        chunks: list[bytes] = []
        for array in arrays:
            array = np.ascontiguousarray(array)
            descriptors.append(
                {
                    "dtype": _dtype_token(array.dtype),
                    "shape": list(array.shape),
                    "nbytes": int(array.nbytes),
                }
            )
            chunks.append(array.tobytes())
        header = json.dumps(
            {
                "format": STORE_FORMAT,
                "snapshot_version": SNAPSHOT_VERSION,
                "tree": tree,
                "arrays": descriptors,
            },
            separators=(",", ":"),
        ).encode("utf-8")
        body = b"".join(
            [_MAGIC, _SEGMENT_HEAD.pack(len(header)), header, *chunks]
        )
        footer = _SEGMENT_FOOT.pack(
            zlib.crc32(body), len(body) + _SEGMENT_FOOT.size
        )
        return body + footer

    @staticmethod
    def _decode_segment(path: Path, raw: bytes) -> dict:
        """Decode one segment, verifying footer length + CRC first.

        Raises :class:`CorruptSegmentError` for anything torn and
        :class:`CheckpointVersionError` for a newer writer — the caller
        skips the former and aborts on the latter.
        """
        floor = len(_MAGIC) + _SEGMENT_HEAD.size + _SEGMENT_FOOT.size
        if len(raw) < floor:
            raise CorruptSegmentError(f"{path.name}: truncated ({len(raw)} bytes)")
        crc, length = _SEGMENT_FOOT.unpack_from(raw, len(raw) - _SEGMENT_FOOT.size)
        if length != len(raw):
            raise CorruptSegmentError(
                f"{path.name}: footer says {length} bytes, file has {len(raw)}"
            )
        body = raw[: -_SEGMENT_FOOT.size]
        if zlib.crc32(body) != crc:
            raise CorruptSegmentError(f"{path.name}: CRC mismatch")
        if raw[: len(_MAGIC)] != _MAGIC:
            raise CorruptSegmentError(f"{path.name}: bad magic")
        (header_len,) = _SEGMENT_HEAD.unpack_from(raw, len(_MAGIC))
        header_start = len(_MAGIC) + _SEGMENT_HEAD.size
        try:
            header = json.loads(raw[header_start : header_start + header_len])
        except ValueError as exc:
            raise CorruptSegmentError(f"{path.name}: unreadable header") from exc
        if int(header.get("format", 0)) > STORE_FORMAT:
            raise CheckpointVersionError(
                f"{path.name} uses checkpoint format {header['format']}, newer "
                f"than the supported format {STORE_FORMAT}; upgrade this build "
                "before restoring from this state directory"
            )
        if int(header.get("snapshot_version", 0)) > SNAPSHOT_VERSION:
            raise CheckpointVersionError(
                f"{path.name} holds engine snapshots of version "
                f"{header['snapshot_version']}, newer than the supported "
                f"version {SNAPSHOT_VERSION}; upgrade this build before "
                "restoring from this state directory"
            )
        arrays: list[np.ndarray] = []
        offset = header_start + header_len
        for descriptor in header["arrays"]:
            dtype = _dtype_from_token(descriptor["dtype"])
            nbytes = int(descriptor["nbytes"])
            chunk = body[offset : offset + nbytes]
            if len(chunk) != nbytes:
                raise CorruptSegmentError(f"{path.name}: array payload truncated")
            arrays.append(
                np.frombuffer(chunk, dtype=dtype).reshape(descriptor["shape"])
            )
            offset += nbytes
        try:
            record = protocol.unpack_object(header["tree"], arrays)
        except protocol.ProtocolError as exc:
            raise CorruptSegmentError(f"{path.name}: bad snapshot tree") from exc
        if not isinstance(record, dict):
            raise CorruptSegmentError(f"{path.name}: record is not a mapping")
        return record

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    def _manifest_path(self) -> Path:
        return self.root / _MANIFEST

    def _segment_dir(self) -> Path:
        return self.root / _SEGMENT_DIR

    def _read_manifest(self) -> None:
        """Load manifest state; tolerate an absent or corrupt manifest."""
        self._loaded_manifest = True
        path = self._manifest_path()
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return
        try:
            manifest = json.loads(raw)
            fmt = int(manifest["format"])
            segments = list(manifest["segments"])
            generation = int(manifest["generation"])
        except (ValueError, KeyError, TypeError):
            _logger.warning(
                "checkpoint manifest %s is unreadable; starting from an "
                "empty store (segments on disk are preserved)",
                path,
            )
            return
        if fmt > STORE_FORMAT:
            raise CheckpointVersionError(
                f"{path} uses checkpoint format {fmt}, newer than the "
                f"supported format {STORE_FORMAT}; upgrade this build before "
                "restoring from this state directory"
            )
        self._segments = [str(name) for name in segments]
        self._generation = generation

    def _write_manifest(self) -> None:
        payload = json.dumps(
            {
                "format": STORE_FORMAT,
                "snapshot_version": SNAPSHOT_VERSION,
                "generation": self._generation,
                "segments": self._segments,
            },
            indent=2,
        ).encode("utf-8")
        self._write_atomic(self._manifest_path(), payload + b"\n")
        self._collect_garbage()

    def _collect_garbage(self) -> None:
        """Drop segment files the manifest no longer references.

        Orphans are normal (a kill between segment rename and manifest
        write, superseded compaction inputs); they are dead weight, not
        corruption, so removal is best-effort.
        """
        live = set(self._segments)
        try:
            entries = list(self._segment_dir().iterdir())
        except FileNotFoundError:
            return
        for entry in entries:
            if entry.name in live:
                continue
            if entry.suffix not in (".ckpt", ".tmp"):
                continue
            try:
                entry.unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                pass

    def _ensure_layout(self) -> None:
        if not self._loaded_manifest:
            self._read_manifest()
        self._segment_dir().mkdir(parents=True, exist_ok=True)

    @property
    def segments(self) -> list[str]:
        """Live segment file names, oldest first (manifest order)."""
        if not self._loaded_manifest:
            self._read_manifest()
        return list(self._segments)

    # ------------------------------------------------------------------
    # named config documents
    # ------------------------------------------------------------------
    def save_config(self, name: str, payload: dict) -> None:
        """Atomically persist a named JSON config document in the store.

        Config documents (e.g. the server's quota policy, stored as
        ``QUOTAS.json``) live beside the manifest, outside the segment
        machinery: they are whole small policies, not deltas, so the
        atomic temp+fsync+rename write is the right durability tool.
        """
        self._ensure_layout()
        data = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
        self._write_atomic(self.root / f"{name.upper()}.json", data + b"\n")

    def load_config(self, name: str) -> dict | None:
        """The named config document, or ``None`` when never saved."""
        path = self.root / f"{name.upper()}.json"
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            payload = json.loads(raw)
        except ValueError as exc:
            raise CheckpointError(f"corrupt config document {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise CheckpointError(f"config document {path} must hold an object")
        return payload

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def write_delta(
        self,
        streams: Mapping[str, dict],
        removed: Sequence[str] = (),
        journals: Mapping[str, tuple[Sequence[PeriodStartEvent], Mapping[str, int]]]
        | None = None,
        journals_removed: Sequence[str] = (),
    ) -> int:
        """Append one pass's delta segment; returns the bytes written.

        ``streams`` maps full stream ids to ``{"state", "samples",
        "events"}`` snapshot entries; ``journals`` maps namespaces to
        ``(entries, last_seq)``.  Runs entirely on the calling thread
        (the checkpointer's IO executor in production) and triggers a
        compaction once the manifest holds ``compact_after`` segments.
        """
        self._ensure_layout()
        record = self._make_record(streams, removed, journals or {}, journals_removed)
        payload = self._encode_segment(record)
        self._generation += 1
        name = f"{self._generation:09d}.ckpt"
        self._write_atomic(self._segment_dir() / name, payload)
        self._segments.append(name)
        self._write_manifest()
        if len(self._segments) >= self.compact_after:
            self.compact()
        return len(payload)

    @staticmethod
    def _make_record(
        streams: Mapping[str, dict],
        removed: Sequence[str],
        journals: Mapping[str, tuple[Sequence[PeriodStartEvent], Mapping[str, int]]],
        journals_removed: Sequence[str],
    ) -> dict:
        packed_journals = {}
        for namespace, (entries, last_seq) in journals.items():
            ids = sorted({event.stream_id for event in entries})
            positions = {sid: pos for pos, sid in enumerate(ids)}
            packed_journals[namespace] = {
                "ids": ids,
                "events": protocol.events_to_array(list(entries), positions),
                "last_seq": {sid: int(seq) for sid, seq in last_seq.items()},
            }
        return {
            "streams": {
                sid: {
                    "state": entry["state"],
                    "samples": int(entry.get("samples", 0)),
                    "events": int(entry.get("events", 0)),
                }
                for sid, entry in streams.items()
            },
            "removed": list(removed),
            "journals": packed_journals,
            "journals_removed": list(journals_removed),
        }

    def compact(self) -> None:
        """Fold every live segment into one base segment.

        Reads the live segments back (skipping corrupt ones exactly like
        :meth:`load`), merges them, writes the merged base atomically and
        rewrites the manifest to reference only it.  A kill at any point
        leaves either the old manifest (base orphaned) or the new one
        (deltas orphaned) — both load correctly.
        """
        self._ensure_layout()
        merged = self._replay_segments()
        record = self._make_record(
            merged.streams,
            (),
            merged.journals,
            (),
        )
        payload = self._encode_segment(record)
        self._generation += 1
        name = f"{self._generation:09d}.ckpt"
        self._write_atomic(self._segment_dir() / name, payload)
        self._segments = [name]
        self._write_manifest()
        self.compactions += 1
        _logger.info(
            "compacted checkpoint store %s into %s (%d streams, %d bytes)",
            self.root,
            name,
            len(merged.streams),
            len(payload),
        )

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def load(self) -> RestoreResult:
        """Replay the manifest's segments into one merged state.

        Torn/truncated/CRC-failing segments are skipped with a warning
        (counted in :attr:`RestoreResult.segments_skipped`); a segment or
        manifest from a newer build raises
        :class:`CheckpointVersionError`.
        """
        self._read_manifest()
        return self._replay_segments()

    def _replay_segments(self) -> RestoreResult:
        result = RestoreResult()
        for name in list(self._segments):
            path = self._segment_dir() / name
            try:
                raw = path.read_bytes()
                record = self._decode_segment(path, raw)
            except CheckpointVersionError:
                raise
            except (OSError, CorruptSegmentError) as exc:
                _logger.warning(
                    "skipping unreadable checkpoint segment %s: %s", path, exc
                )
                result.segments_skipped += 1
                continue
            self._apply_record(result, record)
            result.segments_loaded += 1
        return result

    @staticmethod
    def _apply_record(result: RestoreResult, record: dict) -> None:
        for sid, entry in record.get("streams", {}).items():
            result.streams[sid] = entry
        for sid in record.get("removed", ()):
            result.streams.pop(sid, None)
        for namespace, packed in record.get("journals", {}).items():
            ids = list(packed.get("ids", ()))
            table = packed.get("events")
            entries = (
                protocol.events_from_array(table, ids) if table is not None else []
            )
            last_seq = {
                str(sid): int(seq)
                for sid, seq in packed.get("last_seq", {}).items()
            }
            result.journals[namespace] = (entries, last_seq)
        for namespace in record.get("journals_removed", ()):
            result.journals.pop(namespace, None)


class Checkpointer:
    """Background incremental checkpoint passes for a running server.

    Owned by :class:`~repro.server.server.DetectionServer` (constructed
    when ``ServerConfig.state_dir`` is set).  See the module docstring
    for the pass algorithm and its crash-consistency argument.
    """

    def __init__(
        self,
        server: "DetectionServer",
        store: CheckpointStore,
        *,
        interval: float,
        max_dirty: int | None = None,
        chunk: int = CHECKPOINT_CHUNK,
    ) -> None:
        self.server = server
        self.store = store
        self.interval = float(interval)
        self.max_dirty = max_dirty
        self.chunk = max(1, int(chunk))
        self._marks: dict[str, int] = {}
        self._journal_marks: dict[str, tuple[int, int]] = {}
        self._kick = asyncio.Event()
        self._ingest_since_pass = 0
        self._task: asyncio.Task | None = None
        self._pass_lock = asyncio.Lock()
        self._io = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-ckpt")
        # STATS counters
        self.passes = 0
        self.idle_passes = 0
        self.streams_written = 0
        self.bytes_written = 0
        self.last_duration = 0.0
        self.last_pass_streams = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def baseline(self) -> None:
        """Record the post-restore dirty marks so the first pass only
        writes what changed *since the restore*, not the whole fleet."""
        self._marks = self.server.facade.dirty_marks()
        self._journal_marks = {
            namespace: (journal.appended, len(journal))
            for namespace, journal in self.server._journals.items()
        }

    def start(self) -> None:
        self._task = asyncio.ensure_future(self._run())

    async def aclose(self, *, final_pass: bool = True) -> None:
        """Stop the periodic task; optionally take one final full pass.

        The final pass is the graceful-drain guarantee: every sample the
        server acknowledged before ``stop()`` is durable once the daemon
        exits cleanly.
        """
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        try:
            if final_pass:
                await self.checkpoint()
        finally:
            self._io.shutdown(wait=True)

    # ------------------------------------------------------------------
    # triggers
    # ------------------------------------------------------------------
    def note_ingest(self, jobs: int) -> None:
        """Loop-side notification from the dispatcher: ingest jobs landed.

        Once ``checkpoint_max_dirty`` jobs accumulate the next pass is
        kicked early instead of waiting out the interval — bounding how
        much acknowledged work a crash can lose under heavy traffic.
        """
        if self.max_dirty is None:
            return
        self._ingest_since_pass += jobs
        if self._ingest_since_pass >= self.max_dirty:
            self._kick.set()

    async def _run(self) -> None:
        while True:
            try:
                await asyncio.wait_for(self._kick.wait(), timeout=self.interval)
            except (asyncio.TimeoutError, TimeoutError):
                pass
            self._kick.clear()
            self._ingest_since_pass = 0
            try:
                await self.checkpoint()
            except asyncio.CancelledError:
                raise
            except Exception:  # pragma: no cover - defensive
                # A failing pass (disk full, transient IO error) must not
                # kill the periodic loop — durability degrades, the
                # server keeps serving, the next pass retries.
                _logger.exception("checkpoint pass failed; continuing")

    # ------------------------------------------------------------------
    # one pass
    # ------------------------------------------------------------------
    async def checkpoint(self) -> dict:
        """Run one incremental pass now; returns its summary counters.

        Safe to call concurrently with the periodic task (passes are
        serialised) and usable after the dispatcher is gone — it talks
        to the pool executor directly, never through the job queue.
        """
        async with self._pass_lock:
            return await self._pass()

    async def _pass(self) -> dict:
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        server = self.server
        facade = server.facade
        marks = await loop.run_in_executor(server._executor, facade.dirty_marks)
        dirty = [sid for sid, mark in marks.items() if self._marks.get(sid) != mark]
        removed = [sid for sid in self._marks if sid not in marks]
        snapshots: dict[str, dict] = {}
        for start in range(0, len(dirty), self.chunk):
            chunk = dirty[start : start + self.chunk]

            def snap(chunk=chunk):
                # One executor call per chunk: the pipelined flush and the
                # snapshot are atomic w.r.t. detection (1-thread executor
                # + facade lock), so every persisted counter matches the
                # events the parent has actually collected.
                leftovers = facade.flush()
                return leftovers, facade.snapshot_streams(chunk)

            leftovers, part = await loop.run_in_executor(server._executor, snap)
            if leftovers:
                server._fan_out(leftovers)
            snapshots.update(part)
        # Dirty streams the pool no longer has were evicted/removed
        # between the mark diff and the snapshot — record the removal so
        # a restore cannot resurrect them.
        vanished = [sid for sid in dirty if sid not in snapshots]
        removed.extend(vanished)
        # Journal capture runs strictly after every snapshot chunk's
        # continuation on this loop, so the persisted journal is at least
        # as new as every persisted stream snapshot (see module docs).
        journals: dict[str, tuple[list[PeriodStartEvent], dict[str, int]]] = {}
        journal_marks: dict[str, tuple[int, int]] = {}
        for namespace, journal in server._journals.items():
            mark = (journal.appended, len(journal))
            journal_marks[namespace] = mark
            if self._journal_marks.get(namespace) != mark:
                journals[namespace] = journal.capture()
        journals_removed = [
            namespace
            for namespace in self._journal_marks
            if namespace not in server._journals
        ]
        if not snapshots and not removed and not journals and not journals_removed:
            self.idle_passes += 1
            return {"streams": 0, "bytes": 0, "idle": True}
        payload_bytes = await loop.run_in_executor(
            self._io,
            self.store.write_delta,
            snapshots,
            removed,
            journals,
            journals_removed,
        )
        # Advance the baselines only after the delta is durable: a failed
        # write leaves everything dirty for the next pass to retry.
        for sid in snapshots:
            self._marks[sid] = marks[sid]
        for sid in vanished:
            self._marks[sid] = marks[sid]
        for sid in removed:
            if sid not in marks:
                self._marks.pop(sid, None)
        for namespace, mark in journal_marks.items():
            if namespace in journals:
                self._journal_marks[namespace] = mark
        for namespace in journals_removed:
            self._journal_marks.pop(namespace, None)
        duration = time.perf_counter() - started
        self.passes += 1
        self.streams_written += len(snapshots)
        self.bytes_written += payload_bytes
        self.last_duration = duration
        self.last_pass_streams = len(snapshots)
        _logger.info(
            "checkpoint pass: %d streams, %d removed, %d journals, %d bytes "
            "in %.3f s (%s)",
            len(snapshots),
            len(removed),
            len(journals),
            payload_bytes,
            duration,
            self.store.root,
        )
        return {
            "streams": len(snapshots),
            "removed": len(removed),
            "journals": len(journals),
            "bytes": payload_bytes,
            "duration_s": duration,
            "idle": False,
        }

    # ------------------------------------------------------------------
    # STATS
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "passes": self.passes,
            "idle_passes": self.idle_passes,
            "streams_written": self.streams_written,
            "bytes_written": self.bytes_written,
            "last_pass_streams": self.last_pass_streams,
            "last_duration_s": round(self.last_duration, 6),
            "segments": len(self.store.segments),
            "compactions": self.store.compactions,
            "interval_s": self.interval,
            "max_dirty": self.max_dirty,
        }
