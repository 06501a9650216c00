"""Wire protocol of the network detection service.

Every message is one *frame*::

    +--------+---------+--------+-------------+
    | magic  | version | type   | payload_len |   8-byte header, big-endian
    | 4 B    | u16     | u16    | u32         |
    +--------+---------+--------+-------------+
    | payload (layout per frame type)          |
    +------------------------------------------+

Every frame is stamped :data:`PROTOCOL_VERSION`.  A reader parses any
header up to that version, so an older peer's HELLO still decodes and
is refused cleanly (see below); a header from a *newer* version raises
:class:`ProtocolError` instead of being mis-parsed, mirroring the
engine snapshot versioning in :mod:`repro.core.engine`.

*Control frames* (HELLO, REGISTER, SUBSCRIBE, REPLAY, SNAPSHOT,
RESTORE, REMOVE, STATS and the OK / ERROR / BUSY / EVENTS /
EVENTS_GAP / BYE answers) carry a JSON payload::

    | meta_len u32 | meta (JSON, UTF-8) | raw array 0 | raw array 1 | ...

The ``meta`` dictionary holds the small, structured part of the message
(stream names, options, error text) plus a ``__arrays__`` list
describing the NumPy buffers that follow it back-to-back: dtype, shape
and byte length per array.  Arrays therefore travel as their raw bytes —
:func:`encode_frame` returns the array's own (contiguous) memory as
buffers for scatter-gather writes, and :func:`decode_payload`
reconstructs zero-copy ``np.frombuffer`` views into the received
payload — no pickling and no per-element conversion on either side.

*Hot frames* carry all sample and event data.  Their payloads are
binary struct-packed (little-endian, no JSON on either side) and name
streams by compact int32 *handles*, interned per connection through
``REGISTER``:

``INGEST_HOT`` / ``LOCKSTEP_HOT``, rectangular form (rows of one length
and one dtype)::

    u32 nstreams | u8 dtype_code | u32 chunk_len
    nstreams x i32 handles
    nstreams x chunk_len raw samples (row-major, one row per stream)

``INGEST_HOT``, per-row form (ragged lengths or mixed dtypes), marked by
dtype code 0::

    u32 nstreams | u8 0 | u32 0
    nstreams x i32 handles
    nstreams x (u8 dtype_code, u32 length)
    the rows' raw samples, back-to-back

``EVENTS_HOT`` (ingest reply) / ``EVENT_HOT`` (subscriber push)::

    u32 n_announce | n_announce x (i32 handle, u16 len, utf-8 name)
    u32 nstreams   | nstreams x i32 handles
    u32 nevents    | nevents x EVENT_WIRE_DTYPE rows

The announce section teaches a subscriber handle->name mappings it
never registered itself.  Sample dtypes travel under the codes of
:data:`WIRE_DTYPE_CODES`; clients widen any other dtype only where that
is exact and refuse the rest before sending.

HELLO carries ``{"protocol": 3}`` both ways.  A daemon answers a HELLO
whose ``protocol`` is missing, not an integer or below 3 with one
``ERROR`` and closes, before any connection state exists.  HELLO also
carries the optional auth credential: a daemon configured with tokens
requires ``meta["token"]`` and answers ``ERROR`` with ``{"auth":
"denied"}`` (then closes) when it is missing, unknown or expired.

Version history: 1 — initial format; 2 — per-stream monotonic ``seq``
column in event tables, plus the REPLAY request and EVENTS_GAP reply
for recovering dropped subscriber events from the server's bounded
journal; 3 — REGISTER, stream handles and the hot frames, which replace
version 2's JSON ``INGEST`` / ``INGEST_LOCKSTEP`` requests and ``EVENT``
pushes (their frame type numbers 2, 3 and 20 stay unassigned).

Detector snapshots are nested dictionaries holding NumPy arrays and
integer-keyed maps, which JSON cannot express directly;
:func:`pack_object` / :func:`unpack_object` flatten such trees into a
JSON-safe skeleton plus the extracted array list (again raw buffers on
the wire, not pickles).
"""

from __future__ import annotations

import json
import math
import socket
import ssl
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.service.events import PeriodStartEvent

__all__ = [
    "EVENT_DTYPE",
    "EVENT_WIRE_DTYPE",
    "Frame",
    "FrameTooLarge",
    "FrameType",
    "MAX_PAYLOAD_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "WIRE_DTYPE_CODES",
    "decode_payload",
    "encode_frame",
    "encode_hot_events",
    "encode_hot_ingest",
    "events_from_array",
    "events_to_array",
    "hot_dtype_code",
    "merge_replay_answers",
    "pack_object",
    "read_frame",
    "read_frame_async",
    "send_buffers",
    "unpack_object",
    "write_frame",
]

#: The one wire version spoken (history in the module docstring).
PROTOCOL_VERSION = 3

MAGIC = b"RDPD"

#: Upper bound on a single frame's payload; a corrupt or hostile length
#: prefix must not make a peer allocate unbounded memory.
MAX_PAYLOAD_BYTES = 1 << 30

_HEADER = struct.Struct("!4sHHI")  # magic, version, frame type, payload length
_META_LEN = struct.Struct("!I")


class ProtocolError(Exception):
    """A malformed, oversized or incompatible frame."""


class FrameTooLarge(ProtocolError):
    """A frame header announced more payload than the reader accepts."""


class FrameType(IntEnum):
    """Frame discriminator (requests < 16, replies/pushes >= 16).

    2, 3 and 20 stay unassigned: version 2 peers send and expect its
    JSON ingests and push under them.
    """

    # requests
    HELLO = 1
    SUBSCRIBE = 4
    SNAPSHOT = 5
    RESTORE = 6
    STATS = 7
    REPLAY = 8  # re-deliver journaled events of one stream from a seq
    REGISTER = 9  # intern stream names -> per-connection handles
    INGEST_HOT = 10  # binary multi-stream ingest by handle
    LOCKSTEP_HOT = 11  # binary lockstep matrix by handle
    REMOVE = 12  # drop streams from the namespace (router migration)
    # replies and server pushes
    OK = 16
    ERROR = 17
    BUSY = 18
    EVENTS = 19  # reply to REPLAY
    BYE = 21  # server is draining; no further requests will be served
    EVENTS_GAP = 22  # REPLAY reply: part of the range left the journal
    EVENTS_HOT = 23  # binary reply to INGEST_HOT / LOCKSTEP_HOT
    EVENT_HOT = 24  # binary asynchronous push to a subscriber


@dataclass
class Frame:
    """One decoded protocol frame."""

    type: FrameType
    meta: dict = field(default_factory=dict)
    arrays: tuple[np.ndarray, ...] = ()


# ----------------------------------------------------------------------
# dtype <-> JSON
# ----------------------------------------------------------------------
#: Production frames see a handful of dtypes (f8, i8, EVENT_DTYPE, ...);
#: computing ``descr``/``str`` per array on the hot path is measurable,
#: so the wire descriptions are memoised.  Bounded: a hostile stream of
#: novel dtypes must not grow the cache without limit.
_DTYPE_WIRE_CACHE: dict[np.dtype, object] = {}


def _dtype_to_wire(dtype: np.dtype):
    """JSON-able description of ``dtype`` (structured dtypes included)."""
    cached = _DTYPE_WIRE_CACHE.get(dtype)
    if cached is None:
        cached = dtype.descr if dtype.names else dtype.str
        if len(_DTYPE_WIRE_CACHE) < 64:
            _DTYPE_WIRE_CACHE[dtype] = cached
    return cached


def _dtype_from_wire(spec) -> np.dtype:
    if isinstance(spec, str):
        return np.dtype(spec)
    if not isinstance(spec, list):
        raise TypeError(f"bad dtype description {spec!r}")
    fields = []
    for entry in spec:
        # (name, fmt) or (name, fmt, shape) — JSON turned the tuples
        # (and a field's shape) into lists.
        if not isinstance(entry, list) or len(entry) not in (2, 3):
            raise ValueError(f"bad structured dtype field {entry!r}")
        if len(entry) == 2:
            fields.append((entry[0], entry[1]))
        else:
            fields.append((entry[0], entry[1], tuple(entry[2])))
    return np.dtype(fields)


# ----------------------------------------------------------------------
# frame encode / decode
# ----------------------------------------------------------------------
def encode_frame(
    ftype: FrameType,
    meta: Mapping | None = None,
    arrays: Iterable[np.ndarray] = (),
) -> list:
    """Serialise a JSON-meta frame into a list of write buffers.

    The first buffer holds header + meta; each subsequent buffer *is* the
    corresponding array's memory (made contiguous when necessary), so a
    scatter-gather write ships large batches without copying them.
    """
    contiguous = [np.ascontiguousarray(arr) for arr in arrays]
    descriptors = [
        {
            "dtype": _dtype_to_wire(arr.dtype),
            "shape": list(arr.shape),
            "nbytes": arr.nbytes,
        }
        for arr in contiguous
    ]
    body = dict(meta or {})
    if descriptors:
        body["__arrays__"] = descriptors
    meta_bytes = json.dumps(body, separators=(",", ":")).encode("utf-8")
    payload_len = (
        _META_LEN.size + len(meta_bytes) + sum(arr.nbytes for arr in contiguous)
    )
    if payload_len > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"frame payload of {payload_len} bytes exceeds the protocol limit"
        )
    head = (
        _HEADER.pack(MAGIC, PROTOCOL_VERSION, int(ftype), payload_len)
        + _META_LEN.pack(len(meta_bytes))
        + meta_bytes
    )
    buffers: list = [head]
    buffers.extend(memoryview(arr).cast("B") for arr in contiguous if arr.nbytes)
    return buffers


def decode_header(header: bytes | bytearray) -> tuple[FrameType, int]:
    """Validate a frame header; returns ``(frame type, payload length)``."""
    magic, version, ftype, payload_len = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version > PROTOCOL_VERSION:
        raise ProtocolError(
            f"peer speaks protocol version {version}, newer than the supported "
            f"version {PROTOCOL_VERSION}"
        )
    if payload_len > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"frame payload of {payload_len} bytes exceeds the protocol limit"
        )
    try:
        kind = FrameType(ftype)
    except ValueError as exc:
        raise ProtocolError(f"unknown frame type {ftype}") from exc
    return kind, payload_len


def decode_payload(ftype: FrameType, payload: bytes | bytearray | memoryview) -> Frame:
    """Decode a frame payload; array fields are zero-copy views into it.

    Hot frame types decode through their binary layouts; everything
    else takes the JSON-meta layout.  Any malformed payload raises
    :class:`ProtocolError`.
    """
    if ftype in _HOT_INGEST_TYPES:
        return _decode_hot_ingest(ftype, memoryview(payload))
    if ftype in _HOT_EVENT_TYPES:
        return _decode_hot_events(ftype, memoryview(payload))
    view = memoryview(payload)
    if len(view) < _META_LEN.size:
        raise ProtocolError("truncated frame payload (missing meta length)")
    (meta_len,) = _META_LEN.unpack_from(view, 0)
    offset = _META_LEN.size
    if len(view) < offset + meta_len:
        raise ProtocolError("truncated frame payload (missing meta)")
    try:
        meta = json.loads(bytes(view[offset : offset + meta_len]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ProtocolError(f"undecodable frame meta: {exc!r}") from exc
    if not isinstance(meta, dict):
        raise ProtocolError("frame meta must be a JSON object")
    offset += meta_len
    arrays = []
    descriptors = meta.pop("__arrays__", [])
    if not isinstance(descriptors, list):
        raise ProtocolError("__arrays__ must be a list of descriptors")
    for descriptor in descriptors:
        # A malformed descriptor is a peer protocol violation, not a
        # local bug: it must surface as ProtocolError so the server
        # answers with an ERROR frame instead of a dropped connection.
        try:
            dtype = _dtype_from_wire(descriptor["dtype"])
            shape = tuple(descriptor["shape"])
            nbytes = descriptor["nbytes"]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ProtocolError(f"bad array descriptor: {exc!r}") from exc
        if not all(type(n) is int and n >= 0 for n in (*shape, nbytes)):
            raise ProtocolError("array shape and nbytes must be non-negative integers")
        if dtype.hasobject or not dtype.itemsize:
            raise ProtocolError(f"dtype {dtype} cannot travel as raw buffers")
        if math.prod(shape) * dtype.itemsize != nbytes:
            raise ProtocolError("array descriptor does not match its byte length")
        if len(view) < offset + nbytes:
            raise ProtocolError("truncated frame payload (missing array bytes)")
        try:
            if nbytes == 0:
                arrays.append(np.empty(shape, dtype=dtype))
                continue
            arr = np.frombuffer(
                view, dtype=dtype, count=nbytes // dtype.itemsize, offset=offset
            )
            arrays.append(arr.reshape(shape))
        except (TypeError, ValueError) as exc:
            raise ProtocolError(
                f"array descriptor does not match its bytes: {exc}"
            ) from exc
        offset += nbytes
    if offset != len(view):
        raise ProtocolError(f"{len(view) - offset} trailing bytes after the last array")
    return Frame(type=ftype, meta=meta, arrays=tuple(arrays))


# ----------------------------------------------------------------------
# hot frames: binary payloads, interned stream handles
# ----------------------------------------------------------------------
#: Sample dtypes that may travel in a hot ingest frame, keyed by their
#: explicit little-endian ``str``.  Code 0 is not a dtype: it marks the
#: per-row form of INGEST_HOT.
WIRE_DTYPE_CODES: dict[str, int] = {
    "<f8": 1,
    "<f4": 2,
    "<i8": 3,
    "<i4": 4,
    "<u8": 5,
    "<u4": 6,
    "<i2": 7,
    "<u2": 8,
    "|i1": 9,
    "|u1": 10,
    "|b1": 11,
}
_CODE_TO_DTYPE = {code: np.dtype(spec) for spec, code in WIRE_DTYPE_CODES.items()}
_PER_ROW = 0

_HOT_INGEST_TYPES = frozenset((FrameType.INGEST_HOT, FrameType.LOCKSTEP_HOT))
_HOT_EVENT_TYPES = frozenset((FrameType.EVENTS_HOT, FrameType.EVENT_HOT))

_HOT_INGEST_HEAD = struct.Struct("<IBI")  # nstreams, dtype code, chunk length
_U32 = struct.Struct("<I")
_ANNOUNCE_HEAD = struct.Struct("<iH")  # handle, utf-8 name length

#: One entry of the per-row form's row table (5 packed bytes).
_ROW_ENTRY = np.dtype([("code", "|u1"), ("length", "<u4")])

#: Explicit little-endian twin of :data:`EVENT_DTYPE` — the on-the-wire
#: row layout of hot event tables (37 packed bytes per event).  On
#: little-endian hosts the conversion is a zero-copy view.
EVENT_WIRE_DTYPE = np.dtype(
    [
        ("stream", "<i4"),
        ("index", "<i8"),
        ("period", "<i8"),
        ("confidence", "<f8"),
        ("new_detection", "|b1"),
        ("seq", "<i8"),
    ]
)


def hot_dtype_code(dtype) -> int | None:
    """Wire code of a sample dtype, or None when it has none."""
    try:
        spec = np.dtype(dtype)
    except TypeError:
        return None
    if spec.names:
        return None
    return WIRE_DTYPE_CODES.get(spec.newbyteorder("<").str)


def _wire_code(dtype: np.dtype) -> tuple[int, np.dtype]:
    """``(code, little-endian dtype)`` of a sample dtype."""
    code = hot_dtype_code(dtype)
    if code is None:
        raise ProtocolError(f"dtype {dtype.str} has no hot wire code")
    return code, _CODE_TO_DTYPE[code]


def encode_hot_ingest(
    ftype: FrameType,
    handles: Sequence[int] | np.ndarray,
    rows: np.ndarray | Sequence[np.ndarray],
) -> list:
    """Serialise a hot ingest frame: one row of samples per handle.

    ``rows`` is a 2-D matrix (the rectangular form) or a sequence of
    1-D arrays (the per-row form, INGEST_HOT only), in dtypes that have
    a wire code (see :func:`hot_dtype_code`).
    """
    handle_arr = np.ascontiguousarray(np.asarray(handles, dtype="<i4"))
    if isinstance(rows, np.ndarray):
        if rows.ndim != 2:
            raise ProtocolError("hot ingest frames need a 2-D sample matrix")
        code, wire_dtype = _wire_code(rows.dtype)
        wire = np.ascontiguousarray(rows.astype(wire_dtype, copy=False))
        nstreams, chunk = wire.shape
        body = [wire]
    else:
        if ftype != FrameType.INGEST_HOT:
            raise ProtocolError(f"{ftype.name} rows must share one length and dtype")
        nstreams, code, chunk = len(rows), _PER_ROW, 0
        table = np.empty(nstreams, dtype=_ROW_ENTRY)
        body = [table]
        codes = []
        for row in rows:
            if row.ndim != 1:
                raise ProtocolError("per-row hot ingest rows must be 1-D")
            row_code, wire_dtype = _wire_code(row.dtype)
            codes.append(row_code)
            body.append(np.ascontiguousarray(row.astype(wire_dtype, copy=False)))
        table["code"] = codes
        table["length"] = [row.size for row in body[1:]]
    if handle_arr.size != nstreams:
        raise ProtocolError("one handle per sample row required")
    payload_len = (
        _HOT_INGEST_HEAD.size + handle_arr.nbytes + sum(arr.nbytes for arr in body)
    )
    if payload_len > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"frame payload of {payload_len} bytes exceeds the protocol limit"
        )
    head = _HEADER.pack(MAGIC, PROTOCOL_VERSION, int(ftype), payload_len)
    head += _HOT_INGEST_HEAD.pack(nstreams, code, chunk)
    buffers: list = [head, memoryview(handle_arr).cast("B")]
    buffers.extend(memoryview(arr).cast("B") for arr in body if arr.nbytes)
    return buffers


def _decode_hot_ingest(ftype: FrameType, view: memoryview) -> Frame:
    """Rectangular form: ``arrays`` is the one sample matrix; per-row
    form: one 1-D array per handle."""
    if len(view) < _HOT_INGEST_HEAD.size:
        raise ProtocolError("truncated hot ingest frame (missing header)")
    nstreams, code, chunk = _HOT_INGEST_HEAD.unpack_from(view, 0)
    offset = _HOT_INGEST_HEAD.size
    if code == _PER_ROW:
        return _decode_per_row(ftype, view, nstreams, chunk)
    dtype = _CODE_TO_DTYPE.get(code)
    if dtype is None:
        raise ProtocolError(f"unknown sample dtype code {code}")
    expected = offset + nstreams * 4 + nstreams * chunk * dtype.itemsize
    if len(view) != expected:
        raise ProtocolError(
            f"hot ingest frame length mismatch: {len(view)} != {expected}"
        )
    handles = np.frombuffer(view, dtype="<i4", count=nstreams, offset=offset).tolist()
    offset += nstreams * 4
    matrix = np.frombuffer(
        view, dtype=dtype, count=nstreams * chunk, offset=offset
    ).reshape(nstreams, chunk)
    return Frame(type=ftype, meta={"handles": handles}, arrays=(matrix,))


def _decode_per_row(
    ftype: FrameType, view: memoryview, nstreams: int, chunk: int
) -> Frame:
    if ftype != FrameType.INGEST_HOT or chunk:
        raise ProtocolError(f"malformed per-row {ftype.name} frame")
    head = _HOT_INGEST_HEAD.size
    table_at = head + nstreams * 4
    offset = table_at + nstreams * _ROW_ENTRY.itemsize  # the first row
    if len(view) < offset:
        raise ProtocolError("truncated hot ingest frame (per-row table)")
    handles = np.frombuffer(view, dtype="<i4", count=nstreams, offset=head).tolist()
    table = np.frombuffer(view, dtype=_ROW_ENTRY, count=nstreams, offset=table_at)
    rows = []
    for code, length in zip(table["code"].tolist(), table["length"].tolist()):
        dtype = _CODE_TO_DTYPE.get(code)
        if dtype is None:
            raise ProtocolError(f"unknown sample dtype code {code}")
        end = offset + length * dtype.itemsize
        if end > len(view):
            raise ProtocolError("truncated hot ingest frame (row samples)")
        rows.append(np.frombuffer(view, dtype=dtype, count=length, offset=offset))
        offset = end
    if offset != len(view):
        raise ProtocolError(f"{len(view) - offset} trailing bytes after the last row")
    return Frame(type=ftype, meta={"handles": handles}, arrays=tuple(rows))


def encode_hot_events(
    ftype: FrameType,
    handles: Sequence[int] | np.ndarray,
    table: np.ndarray,
    announce: Sequence[tuple[int, str]] = (),
) -> list:
    """Serialise a hot event frame (EVENTS_HOT reply or EVENT_HOT push).

    ``table`` rows' ``stream`` column indexes ``handles``; ``announce``
    carries ``(handle, name)`` pairs the receiving peer has not seen yet
    (the server-side half of the per-connection handle table).
    """
    prefix = bytearray(_U32.pack(len(announce)))
    for handle, name in announce:
        raw = name.encode("utf-8")
        prefix += _ANNOUNCE_HEAD.pack(handle, len(raw))
        prefix += raw
    handle_arr = np.ascontiguousarray(np.asarray(handles, dtype="<i4"))
    wire = np.ascontiguousarray(
        np.asarray(table).astype(EVENT_WIRE_DTYPE, copy=False)
    )
    prefix += _U32.pack(handle_arr.size)
    count = _U32.pack(wire.size)
    payload_len = len(prefix) + handle_arr.nbytes + len(count) + wire.nbytes
    if payload_len > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"frame payload of {payload_len} bytes exceeds the protocol limit"
        )
    head = _HEADER.pack(MAGIC, PROTOCOL_VERSION, int(ftype), payload_len)
    buffers: list = [head + bytes(prefix)]
    if handle_arr.nbytes:
        buffers.append(memoryview(handle_arr).cast("B"))
    buffers.append(count)
    if wire.nbytes:
        buffers.append(memoryview(wire).cast("B"))
    return buffers


def _decode_hot_events(ftype: FrameType, view: memoryview) -> Frame:
    try:
        offset = 0
        (n_announce,) = _U32.unpack_from(view, offset)
        offset += _U32.size
        announce: list[tuple[int, str]] = []
        for _ in range(n_announce):
            handle, name_len = _ANNOUNCE_HEAD.unpack_from(view, offset)
            offset += _ANNOUNCE_HEAD.size
            if len(view) < offset + name_len:
                raise ProtocolError("truncated hot event frame (announce name)")
            name = bytes(view[offset : offset + name_len]).decode("utf-8")
            offset += name_len
            announce.append((handle, name))
        (nstreams,) = _U32.unpack_from(view, offset)
        offset += _U32.size
        if len(view) < offset + nstreams * 4:
            raise ProtocolError("truncated hot event frame (handle table)")
        handles = np.frombuffer(view, dtype="<i4", count=nstreams, offset=offset).tolist()
        offset += nstreams * 4
        (nevents,) = _U32.unpack_from(view, offset)
        offset += _U32.size
        nbytes = nevents * EVENT_WIRE_DTYPE.itemsize
        if len(view) < offset + nbytes:
            raise ProtocolError("truncated hot event frame (event rows)")
        table = np.frombuffer(view, dtype=EVENT_WIRE_DTYPE, count=nevents, offset=offset)
        offset += nbytes
    except struct.error as exc:
        raise ProtocolError(f"truncated hot event frame: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"undecodable announce name: {exc}") from exc
    if offset != len(view):
        raise ProtocolError(
            f"{len(view) - offset} trailing bytes after the hot event table"
        )
    return Frame(
        type=ftype,
        meta={"handles": handles, "announce": announce},
        arrays=(table,),
    )


# ----------------------------------------------------------------------
# blocking socket I/O
# ----------------------------------------------------------------------
def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        read = sock.recv_into(view[got:])
        if read == 0:
            raise ConnectionError("peer closed the connection mid-frame")
        got += read
    return buf


def read_frame(sock: socket.socket) -> Frame:
    """Read one frame from a blocking socket."""
    # decode_header unpacks straight from the bytearray — no bytes() copy
    # per header on the hot read path.
    ftype, payload_len = decode_header(_recv_exact(sock, _HEADER.size))
    payload = _recv_exact(sock, payload_len) if payload_len else b""
    return decode_payload(ftype, payload)


#: Below this size, coalescing the frame into one send beats the extra
#: syscalls of scatter-gather; above it, avoiding the copy wins.
_JOIN_THRESHOLD = 1 << 16

#: Buffers per sendmsg call: POSIX guarantees IOV_MAX >= 16 but every
#: mainstream platform provides >= 1024; staying at that floor keeps one
#: code path without probing sysconf.
_IOV_CHUNK = 1024


def send_buffers(sock: socket.socket, buffers: Sequence) -> None:
    """Write encoded frame buffers to a blocking socket.

    Small frames coalesce into one ``sendall``; larger ones go through
    ``socket.sendmsg`` as a scatter-gather vector (one syscall for the
    whole frame instead of one per buffer), falling back to per-buffer
    ``sendall`` where ``sendmsg`` is unavailable.  TLS sockets always
    coalesce: ``ssl.SSLSocket.sendmsg`` raises ``NotImplementedError``,
    and the record layer copies into its own buffers anyway, so
    scatter-gather would buy nothing there.
    """
    views = [
        memoryview(buffer).cast("B") if not isinstance(buffer, memoryview) else buffer
        for buffer in buffers
        if len(buffer)
    ]
    total = sum(len(view) for view in views)
    if total <= _JOIN_THRESHOLD or isinstance(sock, ssl.SSLSocket):
        sock.sendall(b"".join(views))
        return
    if not hasattr(sock, "sendmsg"):
        for view in views:
            sock.sendall(view)
        return
    queue = list(views)
    while queue:
        sent = sock.sendmsg(queue[:_IOV_CHUNK])
        consumed = 0
        for view in queue[:_IOV_CHUNK]:
            if sent >= len(view):
                sent -= len(view)
                consumed += 1
            else:
                break
        del queue[:consumed]
        if sent and queue:
            queue[0] = queue[0][sent:]


def write_frame(
    sock: socket.socket, ftype: FrameType, meta: Mapping | None = None,
    arrays: Iterable[np.ndarray] = (),
) -> None:
    """Write one frame to a blocking socket (large arrays are not copied)."""
    send_buffers(sock, encode_frame(ftype, meta, arrays))


# ----------------------------------------------------------------------
# asyncio I/O
# ----------------------------------------------------------------------
async def read_frame_async(reader, max_payload: int = MAX_PAYLOAD_BYTES) -> Frame:
    """Read one frame from an ``asyncio.StreamReader``.

    A header announcing more than ``max_payload`` bytes raises
    :class:`FrameTooLarge` before any of the payload is read.
    """
    ftype, payload_len = decode_header(await reader.readexactly(_HEADER.size))
    if payload_len > max_payload:
        raise FrameTooLarge(
            f"{ftype.name} payload of {payload_len} bytes exceeds {max_payload}"
        )
    payload = await reader.readexactly(payload_len) if payload_len else b""
    return decode_payload(ftype, payload)


# ----------------------------------------------------------------------
# event tables
# ----------------------------------------------------------------------
#: Compact representation of a batch of period-start events; ``stream``
#: indexes a stream list (a REPLAY reply's ``streams`` meta, a hot
#: frame's handles).
EVENT_DTYPE = np.dtype(
    [
        ("stream", np.int32),
        ("index", np.int64),
        ("period", np.int64),
        ("confidence", np.float64),
        ("new_detection", np.bool_),
        ("seq", np.int64),
    ]
)


def events_to_array(
    events: Sequence[PeriodStartEvent], positions: Mapping[str, int]
) -> np.ndarray:
    """Pack events into one :data:`EVENT_DTYPE` table for the wire.

    Column-wise: per-row structured assignment costs a NumPy dispatch
    per event, which dominated large reply encodes.
    """
    count = len(events)
    out = np.empty(count, dtype=EVENT_DTYPE)
    if not count:
        return out
    out["stream"] = np.fromiter(
        (positions[e.stream_id] for e in events), dtype=np.int32, count=count
    )
    out["index"] = np.fromiter((e.index for e in events), dtype=np.int64, count=count)
    out["period"] = np.fromiter((e.period for e in events), dtype=np.int64, count=count)
    out["confidence"] = np.fromiter(
        (e.confidence for e in events), dtype=np.float64, count=count
    )
    out["new_detection"] = np.fromiter(
        (e.new_detection for e in events), dtype=np.bool_, count=count
    )
    out["seq"] = np.fromiter((e.seq for e in events), dtype=np.int64, count=count)
    return out


def events_from_array(table: np.ndarray, ids: Sequence[str]) -> list[PeriodStartEvent]:
    """Unpack an :data:`EVENT_DTYPE` table against its stream-id list.

    ``tolist()`` per column converts to native Python values in one C
    pass each; per-row structured indexing was the decode hot spot.
    """
    return [
        PeriodStartEvent(
            stream_id=ids[stream],
            index=index,
            period=period,
            confidence=confidence,
            new_detection=new_detection,
            seq=seq,
        )
        for stream, index, period, confidence, new_detection, seq in zip(
            table["stream"].tolist(),
            table["index"].tolist(),
            table["period"].tolist(),
            table["confidence"].tolist(),
            table["new_detection"].tolist(),
            table["seq"].tolist(),
        )
    ]


# ----------------------------------------------------------------------
# router fan-in
# ----------------------------------------------------------------------
def merge_replay_answers(
    answers: Sequence[tuple[list[PeriodStartEvent], int | None]],
    from_seq: int,
    upto: int | None = None,
) -> tuple[list[PeriodStartEvent], int | None]:
    """Fuse per-backend REPLAY answers into one seq-coherent answer.

    A stream's journal history may be split across cluster nodes — each
    migration leaves the already-journaled prefix on the old owner and
    grows the tail on the new one — so a router answers REPLAY by asking
    *every* backend and merging here.  Per-stream seqs are globally
    monotonic (they travel with the stream's snapshot), which makes the
    merge a plain seq-keyed union: sort, dedupe, and re-derive the gap.

    The gap rules mirror ``EventJournal.replay``: a backend that never
    saw the stream claims the whole range lost, but its claim only
    stands when no other backend either covers the head or answered
    without loss (``gap is None`` proves the stream never got past
    ``from_seq`` on its owner — nothing was missed).
    """
    merged: dict[int, PeriodStartEvent] = {}
    clean = False
    gaps: list[int] = []
    for events, gap in answers:
        if gap is None:
            clean = True
        else:
            gaps.append(gap)
        for event in events:
            merged.setdefault(event.seq, event)
    fused = [merged[seq] for seq in sorted(merged)]
    if fused:
        first = fused[0].seq
        return fused, (None if first <= from_seq else first)
    if clean:
        return [], None
    if gaps:
        return [], min(gaps)
    # No backends answered at all: the honest empty-journal answer.
    if upto is not None:
        return [], upto
    return [], (from_seq if from_seq > 0 else None)


# ----------------------------------------------------------------------
# structured objects (detector snapshots)
# ----------------------------------------------------------------------
def pack_object(obj) -> tuple[object, list[np.ndarray]]:
    """Flatten a snapshot-like tree into a JSON-safe skeleton + arrays.

    Handles the value types engine snapshots actually contain: nested
    dicts (including non-string keys such as ``LockTracker.detected``'s
    ``int`` keys), lists/tuples, NumPy arrays and scalars, and JSON
    primitives.  Arrays are replaced by ``{"__nd__": index}`` markers and
    collected into the returned list, in marker order, so they can ride
    the frame as raw buffers.
    """
    arrays: list[np.ndarray] = []

    def encode(value):
        if isinstance(value, np.ndarray):
            arrays.append(value)
            return {"__nd__": len(arrays) - 1}
        if isinstance(value, np.generic):
            return encode(value.item())
        if isinstance(value, dict):
            if all(isinstance(k, str) for k in value) and not any(
                k in ("__nd__", "__map__", "__tuple__") for k in value
            ):
                return {k: encode(v) for k, v in value.items()}
            return {"__map__": [[encode(k), encode(v)] for k, v in value.items()]}
        if isinstance(value, tuple):
            return {"__tuple__": [encode(v) for v in value]}
        if isinstance(value, list):
            return [encode(v) for v in value]
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        raise ProtocolError(f"cannot serialise {type(value).__name__} values")

    return encode(obj), arrays


def unpack_object(tree, arrays: Sequence[np.ndarray]):
    """Reverse :func:`pack_object` against the frame's array list."""

    def decode(value):
        if isinstance(value, dict):
            if "__nd__" in value:
                return np.array(arrays[int(value["__nd__"])])  # owned copy
            if "__map__" in value:
                return {decode(k): decode(v) for k, v in value["__map__"]}
            if "__tuple__" in value:
                return tuple(decode(v) for v in value["__tuple__"])
            return {k: decode(v) for k, v in value.items()}
        if isinstance(value, list):
            return [decode(v) for v in value]
        return value

    return decode(tree)
