"""Fuzzing of the frame decoder, with no socket involved.

Every frame type a peer can send or receive — JSON control frames with
raw arrays, both forms of ``INGEST_HOT``, ``LOCKSTEP_HOT`` and
``EVENTS_HOT``/``EVENT_HOT`` — is encoded, then truncated, bit-flipped
or given a lying length or count field, and handed to
:func:`~repro.server.protocol.decode_payload`, also under the wrong
frame type.  A mutated payload may still be well formed; anything else
must raise :class:`ProtocolError` and nothing else, so a daemon always
answers ERROR instead of dropping the peer.  A round-trip property pins
the per-row ingest form.
"""

from __future__ import annotations

import json
import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.server import protocol
from repro.server.client import _Session
from repro.server.protocol import Frame, FrameType, ProtocolError
from repro.service.events import PeriodStartEvent

WIRE_DTYPES = [np.dtype(spec) for spec in protocol.WIRE_DTYPE_CODES]
CONTROL_TYPES = [
    FrameType.HELLO, FrameType.SUBSCRIBE, FrameType.SNAPSHOT, FrameType.RESTORE,
    FrameType.STATS, FrameType.REPLAY, FrameType.REGISTER, FrameType.REMOVE,
    FrameType.OK, FrameType.ERROR, FrameType.BUSY, FrameType.EVENTS,
    FrameType.BYE, FrameType.EVENTS_GAP,
]
FUZZ = settings(max_examples=200, deadline=None)


def payload_of(buffers) -> bytes:
    return b"".join(bytes(b) for b in buffers)[protocol._HEADER.size :]


def samples(dtype: np.dtype, size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 100, size) % (2 if dtype.kind == "b" else 100)).astype(dtype)


#: Values a lying array descriptor may carry, per field.
DESCRIPTOR_LIES = {
    "nbytes": st.integers(-(2**40), 2**40) | st.sampled_from([1.5, "8", None]),
    "shape": st.lists(st.integers(-3, 2**33) | st.sampled_from(["a", 1.0]), max_size=3)
    | st.integers(),
    "dtype": st.sampled_from(
        ["<f8", "|u1", "O", "S0", "V8", 12, {"a": 1}, [], [[]], [["a"]], [["a", "<f8"]],
         [["a", "<f8", [2]]], [["a", "<f8", [-1]]], [[1, 2]], [["a", "zz"]]]
    ),
}


@st.composite
def json_frames(draw, lie: bool = False):
    """A control frame: JSON meta plus raw arrays; ``lie`` gives one
    array a lying descriptor."""
    ftype = draw(st.sampled_from(CONTROL_TYPES))
    meta = draw(
        st.dictionaries(
            st.text(max_size=6),
            st.recursive(
                st.none() | st.booleans() | st.integers() | st.text(max_size=8),
                lambda inner: st.lists(inner, max_size=3),
                max_leaves=6,
            ),
            max_size=3,
        )
    )
    arrays = []
    for _ in range(draw(st.integers(int(lie), 2))):
        if draw(st.booleans()):
            arrays.append(protocol.events_to_array(
                [PeriodStartEvent("s", 1, 2, 0.5, True, seq=3)], {"s": 0}
            ))
        else:
            dtype = draw(st.sampled_from(WIRE_DTYPES))
            arrays.append(samples(dtype, draw(st.integers(0, 6)), draw(st.integers(0, 9))))
    buffers = protocol.encode_frame(ftype, meta, arrays)
    payload = payload_of(buffers)
    (meta_len,) = struct.unpack_from("!I", payload, 0)
    fields = [(0, "!I")]  # the meta length
    if lie:
        body = json.loads(payload[4 : 4 + meta_len])
        descriptor = draw(st.sampled_from(body["__arrays__"]))
        key = draw(st.sampled_from(sorted(DESCRIPTOR_LIES)))
        descriptor[key] = draw(DESCRIPTOR_LIES[key])
        raw = json.dumps(body).encode()
        payload = struct.pack("!I", len(raw)) + raw + payload[4 + meta_len :]
    return ftype, payload, fields


@st.composite
def ingest_frames(draw):
    """INGEST_HOT (either form) or LOCKSTEP_HOT, with its count fields."""
    nstreams = draw(st.integers(0, 4))
    handles = list(range(nstreams))
    if draw(st.booleans()):
        ftype = draw(st.sampled_from([FrameType.INGEST_HOT, FrameType.LOCKSTEP_HOT]))
        dtype = draw(st.sampled_from(WIRE_DTYPES))
        chunk = draw(st.integers(0, 5))
        matrix = samples(dtype, nstreams * chunk, 1).reshape(nstreams, chunk)
        buffers = protocol.encode_hot_ingest(ftype, handles, matrix)
        return ftype, payload_of(buffers), [(0, "<I"), (5, "<I")]
    rows = [
        samples(draw(st.sampled_from(WIRE_DTYPES)), draw(st.integers(0, 5)), k)
        for k in range(nstreams)
    ]
    buffers = protocol.encode_hot_ingest(FrameType.INGEST_HOT, handles, rows)
    table = 9 + 4 * nstreams
    fields = [(0, "<I"), (5, "<I")] + [(table + 5 * k + 1, "<I") for k in range(nstreams)]
    return FrameType.INGEST_HOT, payload_of(buffers), fields


@st.composite
def event_frames(draw):
    """EVENTS_HOT or EVENT_HOT, with its count fields."""
    ftype = draw(st.sampled_from([FrameType.EVENTS_HOT, FrameType.EVENT_HOT]))
    names = draw(st.lists(st.text(min_size=1, max_size=5), max_size=3, unique=True))
    events = [
        PeriodStartEvent(names[k % len(names)], k, 3, 1.0, k == 0, seq=k)
        for k in range(draw(st.integers(0, 4)) if names else 0)
    ]
    table = protocol.events_to_array(events, {n: i for i, n in enumerate(names)})
    announce = list(enumerate(names))
    buffers = protocol.encode_hot_events(ftype, range(len(names)), table, announce)
    at = 4 + sum(6 + len(n.encode()) for n in names)
    counts = (0, at, at + 4 + 4 * len(names))  # announces, handles, events
    return ftype, payload_of(buffers), [(offset, "<I") for offset in counts]


FRAMES = st.one_of(json_frames(), ingest_frames(), event_frames())


@st.composite
def mutations(draw, payload: bytes, fields: list[tuple[int, str]]):
    """One truncation, bit-flip set or lying count field of ``payload``
    (``fields``: each count field's offset and struct format)."""
    data = bytearray(payload)
    kind = draw(st.sampled_from(["truncate", "flip", "lie"]))
    if kind == "truncate" or not data:
        return bytes(data[: draw(st.integers(0, max(len(data) - 1, 0)))])
    if kind == "flip":
        for _ in range(draw(st.integers(1, 3))):
            bit = draw(st.integers(0, 8 * len(data) - 1))
            data[bit // 8] ^= 1 << (bit % 8)
        return bytes(data)
    usable = [field for field in fields if field[0] + 4 <= len(data)]
    if not usable:
        return bytes(data)
    at, fmt = draw(st.sampled_from(usable))
    value = draw(
        st.sampled_from([0, 1, 2, 255, 2**31 - 1, 2**32 - 1]) | st.integers(0, 2**32 - 1)
    )
    data[at : at + 4] = struct.pack(fmt, value)
    return bytes(data)


def decodes_or_refuses(ftype: FrameType, payload: bytes) -> None:
    try:
        frame = protocol.decode_payload(ftype, payload)
    except ProtocolError:
        return
    assert isinstance(frame, Frame)


@FUZZ
@given(st.data())
def test_mutated_frames_decode_or_raise_protocol_error(data):
    ftype, payload, fields = data.draw(FRAMES)
    decodes_or_refuses(ftype, payload)  # the unmutated frame too
    mutated = data.draw(mutations(payload, fields))
    decodes_or_refuses(ftype, mutated)
    # The same bytes announced as any other frame type.
    decodes_or_refuses(data.draw(st.sampled_from(list(FrameType))), mutated)


@FUZZ
@given(json_frames(lie=True))
def test_lying_array_descriptors_raise_protocol_error(frame):
    ftype, payload, _ = frame
    decodes_or_refuses(ftype, payload)


@FUZZ
@given(st.binary(max_size=64), st.sampled_from(list(FrameType)))
def test_random_bytes_decode_or_raise_protocol_error(payload, ftype):
    decodes_or_refuses(ftype, payload)


ROW_DTYPES = WIRE_DTYPES + [np.dtype("<f2"), np.dtype(">f8"), np.dtype(">i4")]


@settings(max_examples=100, deadline=None)
@example([(np.dtype(">f8"), 3), (np.dtype("<f8"), 3)])
@example([(np.dtype("<f2"), 2), (np.dtype("<f8"), 2)])
@given(
    st.lists(
        st.tuples(st.sampled_from(ROW_DTYPES), st.integers(0, 6)),
        max_size=5,
    )
)
def test_client_rows_roundtrip(shapes):
    """Whatever rows a client sends decode to the same samples, in the
    rectangular form exactly when they share one length and dtype."""
    batches = {f"s{k}": samples(dtype, n, k) for k, (dtype, n) in enumerate(shapes)}
    session = _Session()
    hello = session.hello("n", False, None)
    next(hello)
    try:
        hello.send(Frame(FrameType.OK, {"namespace": "n", "protocol": 3}))
    except StopIteration:
        pass
    op = session.ingest_many(batches)
    request = next(op)
    if batches:  # the REGISTER of the new ids comes first
        handles = list(range(len(batches)))
        request = op.send(Frame(FrameType.OK, {"handles": handles}))
    payload = payload_of(request)
    frame = protocol.decode_payload(FrameType.INGEST_HOT, payload)
    assert frame.meta["handles"] == list(range(len(batches)))
    sent = [np.asarray(b) for b in batches.values()]
    rectangular = len({(a.dtype, a.size) for a in sent}) <= 1
    wire = [a.astype(np.float64) if a.dtype == np.float16 else a for a in sent]
    if rectangular:
        (matrix,) = frame.arrays
        rows = list(matrix)
    else:
        rows = list(frame.arrays)
        assert payload[4] == 0  # the per-row marker
    assert len(rows) == len(wire)
    for got, want in zip(rows, wire):
        assert got.dtype == want.dtype.newbyteorder("<")
        np.testing.assert_array_equal(got, want)
