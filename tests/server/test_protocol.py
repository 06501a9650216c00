"""Unit tests of the framed wire protocol (no sockets involved)."""

import numpy as np
import pytest

from repro.server import protocol
from repro.server.protocol import (
    EVENT_DTYPE,
    FrameType,
    MAX_PAYLOAD_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_header,
    decode_payload,
    encode_frame,
    pack_object,
    unpack_object,
)
from repro.service.events import PeriodStartEvent


def roundtrip(ftype, meta=None, arrays=()):
    buffers = encode_frame(ftype, meta, arrays)
    blob = b"".join(bytes(b) for b in buffers)
    head = protocol._HEADER.size
    kind, payload_len = decode_header(blob[:head])
    assert kind == ftype
    payload = blob[head:]
    assert len(payload) == payload_len
    return decode_payload(kind, payload)


class TestFrameRoundTrip:
    def test_meta_only(self):
        frame = roundtrip(FrameType.HELLO, {"namespace": "a", "fresh": False})
        assert frame.type == FrameType.HELLO
        assert frame.meta == {"namespace": "a", "fresh": False}
        assert frame.arrays == ()

    def test_arrays_carry_dtype_shape_and_values(self):
        batch = np.arange(12, dtype=np.float64).reshape(3, 4)
        ids = np.arange(5, dtype=np.int64)
        frame = roundtrip(FrameType.RESTORE, {"streams": ["x"]}, [batch, ids])
        np.testing.assert_array_equal(frame.arrays[0], batch)
        assert frame.arrays[0].dtype == np.float64
        np.testing.assert_array_equal(frame.arrays[1], ids)
        assert frame.arrays[1].dtype == np.int64

    def test_decoded_arrays_are_zero_copy_views(self):
        batch = np.arange(1024, dtype=np.float64)
        frame = roundtrip(FrameType.RESTORE, {"streams": ["x"]}, [batch])
        # A view into the received payload buffer, not a fresh allocation.
        assert frame.arrays[0].base is not None

    def test_encode_does_not_copy_large_arrays(self):
        batch = np.arange(4096, dtype=np.float64)
        buffers = encode_frame(FrameType.RESTORE, {"streams": ["x"]}, [batch])
        views = [b for b in buffers if isinstance(b, memoryview)]
        assert len(views) == 1
        assert views[0].obj is batch  # the array's own memory

    def test_structured_event_table(self):
        events = [
            PeriodStartEvent("a", 10, 5, 0.75, True),
            PeriodStartEvent("b", 11, 7, 1.0, False),
        ]
        table = protocol.events_to_array(events, {"a": 0, "b": 1})
        frame = roundtrip(FrameType.EVENTS, {"streams": ["a", "b"]}, [table])
        assert frame.arrays[0].dtype == EVENT_DTYPE
        assert protocol.events_from_array(frame.arrays[0], ["a", "b"]) == events

    def test_empty_event_table(self):
        table = protocol.events_to_array([], {})
        frame = roundtrip(FrameType.EVENTS, {"streams": []}, [table])
        assert frame.arrays[0].size == 0
        assert protocol.events_from_array(frame.arrays[0], []) == []

    def test_non_contiguous_arrays_are_made_contiguous(self):
        matrix = np.arange(24, dtype=np.float64).reshape(4, 6)
        frame = roundtrip(FrameType.RESTORE, {"streams": ["x"]}, [matrix[:, ::2]])
        np.testing.assert_array_equal(frame.arrays[0], matrix[:, ::2])


class TestFrameErrors:
    def test_bad_magic(self):
        with pytest.raises(ProtocolError, match="magic"):
            decode_header(b"NOPE" + bytes(protocol._HEADER.size - 4))

    def test_newer_version_rejected(self):
        blob = b"".join(bytes(b) for b in encode_frame(FrameType.STATS, {}))
        corrupted = blob[:4] + (PROTOCOL_VERSION + 1).to_bytes(2, "big") + blob[6:]
        with pytest.raises(ProtocolError, match="newer"):
            decode_header(corrupted[: protocol._HEADER.size])

    def test_unknown_frame_type(self):
        blob = b"".join(bytes(b) for b in encode_frame(FrameType.STATS, {}))
        corrupted = blob[:6] + (999).to_bytes(2, "big") + blob[8:]
        with pytest.raises(ProtocolError, match="unknown frame type"):
            decode_header(corrupted[: protocol._HEADER.size])

    def test_oversized_payload_rejected(self):
        header = protocol._HEADER.pack(
            protocol.MAGIC, PROTOCOL_VERSION, int(FrameType.STATS), MAX_PAYLOAD_BYTES + 1
        )
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_header(header)

    def test_truncated_payloads(self):
        buffers = encode_frame(FrameType.RESTORE, {"s": 1}, [np.arange(8.0)])
        payload = b"".join(bytes(b) for b in buffers)[protocol._HEADER.size :]
        for cut in (1, len(payload) - 17):
            with pytest.raises(ProtocolError, match="truncated"):
                decode_payload(FrameType.RESTORE, payload[:cut])

    def test_trailing_garbage_rejected(self):
        payload = b"".join(bytes(b) for b in encode_frame(FrameType.STATS, {}))[protocol._HEADER.size :]
        with pytest.raises(ProtocolError, match="trailing"):
            decode_payload(FrameType.STATS, payload + b"x")

    def test_non_object_meta_rejected(self):
        import struct

        bad = struct.pack("!I", 2) + b"[]"
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_payload(FrameType.STATS, bad)


class TestPackObject:
    def test_snapshot_shaped_tree(self):
        state = {
            "kind": "magnitude",
            "buffer": np.arange(16, dtype=np.float64),
            "sums": np.zeros(5),
            "fill": 16,
            "lock": {
                "period": 4,
                "confidence": 0.5,
                "detected": {4: 2, 8: 1},  # int keys: JSON-hostile
            },
            "nothing": None,
            "pair": (1, 2),
        }
        tree, arrays = pack_object(state)
        restored = unpack_object(tree, arrays)
        assert restored["kind"] == "magnitude"
        np.testing.assert_array_equal(restored["buffer"], state["buffer"])
        assert restored["lock"]["detected"] == {4: 2, 8: 1}
        assert restored["nothing"] is None
        assert restored["pair"] == (1, 2)
        assert isinstance(tree, dict)
        import json

        json.dumps(tree)  # the skeleton must be pure JSON

    def test_numpy_scalars_become_python(self):
        tree, arrays = pack_object({"n": np.int64(7), "x": np.float64(0.5), "b": np.bool_(True)})
        assert not arrays
        assert unpack_object(tree, arrays) == {"n": 7, "x": 0.5, "b": True}

    def test_unserialisable_type_raises(self):
        with pytest.raises(ProtocolError, match="cannot serialise"):
            pack_object({"bad": object()})

    def test_unpacked_arrays_are_owned_copies(self):
        tree, arrays = pack_object({"a": np.arange(4.0)})
        restored = unpack_object(tree, arrays)
        assert restored["a"].flags.owndata


class TestMalformedDescriptors:
    """Peer protocol violations must surface as ProtocolError (the server
    answers those with an ERROR frame) — never as TypeError/KeyError."""

    @pytest.mark.parametrize(
        "descriptors",
        [
            "not-a-list",
            [None],
            [{}],
            [{"dtype": "<f8"}],  # missing shape/nbytes
            [{"dtype": "O", "shape": [1], "nbytes": 8}],  # object dtype
            [{"dtype": 12, "shape": [1], "nbytes": 8}],
            # structured-dtype fields with fewer than two items
            [{"dtype": [[]], "shape": [1], "nbytes": 8}],
            [{"dtype": [["a"]], "shape": [1], "nbytes": 8}],
            [{"dtype": {"a": 1}, "shape": [1], "nbytes": 8}],
            # shapes and sizes that are not non-negative integers, or
            # that disagree with each other
            [{"dtype": "<f8", "shape": ["a"], "nbytes": 8}],
            [{"dtype": "<f8", "shape": [1.0], "nbytes": 8}],
            [{"dtype": "<f8", "shape": [1], "nbytes": -8}],
            [{"dtype": "<f8", "shape": [2], "nbytes": 8}],
            [{"dtype": "<f8", "shape": [-1], "nbytes": 8}],
            [{"dtype": "<f8", "shape": ["a"], "nbytes": 0}],
            [{"dtype": "S0", "shape": [1 << 40], "nbytes": 0}],
        ],
    )
    def test_bad_array_descriptors(self, descriptors):
        import json
        import struct

        meta = json.dumps({"__arrays__": descriptors}).encode()
        payload = struct.pack("!I", len(meta)) + meta + bytes(8)
        with pytest.raises(ProtocolError):
            decode_payload(FrameType.RESTORE, payload)

    def test_deeply_nested_meta(self):
        import struct

        meta = b"[" * 100_000
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_payload(FrameType.STATS, struct.pack("!I", len(meta)) + meta)
