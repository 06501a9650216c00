"""Unit tests of the binary hot-frame codecs (no sockets involved)."""

import numpy as np
import pytest

from repro.server import protocol
from repro.server.protocol import (
    EVENT_WIRE_DTYPE,
    PROTOCOL_VERSION,
    WIRE_DTYPE_CODES,
    FrameType,
    ProtocolError,
    decode_header,
    decode_payload,
    encode_frame,
    encode_hot_events,
    encode_hot_ingest,
    hot_dtype_code,
)
from repro.service.events import PeriodStartEvent


def join(buffers) -> bytes:
    return b"".join(bytes(b) for b in buffers)


def roundtrip(buffers):
    blob = join(buffers)
    head = protocol._HEADER.size
    kind, payload_len = decode_header(blob[:head])
    payload = blob[head:]
    assert len(payload) == payload_len
    return decode_payload(kind, payload)


class TestDtypeCodes:
    def test_every_wire_code_survives_a_roundtrip(self):
        for spec in WIRE_DTYPE_CODES:
            dtype = np.dtype(spec)
            code = hot_dtype_code(dtype)
            assert code is not None
            assert protocol._CODE_TO_DTYPE[code] == dtype

    def test_unsupported_dtypes_have_no_code(self):
        assert hot_dtype_code(np.dtype("U8")) is None
        assert hot_dtype_code(EVENT_WIRE_DTYPE) is None  # structured
        assert hot_dtype_code("not a dtype at all" * 5) is None

    def test_native_aliases_map_to_little_endian_codes(self):
        # float64 on any host maps to the "<f8" wire code.
        assert hot_dtype_code(np.float64) == WIRE_DTYPE_CODES["<f8"]
        assert hot_dtype_code(np.dtype(bool)) == WIRE_DTYPE_CODES["|b1"]


class TestHotIngestRoundTrip:
    @pytest.mark.parametrize("spec", ["<f8", "<f4", "<i8", "<i4", "<u2", "|u1"])
    def test_matrix_and_handles_survive(self, spec):
        matrix = (np.arange(24).reshape(3, 8) % 120).astype(spec)
        frame = roundtrip(encode_hot_ingest(FrameType.INGEST_HOT, [4, 0, 7], matrix))
        assert frame.type == FrameType.INGEST_HOT
        assert frame.meta == {"handles": [4, 0, 7]}
        np.testing.assert_array_equal(frame.arrays[0], matrix)
        assert frame.arrays[0].dtype == np.dtype(spec)

    def test_single_stream_row(self):
        matrix = np.linspace(0.0, 1.0, 16).reshape(1, -1)
        frame = roundtrip(encode_hot_ingest(FrameType.LOCKSTEP_HOT, [0], matrix))
        assert frame.type == FrameType.LOCKSTEP_HOT
        assert frame.meta["handles"] == [0]
        np.testing.assert_array_equal(frame.arrays[0][0], matrix[0])

    def test_decoded_matrix_is_a_zero_copy_view(self):
        matrix = np.arange(512, dtype=np.float64).reshape(4, 128)
        frame = roundtrip(encode_hot_ingest(FrameType.INGEST_HOT, [0, 1, 2, 3], matrix))
        assert frame.arrays[0].base is not None

    def test_one_dimensional_matrix_rejected(self):
        with pytest.raises(ProtocolError, match="2-D"):
            encode_hot_ingest(FrameType.INGEST_HOT, [0], np.arange(8.0))

    def test_handle_count_must_match_rows(self):
        with pytest.raises(ProtocolError, match="one handle per"):
            encode_hot_ingest(
                FrameType.INGEST_HOT, [0, 1, 2], np.zeros((2, 4))
            )

    def test_uncodeable_dtype_rejected(self):
        table = np.zeros(2, dtype=EVENT_WIRE_DTYPE)
        with pytest.raises(ProtocolError, match="no hot wire code"):
            encode_hot_ingest(FrameType.INGEST_HOT, [0, 1], table.reshape(2, 1))

    def test_truncated_payload_rejected(self):
        blob = join(
            encode_hot_ingest(
                FrameType.INGEST_HOT, [0, 1], np.zeros((2, 8), dtype=np.float64)
            )
        )
        payload = blob[protocol._HEADER.size :]
        for cut in (4, len(payload) - 8):
            with pytest.raises(ProtocolError, match="hot ingest"):
                decode_payload(FrameType.INGEST_HOT, payload[:cut])

    def test_unknown_dtype_code_rejected(self):
        payload = protocol._HOT_INGEST_HEAD.pack(0, 200, 0)
        with pytest.raises(ProtocolError, match="dtype code"):
            decode_payload(FrameType.INGEST_HOT, payload)


class TestPerRowIngest:
    ROWS = [
        np.arange(5.0),
        np.array([], dtype="<i4"),
        np.array([True, False]),
        np.arange(3, dtype=">i8"),  # big-endian: travels little-endian
        np.arange(4, dtype="|u1"),
    ]

    def test_rows_keep_their_lengths_and_dtypes(self):
        frame = roundtrip(encode_hot_ingest(FrameType.INGEST_HOT, [3, 1, 2, 9, 0], self.ROWS))
        assert frame.meta == {"handles": [3, 1, 2, 9, 0]}
        assert len(frame.arrays) == len(self.ROWS)
        for got, want in zip(frame.arrays, self.ROWS):
            assert got.dtype == want.dtype.newbyteorder("<")
            np.testing.assert_array_equal(got, want)

    def test_layout(self):
        blob = join(encode_hot_ingest(FrameType.INGEST_HOT, [7, 8], self.ROWS[:2]))
        assert blob[protocol._HEADER.size :].hex() == (
            "02000000" "00" "00000000"  # 2 streams, the per-row marker, chunk 0
            "07000000" "08000000"  # handles
            "01" "05000000" "04" "00000000"  # (<f8, 5 samples), (<i4, 0 samples)
            + np.arange(5.0).tobytes().hex()
        )

    def test_lockstep_needs_the_rectangular_form(self):
        with pytest.raises(ProtocolError, match="share one length"):
            encode_hot_ingest(FrameType.LOCKSTEP_HOT, [0], [np.arange(3.0)])
        blob = join(encode_hot_ingest(FrameType.INGEST_HOT, [0], [np.arange(3.0)]))
        with pytest.raises(ProtocolError, match="per-row"):
            decode_payload(FrameType.LOCKSTEP_HOT, blob[protocol._HEADER.size :])

    def test_rows_must_be_one_dimensional_and_codeable(self):
        with pytest.raises(ProtocolError, match="1-D"):
            encode_hot_ingest(FrameType.INGEST_HOT, [0], [np.zeros((2, 2))])
        with pytest.raises(ProtocolError, match="no hot wire code"):
            encode_hot_ingest(FrameType.INGEST_HOT, [0], [np.zeros(2, dtype="c16")])

    def test_malformed_payloads_rejected(self):
        payload = join(encode_hot_ingest(FrameType.INGEST_HOT, [0, 1], self.ROWS[:2]))[
            protocol._HEADER.size :
        ]
        nonzero_chunk = payload[:5] + (1).to_bytes(4, "little") + payload[9:]
        bad_code = payload[:17] + bytes([200]) + payload[18:]
        for bad in (payload[:12], payload[:-1], payload + b"x", nonzero_chunk, bad_code):
            with pytest.raises(ProtocolError):
                decode_payload(FrameType.INGEST_HOT, bad)


class TestHotEventsRoundTrip:
    def events_table(self):
        events = [
            PeriodStartEvent("a", 10, 5, 0.75, True, seq=3),
            PeriodStartEvent("b", 11, 7, 1.0, False, seq=9),
        ]
        return events, protocol.events_to_array(events, {"a": 0, "b": 1})

    def test_table_handles_and_announces_survive(self):
        events, table = self.events_table()
        frame = roundtrip(
            encode_hot_events(
                FrameType.EVENTS_HOT, [5, 2], table, announce=[(5, "a"), (2, "b")]
            )
        )
        assert frame.type == FrameType.EVENTS_HOT
        assert frame.meta["handles"] == [5, 2]
        assert frame.meta["announce"] == [(5, "a"), (2, "b")]
        assert frame.arrays[0].dtype == EVENT_WIRE_DTYPE
        decoded = protocol.events_from_array(frame.arrays[0], ["a", "b"])
        assert decoded == events

    def test_empty_table_no_announces(self):
        table = protocol.events_to_array([], {})
        frame = roundtrip(encode_hot_events(FrameType.EVENTS_HOT, [], table))
        assert frame.meta == {"handles": [], "announce": []}
        assert frame.arrays[0].size == 0

    def test_non_ascii_announce_names(self):
        table = protocol.events_to_array([], {})
        frame = roundtrip(
            encode_hot_events(FrameType.EVENT_HOT, [0], table, announce=[(0, "señal/á")])
        )
        assert frame.meta["announce"] == [(0, "señal/á")]

    def test_trailing_garbage_rejected(self):
        table = protocol.events_to_array([], {})
        payload = join(encode_hot_events(FrameType.EVENTS_HOT, [], table))[
            protocol._HEADER.size :
        ]
        with pytest.raises(ProtocolError, match="trailing"):
            decode_payload(FrameType.EVENTS_HOT, payload + b"x")

    def test_truncated_announce_rejected(self):
        table = protocol.events_to_array([], {})
        payload = join(
            encode_hot_events(FrameType.EVENTS_HOT, [0], table, announce=[(0, "abc")])
        )[protocol._HEADER.size :]
        with pytest.raises(ProtocolError, match="hot event"):
            decode_payload(FrameType.EVENTS_HOT, payload[:6])

    def test_wire_rows_are_fixed_width(self):
        # The on-wire row layout is a packed struct: any change to it is a
        # protocol break and must bump PROTOCOL_VERSION.
        assert EVENT_WIRE_DTYPE.itemsize == 37
        assert [EVENT_WIRE_DTYPE[name].str for name in EVENT_WIRE_DTYPE.names] == [
            "<i4", "<i8", "<i8", "<f8", "|b1", "<i8"
        ]


class TestVersionStamping:
    def header_version(self, buffers) -> int:
        blob = join(buffers)
        _, version, _, _ = protocol._HEADER.unpack(blob[: protocol._HEADER.size])
        return version

    def test_every_frame_is_stamped_with_the_protocol_version(self):
        table = protocol.events_to_array([], {})
        for buffers in (
            encode_frame(FrameType.HELLO, {}),
            encode_frame(FrameType.STATS, {}),
            encode_hot_ingest(FrameType.INGEST_HOT, [0], np.zeros((1, 4))),
            encode_hot_ingest(FrameType.INGEST_HOT, [0], [np.zeros(4)]),
            encode_hot_events(FrameType.EVENT_HOT, [], table),
        ):
            assert self.header_version(buffers) == PROTOCOL_VERSION

    def test_older_headers_still_parse(self):
        # An old peer's HELLO must decode, so the daemon can refuse it
        # with an ERROR instead of dropping the connection.
        blob = join(encode_frame(FrameType.HELLO, {"namespace": "old"}))
        older = blob[:4] + (2).to_bytes(2, "big") + blob[6:]
        assert decode_header(older[: protocol._HEADER.size])[0] == FrameType.HELLO

    def test_future_version_header_rejected(self):
        blob = join(encode_hot_ingest(FrameType.INGEST_HOT, [0], np.zeros((1, 4))))
        corrupted = (
            blob[:4] + (PROTOCOL_VERSION + 1).to_bytes(2, "big") + blob[6:]
        )
        with pytest.raises(ProtocolError, match="newer"):
            decode_header(corrupted[: protocol._HEADER.size])
