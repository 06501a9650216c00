"""Remote ingests against an in-process pool, through both daemons.

Every request shape a client can send — ragged batches, rows of mixed
sample dtypes, an empty row, an empty request, pipelined requests that
meet new stream ids mid-flight — must give, stream for stream, the
events a local :class:`DetectorPool` gives for the same batches, on a
server and on a router alike.  The rectangular hot ingest frames are
pinned to their exact bytes.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from _server_helpers import event_config, event_traces
from repro.server.client import AsyncDetectionClient, DetectionClient, _Session
from repro.server.protocol import Frame, FrameType, encode_hot_ingest
from repro.service.pool import DetectorPool, PoolConfig

#: The sample dtypes every ingest shape below mixes, one stream each.
MIXED = ("f8", "f4", "i8", "i4", "u1", "b1")


def keyed(events, strip=""):
    per_stream: dict[str, list] = {}
    for e in events:
        per_stream.setdefault(e.stream_id.removeprefix(strip), []).append(
            (e.index, e.period, e.confidence, e.new_detection, e.seq)
        )
    return per_stream


def local(requests, config: PoolConfig, namespace: str) -> dict:
    """Per-stream events of ``requests`` fed to an in-process pool."""
    pool = DetectorPool(config)
    events = []
    for batches in requests:
        prefixed = {f"{namespace}/{sid}": np.asarray(v) for sid, v in batches.items()}
        events += pool.ingest_many(prefixed)
    return keyed(events, strip=f"{namespace}/")


def mixed_rows(lengths, offset: int = 0) -> dict[str, np.ndarray]:
    """One periodic stream per dtype of :data:`MIXED`, ``lengths[k]``
    samples each, continuing at sample ``offset``."""
    rows = {}
    for k, spec in enumerate(MIXED):
        if spec == "b1":
            pattern = np.array([True, False, False])
        else:
            pattern = 10 * k + np.arange(3 + k)
        stream = np.resize(pattern, offset + lengths[k])[offset:]
        rows[f"s-{spec}"] = stream.astype(spec)
    return rows


def request_shapes() -> list[dict]:
    """A sequence of ingest_many requests covering every row shape."""
    traces = event_traces(4, samples=240)
    ragged = [(40, 17, 64, 5), (33, 80, 0, 61)]
    requests = []
    start = [0] * 4
    for lengths in ragged:
        batch = {}
        for i, (sid, trace) in enumerate(traces.items()):
            batch[sid] = trace[start[i] : start[i] + lengths[i]]
            start[i] += lengths[i]
        requests.append(batch)
    requests.append(mixed_rows([96] * len(MIXED)))  # equal lengths, mixed dtypes
    requests.append(mixed_rows([50 + 7 * k for k in range(len(MIXED))], offset=96))
    requests.append({"empty": np.array([], dtype=np.float64), "app-0": traces["app-0"][:40]})
    requests.append({})  # an empty request
    return requests


def magnitude_config() -> PoolConfig:
    return PoolConfig(mode="magnitude", window_size=32)


class TestIngestShapes:
    @pytest.mark.parametrize("mode", ["event", "magnitude"])
    def test_blocking_ingest_many_matches_the_local_pool(self, daemon, mode):
        config = event_config() if mode == "event" else magnitude_config()
        requests = request_shapes()
        host, port = daemon(config)
        remote = []
        with DetectionClient(f"repro://{host}:{port}", namespace="o") as client:
            for batches in requests:
                remote += client.ingest_many(batches)
            assert client.ingest_many({}) == []
        assert keyed(remote) == local(requests, config, "o")

    def test_async_ingest_many_matches_the_local_pool(self, daemon):
        requests = request_shapes()
        host, port = daemon(event_config())

        async def run():
            client = await AsyncDetectionClient.connect(
                f"repro://{host}:{port}", namespace="o"
            )
            try:
                remote = []
                for batches in requests:
                    remote += await client.ingest_many(batches)
                return remote
            finally:
                await client.close()

        assert keyed(asyncio.run(run())) == local(requests, event_config(), "o")

    def test_pipeline_meeting_new_ids_mid_flight(self, daemon):
        traces = event_traces(3, samples=200)
        a, b, c = traces.values()
        requests = [
            {"p0": a[:50]},
            {"p0": a[50:90], "p1": b[:70]},  # p1 is new, p0's request in flight
            {"p2": c[:33].astype("i4")},  # p2 is new, two requests in flight
            {"p1": b[70:200], "p2": c[33:120].astype("u1"), "p0": a[90:91]},
            {"p0": a[91:130]},  # known ids only
            {"p3": np.array([], dtype=np.int64), "p0": a[130:160]},  # p3 is new
            {"p0": a[160:200]},  # right behind the request that brought p3
        ]
        host, port = daemon(event_config())
        with DetectionClient(f"repro://{host}:{port}", namespace="o") as client:
            remote = client.pipeline(requests, window=4)
            # The connection still pairs replies with requests afterwards.
            assert client.ingest_many({"p1": b[:1]}) == []
        assert keyed(remote) == local(requests, event_config(), "o")


def join(buffers) -> bytes:
    return b"".join(bytes(b) for b in buffers)


def hello(session: _Session) -> None:
    """Run a session's handshake against a v3 server's reply."""
    op = session.hello("n", False, None)
    next(op)
    with pytest.raises(StopIteration):
        op.send(Frame(FrameType.OK, {"namespace": "n", "protocol": 3}))


def sent_after_register(op, handles) -> bytes:
    """The bytes of the request an ingest operation sends once its
    REGISTER is answered with ``handles``."""
    register = join(next(op))
    assert register[6:8] == int(FrameType.REGISTER).to_bytes(2, "big")
    return join(op.send(Frame(FrameType.OK, {"handles": handles})))


class TestRectangularGoldenBytes:
    """Equal-length rows of one dtype travel as the rectangular hot
    frames, whose bytes are pinned here."""

    INGEST_HOT = (
        "52445044" "0003" "000a" "00000031"  # magic, version 3, INGEST_HOT, 49 bytes
        "02000000" "01" "02000000"  # 2 streams, dtype code 1 (<f8), 2 samples each
        "00000000" "07000000"  # handles 0, 7
        "000000000000f03f" "0000000000000040"  # 1.0, 2.0
        "0000000000000840" "00000000000012c0"  # 3.0, -4.5
    )
    LOCKSTEP_HOT = (
        "52445044" "0003" "000b" "00000015"  # magic, version 3, LOCKSTEP_HOT, 21 bytes
        "01000000" "04" "02000000"  # 1 stream, dtype code 4 (<i4), 2 samples
        "05000000"  # handle 5
        "ffffffff" "02000000"  # -1, 2
    )

    def test_encoder_bytes(self):
        matrix = np.array([[1.0, 2.0], [3.0, -4.5]])
        assert join(encode_hot_ingest(FrameType.INGEST_HOT, [0, 7], matrix)).hex() == (
            self.INGEST_HOT
        )
        rows = np.array([[-1, 2]], dtype="<i4")
        assert join(encode_hot_ingest(FrameType.LOCKSTEP_HOT, [5], rows)).hex() == (
            self.LOCKSTEP_HOT
        )

    def test_client_sends_the_rectangular_frames(self):
        session = _Session()
        hello(session)
        op = session.ingest_many({"x": [1.0, 2.0], "y": np.array([3.0, -4.5])})
        assert sent_after_register(op, [0, 7]).hex() == self.INGEST_HOT
        op = session.ingest_lockstep({"z": np.array([-1, 2], dtype="<i4")})
        assert sent_after_register(op, [5]).hex() == self.LOCKSTEP_HOT
