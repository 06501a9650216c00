"""Durable event sequencing end-to-end: journal, REPLAY, auto-resume.

The acceptance scenario of the sequencing PR: a subscriber that the
server dropped events on (slow consumer) — or that was disconnected
entirely — recovers via ``REPLAY`` and ends with the exact per-stream
event sequence an unthrottled subscriber saw, seq-for-seq, for both a
plain pool and a 2-worker sharded pool behind the server.  Ranges the
bounded journal has already evicted surface through ``EVENTS_GAP`` and
the client's ``on_gap`` callback, exactly once per evicted range.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from _server_helpers import event_config, event_traces
from repro.server.client import (
    RETRY_DELAY_CAP,
    AsyncDetectionClient,
    DetectionClient,
    ServerError,
    backoff_delay,
)
from repro.server.server import EventJournal, ServerConfig, ServerThread
from repro.service.events import PeriodStartEvent
from repro.service.pool import DetectorPool
from repro.service.sharding import ShardedDetectorPool, ShardingConfig


def ev(stream: str, seq: int, index: int = 0) -> PeriodStartEvent:
    return PeriodStartEvent(stream, index or seq, 3, 1.0, False, seq=seq)


def seq_view(events) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for event in events:
        out.setdefault(event.stream_id, []).append(event.seq)
    return out


def by_stream(events) -> dict[str, list[PeriodStartEvent]]:
    out: dict[str, list[PeriodStartEvent]] = {}
    for event in events:
        out.setdefault(event.stream_id, []).append(event)
    return out


# ----------------------------------------------------------------------
# the journal ring itself
# ----------------------------------------------------------------------
class TestEventJournal:
    def test_full_range_replays_without_gap(self):
        journal = EventJournal(16)
        journal.append([ev("a", i) for i in range(5)])
        events, gap = journal.replay("a", 2)
        assert [e.seq for e in events] == [2, 3, 4]
        assert gap is None

    def test_upto_bounds_the_range(self):
        journal = EventJournal(16)
        journal.append([ev("a", i) for i in range(6)])
        events, gap = journal.replay("a", 1, 4)
        assert [e.seq for e in events] == [1, 2, 3]
        assert gap is None

    def test_streams_interleave_but_replay_separately(self):
        journal = EventJournal(16)
        journal.append([ev("a", 0), ev("b", 0), ev("a", 1), ev("b", 1), ev("a", 2)])
        events, gap = journal.replay("b", 0)
        assert [e.seq for e in events] == [0, 1]
        assert gap is None

    def test_eviction_reports_first_available(self):
        journal = EventJournal(4)
        journal.append([ev("a", i) for i in range(10)])  # ring keeps 6..9
        assert len(journal) == 4
        assert journal.evicted == 6
        events, gap = journal.replay("a", 2)
        assert [e.seq for e in events] == [6, 7, 8, 9]
        assert gap == 6

    def test_fully_evicted_bounded_range_gaps_to_upto(self):
        journal = EventJournal(4)
        journal.append([ev("a", i) for i in range(10)])
        events, gap = journal.replay("a", 2, 5)
        assert events == []
        assert gap == 5

    def test_fully_evicted_open_range_gaps_past_last(self):
        journal = EventJournal(0)  # journaling disabled: evict everything
        journal.append([ev("a", 0), ev("a", 1)])
        events, gap = journal.replay("a", 0)
        assert events == []
        assert gap == 2  # everything through the last appended seq is lost

    def test_nothing_missed_is_not_a_gap(self):
        journal = EventJournal(8)
        journal.append([ev("a", i) for i in range(3)])
        events, gap = journal.replay("a", 3)  # next seq: nothing to fetch
        assert events == []
        assert gap is None

    def test_empty_range_is_not_a_gap(self):
        journal = EventJournal(4)
        journal.append([ev("a", i) for i in range(10)])  # head evicted
        assert journal.replay("a", 3, 3) == ([], None)

    def test_unknown_stream(self):
        journal = EventJournal(8)
        # From scratch (seq 0) nothing is provably lost; a positive
        # from_seq proves events existed, so the loss — of unknown
        # extent, hence the degenerate gap_end == from_seq — is
        # reported, never silenced.
        assert journal.replay("ghost", 0) == ([], None)
        assert journal.replay("ghost", 5) == ([], 5)
        assert journal.replay("ghost", 0, 5) == ([], 5)
        assert journal.last_seq("ghost") is None

    def test_seq_restart_purges_the_previous_incarnation(self):
        # A stream re-created after LRU eviction restarts at seq 0; the
        # old incarnation's entries must never replay into the new
        # numbering.
        journal = EventJournal(16)
        journal.append([ev("a", i) for i in range(9)])
        journal.append([ev("b", 0)])  # another stream, untouched by the purge
        journal.append([ev("a", i) for i in range(3)])  # restart
        events, gap = journal.replay("a", 1)
        assert [e.seq for e in events] == [1, 2]
        assert gap is None
        assert journal.replay("b", 0) == ([ev("b", 0)], None)


# ----------------------------------------------------------------------
# REPLAY over the wire
# ----------------------------------------------------------------------
class TestReplayRequests:
    def test_replay_returns_journaled_events(self, loopback):
        _, host, port = loopback()
        with DetectionClient(f"repro://{host}:{port}", namespace="prod") as producer:
            produced = []
            for sid, trace in event_traces(3).items():
                produced.extend(producer.ingest(sid, trace))
            assert produced
            with DetectionClient(f"repro://{host}:{port}", namespace="prod") as other:
                for sid, events in by_stream(produced).items():
                    replayed, gap = other.replay(sid, 0)
                    assert gap is None
                    assert replayed == events  # event-for-event, seq included
                    middle, gap = other.replay(sid, 1, upto=3)
                    assert gap is None
                    assert middle == events[1:3]

    def test_replay_of_evicted_range_reports_gap_not_silence(self, loopback):
        _, host, port = loopback(server_config=ServerConfig(journal_size=8))
        with DetectionClient(f"repro://{host}:{port}", namespace="prod") as producer:
            sid, trace = next(iter(event_traces(1, samples=240).items()))
            produced = producer.ingest(sid, trace)
            assert len(produced) > 8
            replayed, first_available = producer.replay(sid, 0)
            assert first_available == produced[-8].seq
            assert replayed == produced[-8:]

    def test_replay_scope_all_uses_full_ids(self, loopback):
        _, host, port = loopback()
        with DetectionClient(f"repro://{host}:{port}", namespace="prod") as producer:
            sid, trace = next(iter(event_traces(1).items()))
            produced = producer.ingest(sid, trace)
            with DetectionClient(f"repro://{host}:{port}", namespace="watcher") as watcher:
                replayed, gap = watcher.replay(f"prod/{sid}", 0, scope="all")
                assert gap is None
                assert seq_view(replayed) == {f"prod/{sid}": [e.seq for e in produced]}

    def test_replay_validates_range(self, loopback):
        # A malformed range is a protocol violation: the server answers
        # ERROR and closes, like every other malformed request — hence
        # one client per attempt.
        _, host, port = loopback()
        with DetectionClient(f"repro://{host}:{port}") as client:
            with pytest.raises(ServerError, match="replay range"):
                client.replay("app", -1)
        with DetectionClient(f"repro://{host}:{port}") as client:
            with pytest.raises(ServerError, match="replay range"):
                client.replay("app", 5, upto=2)

    def test_replay_unknown_namespace_is_explicit(self, loopback):
        _, host, port = loopback()
        with DetectionClient(f"repro://{host}:{port}", namespace="fresh-ns") as client:
            events, gap = client.replay("never-seen", 0, upto=4)
            assert events == []
            assert gap == 4

    def test_stats_expose_journal_and_replays(self, loopback):
        _, host, port = loopback()
        with DetectionClient(f"repro://{host}:{port}", namespace="prod") as client:
            sid, trace = next(iter(event_traces(1).items()))
            produced = client.ingest(sid, trace)
            client.replay(sid, 0)
            stats = client.stats()["server"]
            assert stats["replays_served"] == 1
            assert stats["replay_gaps"] == 0
            assert stats["journal"]["appended"] == len(produced)
            assert stats["journal"]["entries"] == len(produced)

    def test_fresh_handshake_resets_the_journal(self, loopback):
        _, host, port = loopback()
        with DetectionClient(f"repro://{host}:{port}", namespace="prod") as client:
            sid, trace = next(iter(event_traces(1).items()))
            assert client.ingest(sid, trace)
        with DetectionClient(f"repro://{host}:{port}", namespace="prod", fresh=True) as client:
            # The namespace restarted at seq 0; stale journal entries
            # must not be replayable.
            events, gap = client.replay(sid, 0)
            assert events == []
            assert gap is None


# ----------------------------------------------------------------------
# transparent subscriber resume
# ----------------------------------------------------------------------
def drain(client: DetectionClient, *, timeout: float) -> list[PeriodStartEvent]:
    """Read pushed batches (gap-resolved) until ``timeout`` of silence."""
    out: list[PeriodStartEvent] = []
    while True:
        batch = client.next_events(timeout=timeout)
        if batch is None:
            return out
        out.extend(batch)


class TestSubscriberResume:
    def test_reconnecting_subscriber_recovers_missed_events(self, loopback):
        _, host, port = loopback()
        with DetectionClient(f"repro://{host}:{port}", namespace="prod") as producer:
            traces = event_traces(2, samples=360)
            phases = [
                {sid: trace[lo:hi] for sid, trace in traces.items()}
                for lo, hi in ((0, 120), (120, 240), (240, 360))
            ]
            subscriber = DetectionClient(f"repro://{host}:{port}", namespace="prod")
            subscriber.subscribe()
            produced = producer.ingest_many(phases[0])
            seen = drain(subscriber, timeout=1.0)
            assert seq_view(seen) == seq_view(produced)
            carried = subscriber.last_seqs
            subscriber.close()

            produced += producer.ingest_many(phases[1])  # missed entirely

            gaps: list[tuple] = []
            resumed = DetectionClient(
                f"repro://{host}:{port}",
                namespace="prod",
                resume_seqs=carried,
                on_gap=lambda *args: gaps.append(args),
            )
            try:
                resumed.subscribe()
                produced += producer.ingest_many(phases[2])
                seen += drain(resumed, timeout=1.0)
            finally:
                resumed.close()
            assert gaps == []  # journal still held the whole range
            assert seq_view(seen) == seq_view(produced)
            assert by_stream(seen) == by_stream(produced)

    def test_on_gap_fires_exactly_once_per_evicted_range(self, loopback):
        _, host, port = loopback(server_config=ServerConfig(journal_size=8))
        with DetectionClient(f"repro://{host}:{port}", namespace="prod") as producer:
            sid, trace = next(iter(event_traces(1, samples=480).items()))
            subscriber = DetectionClient(f"repro://{host}:{port}", namespace="prod")
            subscriber.subscribe()
            produced = producer.ingest(sid, trace[:80])
            seen = drain(subscriber, timeout=1.0)
            carried = subscriber.last_seqs
            subscriber.close()

            # Miss far more than the journal holds: the head is gone.
            missed = producer.ingest(sid, trace[80:400])
            assert len(missed) > 8

            gaps: list[tuple] = []
            resumed = DetectionClient(
                f"repro://{host}:{port}",
                namespace="prod",
                resume_seqs=carried,
                on_gap=lambda *args: gaps.append(args),
            )
            try:
                resumed.subscribe()
                tail = producer.ingest(sid, trace[400:])
                assert tail  # the push that reveals the gap
                seen += drain(resumed, timeout=1.0)
            finally:
                resumed.close()

            produced += missed + tail
            lost_from = carried[sid] + 1
            # Everything still journaled when the gap was detected came
            # back; the evicted head is reported exactly once.
            assert len(gaps) == 1
            stream, from_seq, first_available = gaps[0]
            assert (stream, from_seq) == (sid, lost_from)
            assert from_seq < first_available
            delivered = seq_view(seen)[sid]
            expected = [e.seq for e in produced]
            assert delivered == [
                s for s in expected if s < lost_from or s >= first_available
            ]
            # The recovered suffix is contiguous: nothing silently lost
            # beyond the reported range.
            resumed_part = [s for s in delivered if s >= first_available]
            assert resumed_part == list(
                range(first_available, expected[-1] + 1)
            )

    def test_resync_reports_a_lost_range_once_then_advances(self, loopback):
        # A resync that finds part of the range evicted must advance the
        # client's baseline past the reported loss: a second resync (the
        # drain-then-resync shutdown pattern) must not re-fire on_gap
        # for the same range, and must fetch nothing new.
        _, host, port = loopback(server_config=ServerConfig(journal_size=8))
        with DetectionClient(f"repro://{host}:{port}", namespace="prod") as producer:
            sid, trace = next(iter(event_traces(1, samples=300).items()))
            produced = producer.ingest(sid, trace)
            assert len(produced) > 8

            gaps: list[tuple] = []
            with DetectionClient(
                f"repro://{host}:{port}",
                namespace="prod",
                resume_seqs={sid: -1},
                on_gap=lambda *args: gaps.append(args),
            ) as late:
                recovered = late.resync([sid])
                assert [e.seq for e in recovered] == [
                    e.seq for e in produced[-8:]
                ]
                assert gaps == [(sid, 0, produced[-8].seq)]
                assert late.resync([sid]) == []
                assert len(gaps) == 1  # not re-reported

    def test_async_subscriber_auto_resume(self, loopback):
        _, host, port = loopback()

        async def run():
            producer = await AsyncDetectionClient.connect(
                f"repro://{host}:{port}", namespace="prod"
            )
            traces = event_traces(2, samples=360)
            produced = await producer.ingest_many(
                {sid: t[:180] for sid, t in traces.items()}
            )
            subscriber = await AsyncDetectionClient.connect(
                f"repro://{host}:{port}", namespace="prod", resume_seqs={sid: -1 for sid in traces}
            )
            await subscriber.subscribe()
            # The subscriber joined after the first phase: its seed of -1
            # makes the first push reveal seqs 0.. as a gap to replay.
            produced += await producer.ingest_many(
                {sid: t[180:] for sid, t in traces.items()}
            )
            seen: list[PeriodStartEvent] = []
            while True:
                batch = await subscriber.next_events(timeout=1.0)
                if batch is None:
                    break
                seen.extend(batch)
            await subscriber.close()
            await producer.close()
            return produced, seen

        produced, seen = asyncio.run(run())
        assert seen
        assert by_stream(seen) == by_stream(produced)


# ----------------------------------------------------------------------
# the acceptance loopback: throttled-until-dropped subscriber recovery
# ----------------------------------------------------------------------
def _tiny_rcvbuf_create_connection(address, timeout=None, source_address=None):
    """``socket.create_connection`` with a tiny receive buffer set *before*
    connect: the buffer is then locked (no autotuning) and the advertised
    TCP window stays small, so a subscriber that stops reading stalls the
    server's writer within ~100 kB instead of megabytes — which is what
    makes its push queue overflow (and drop) deterministically fast."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.settimeout(timeout)
        sock.connect(address)
    except BaseException:
        sock.close()
        raise
    return sock


@pytest.mark.parametrize("workers", [1, 2], ids=["plain-pool", "sharded-2w"])
def test_throttled_subscriber_recovers_exact_sequence(workers, monkeypatch):
    config = event_config()
    pool = (
        DetectorPool(config)
        if workers == 1
        else ShardedDetectorPool(config, ShardingConfig(workers=workers))
    )
    server_config = ServerConfig(push_queue=1, journal_size=1_000_000)
    thread = ServerThread(pool, server_config)
    host, port = thread.start()
    # Accepted sockets inherit the listener's buffer sizes (Linux): a
    # small server-side send buffer plus the subscriber's tiny receive
    # buffer bound how much TCP absorbs, so an unread connection stalls
    # the writer — and overflows the push queue — within ~100 kB.
    for listener in thread.server._server.sockets:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
    try:
        gaps: list[tuple] = []
        producer = DetectionClient(f"repro://{host}:{port}", namespace="prod")
        unthrottled = DetectionClient(f"repro://{host}:{port}", namespace="prod")
        unthrottled.subscribe()
        with monkeypatch.context() as patched:
            patched.setattr(
                "socket.create_connection", _tiny_rcvbuf_create_connection
            )
            throttled = DetectionClient(
                f"repro://{host}:{port}", namespace="prod", on_gap=lambda *args: gaps.append(args)
            )
        throttled.subscribe()

        traces = event_traces(4, samples=80 * 256)
        produced: list[PeriodStartEvent] = []
        seen_live: list[PeriodStartEvent] = []
        dropped_at: int | None = None
        for chunk in range(80):
            lo, hi = chunk * 256, (chunk + 1) * 256
            produced.extend(
                producer.ingest_many(
                    {sid: trace[lo:hi] for sid, trace in traces.items()}
                )
            )
            # The unthrottled subscriber keeps up; the throttled one
            # reads nothing, so its pushes pile up and start dropping.
            while (batch := unthrottled.next_events(timeout=0.05)) is not None:
                seen_live.extend(batch)
            if dropped_at is None and chunk % 5 == 4:
                stats = producer.stats()["server"]
                if stats["dropped_events"] > 0:
                    dropped_at = chunk
            elif dropped_at is not None and chunk >= dropped_at + 3:
                break  # a few more chunks so the drop is an interior gap
        stats = producer.stats()["server"]
        assert stats["dropped_events"] > 0, "the subscriber was never throttled"

        seen_live.extend(drain(unthrottled, timeout=1.0))
        seen_live.extend(unthrottled.resync(traces))
        # Now the throttled subscriber finally reads: buffered pushes
        # first, then any surviving post-drop push reveals seq gaps
        # which next_events recovers through REPLAY automatically; a
        # terminal resync catches the tail whose pushes were themselves
        # dropped (no later push left to reveal them).
        recovered = drain(throttled, timeout=1.0)
        recovered.extend(throttled.resync(traces))

        assert gaps == []  # journal held everything: full recovery
        assert producer.stats()["server"]["replays_served"] > 0
        # Event-for-event, seq-for-seq: the dropped subscriber ends with
        # exactly the sequence the unthrottled one (and the producer's
        # replies) saw.
        assert by_stream(recovered) == by_stream(seen_live)
        assert by_stream(recovered) == by_stream(produced)
        for seqs in seq_view(recovered).values():
            assert seqs == list(range(len(seqs)))

        producer.close()
        unthrottled.close()
        throttled.close()
    finally:
        thread.stop()


# ----------------------------------------------------------------------
# reconnect backoff
# ----------------------------------------------------------------------
class TestReconnectBackoff:
    """Reconnects back off exponentially with jitter, bounded by a cap.

    A fleet of clients facing a restarting server (or router backend)
    must neither hammer it in lockstep nor wait unboundedly long —
    ``backoff_delay`` owns that policy for both client flavours and the
    router's downstream links.
    """

    def test_delay_grows_exponentially_within_jitter_bounds(self):
        base = 0.25
        for attempt in range(12):
            bound = min(base * 2**attempt, RETRY_DELAY_CAP)
            for _ in range(50):
                delay = backoff_delay(attempt, base)
                assert bound * 0.5 <= delay <= bound

    def test_delay_is_capped(self):
        assert backoff_delay(60, 1.0) <= RETRY_DELAY_CAP
        assert backoff_delay(0, 100.0) <= RETRY_DELAY_CAP

    def test_delay_jitters(self):
        delays = {backoff_delay(3, 0.25) for _ in range(20)}
        assert len(delays) > 1  # not a fixed schedule

    def _closed_port(self) -> int:
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            return sock.getsockname()[1]

    def test_blocking_connect_sleeps_per_schedule_then_raises(self, monkeypatch):
        sleeps: list[float] = []
        monkeypatch.setattr("repro.server.client.time.sleep", sleeps.append)
        retry_delay = 0.2
        with pytest.raises(ConnectionRefusedError):
            DetectionClient(
                f"repro://127.0.0.1:{self._closed_port()}",
                connect_retries=4,
                retry_delay=retry_delay,
            )
        assert len(sleeps) == 4  # one backoff between each of 5 attempts
        for attempt, slept in enumerate(sleeps):
            bound = min(retry_delay * 2**attempt, RETRY_DELAY_CAP)
            assert bound * 0.5 <= slept <= bound

    def test_async_connect_retries_then_raises(self, monkeypatch):
        sleeps: list[float] = []

        async def fake_sleep(delay: float) -> None:
            sleeps.append(delay)

        monkeypatch.setattr("repro.server.client.asyncio.sleep", fake_sleep)

        async def attempt() -> None:
            await AsyncDetectionClient.connect(
                f"repro://127.0.0.1:{self._closed_port()}",
                connect_retries=3,
                retry_delay=0.1,
            )

        with pytest.raises(ConnectionRefusedError):
            asyncio.run(attempt())
        assert len(sleeps) == 3
        for attempt_no, slept in enumerate(sleeps):
            bound = min(0.1 * 2**attempt_no, RETRY_DELAY_CAP)
            assert bound * 0.5 <= slept <= bound

    def test_successful_retry_preserves_resume_semantics(self, loopback):
        # A reconnect that needed no retries is the common case; what
        # matters is that the retry knobs do not disturb resume_seqs /
        # on_gap behaviour on the connection that finally succeeds.
        _, host, port = loopback()
        traces = event_traces(2, samples=240)
        with DetectionClient(f"repro://{host}:{port}", namespace="prod") as producer:
            subscriber = DetectionClient(f"repro://{host}:{port}", namespace="prod")
            subscriber.subscribe()
            produced = producer.ingest_many(
                {sid: tr[:120] for sid, tr in traces.items()}
            )
            seen = drain(subscriber, timeout=1.0)
            carried = subscriber.last_seqs
            subscriber.close()

            produced += producer.ingest_many(
                {sid: tr[120:] for sid, tr in traces.items()}
            )  # missed while away
            gaps: list[tuple] = []
            resumed = DetectionClient(
                f"repro://{host}:{port}",
                namespace="prod",
                connect_retries=3,
                retry_delay=0.05,
                resume_seqs=carried,
                on_gap=lambda *args: gaps.append(args),
            )
            try:
                resumed.subscribe()
                seen += resumed.resync(traces)
            finally:
                resumed.close()
            assert gaps == []
            assert by_stream(seen) == by_stream(produced)
