"""Property-based tests of the client's sans-IO session.

The session (:class:`repro.server.client._Session`) owns seq tracking,
gap splicing and resync for both clients.  These tests drive it with no
socket: its REPLAY requests are decoded from their wire bytes and
answered by a real :class:`~repro.server.server.EventJournal`, which
stands in for the server.  Hypothesis generates per-stream push
sequences with dropped pushes, re-created streams (whose seq restarts
at 0) and journal evictions at random points, and the delivered events
are checked against an ideal per-stream seq log:

* per stream, delivered events plus the ranges reported to ``on_gap``
  are exactly the journal order from the stream's baseline, with no
  event twice and no event out of order;
* every ``on_gap`` range is non-empty, was really evicted when it was
  reported, and is reported once (a second ``resync`` reports nothing);
* ``last_seqs`` after ``resync`` is each stream's last produced seq.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server import protocol
from repro.server.client import _Session
from repro.server.frontend import replay_range, replay_reply
from repro.server.protocol import FrameType
from repro.server.server import EventJournal
from repro.service.events import PeriodStartEvent

STREAMS = ("a", "b", "c")
#: Events of a stream nobody follows; appending them evicts the head.
FILLER = "filler"


def frame_of(buffers) -> protocol.Frame:
    blob = b"".join(bytes(b) for b in buffers)
    head = protocol._HEADER.size
    ftype, length = protocol.decode_header(blob[:head])
    assert len(blob) == head + length
    return protocol.decode_payload(ftype, blob[head:])


def drive(op, step):
    """Run a session operation or plan to its return value."""
    result = None
    try:
        while True:
            result = step(op.send(result))
    except StopIteration as done:
        return done.value


class Harness:
    """The session, the journal behind it and the ideal seq log."""

    def __init__(self, capacity: int, prefix: dict[str, int], seeded: bool) -> None:
        self.journal = EventJournal(capacity)
        self.index = 0  # unique per event: tells generations apart
        self.filler_seq = 0
        #: per stream, its generations; each a list of (event, pushed)
        self.log: dict[str, list[list[tuple[PeriodStartEvent, bool]]]] = {}
        self.gen_of: dict[int, tuple[str, int]] = {}  # index -> (stream, gen)
        self.recreated: set[str] = set()
        self.pending: list[PeriodStartEvent] = []
        self.delivered: list[PeriodStartEvent] = []
        self.gaps: list[tuple[str, int, int, int]] = []  # + generation
        for sid, count in prefix.items():
            for _ in range(count):
                self._produce(sid, pushed=False)
        self.seeds = {sid: n - 1 for sid, n in prefix.items() if n} if seeded else {}
        self.session = _Session(on_gap=self._on_gap, resume_seqs=self.seeds)

    # -- the server side -------------------------------------------------
    def _produce(self, sid: str, pushed: bool) -> None:
        gens = self.log.setdefault(sid, [])
        if not gens or sid in self.recreated:
            gens.append([])
            self.recreated.discard(sid)
        seq = len(gens[-1])
        event = PeriodStartEvent(sid, self.index, 3, 1.0, False, seq)
        self.gen_of[self.index] = (sid, len(gens) - 1)
        self.index += 1
        gens[-1].append((event, pushed))
        self.journal.append([event])
        if pushed:
            self.pending.append(event)

    def _answer(self, buffers) -> protocol.Frame:
        request = frame_of(buffers)
        assert request.type == FrameType.REPLAY
        stream, from_seq, upto = replay_range(request)
        events, gap_end = self.journal.replay(stream, from_seq, upto)
        reply = replay_reply(stream, from_seq, upto, events, gap_end)
        return frame_of(protocol.encode_frame(*reply))

    def _on_gap(self, sid: str, from_seq: int, first_available: int) -> None:
        entries, _ = self.journal.capture()
        assert not [
            e for e in entries if e.stream_id == sid and from_seq <= e.seq < first_available
        ], "a reported gap was still in the journal"
        self.gaps.append((sid, from_seq, first_available, len(self.log[sid]) - 1))

    def _replay(self, gap):
        stream, from_seq, upto = gap
        return drive(self.session.replay(stream, from_seq, upto), self._answer)

    # -- the steps ---------------------------------------------------------
    def emit(self, sid: str, pushed: bool) -> None:
        # The first event of a re-created stream is pushed: a seq reset
        # is only visible to the client through a push.
        self._produce(sid, pushed or sid in self.recreated)

    def recreate(self, sid: str) -> None:
        # Deliver first: a gap replay issued after the re-creation would
        # read the new incarnation's journal.
        self.deliver()
        if sid in self.log:
            self.recreated.add(sid)

    def evict(self, count: int) -> None:
        for _ in range(count):
            self.journal.append([PeriodStartEvent(FILLER, 0, 3, 1.0, False, self.filler_seq)])
            self.filler_seq += 1

    def deliver(self) -> None:
        batch, self.pending = self.pending, []
        self.delivered += drive(self.session.splice(batch), self._replay)

    def resync(self) -> list[PeriodStartEvent]:
        return drive(self.session.resync(STREAMS), self._replay)

    # -- the ideal log -----------------------------------------------------
    def expected(self, sid: str) -> list[tuple[int, int]]:
        """(generation, seq) the subscriber must account for, in order."""
        gens = self.log.get(sid, [])
        out = []
        for g, entries in enumerate(gens):
            pushed = [e.seq for e, was_pushed in entries if was_pushed]
            final = g == len(gens) - 1
            if g == 0 and sid in self.seeds:
                start = self.seeds[sid] + 1
            elif pushed:
                start = pushed[0]
            else:  # never seen: only a resync (from 0) reaches it
                start = 0 if final and g == 0 else len(entries)
            horizon = len(entries) - 1 if final else (pushed[-1] if pushed else -1)
            out += [(g, e.seq) for e, _ in entries if start <= e.seq <= horizon]
        return out


step = st.one_of(
    st.tuples(st.just("emit"), st.sampled_from(STREAMS), st.booleans()),
    # Pushed emits twice as likely as dropped ones: gaps need later pushes.
    st.tuples(st.just("emit"), st.sampled_from(STREAMS), st.just(True)),
    st.tuples(st.just("recreate"), st.sampled_from(STREAMS)),
    st.tuples(st.just("evict"), st.integers(1, 4)),
    st.tuples(st.just("deliver")),
)


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(1, 24),
    prefix=st.fixed_dictionaries({sid: st.integers(0, 3) for sid in STREAMS}),
    seeded=st.booleans(),
    steps=st.lists(step, max_size=60),
)
def test_delivery_matches_the_ideal_seq_log(capacity, prefix, seeded, steps):
    h = Harness(capacity, prefix, seeded)
    for name, *args in steps:
        getattr(h, name)(*args)
    h.deliver()
    h.delivered += h.resync()

    for sid in STREAMS:
        delivered = [
            (h.gen_of[e.index][1], e.seq) for e in h.delivered if e.stream_id == sid
        ]
        covered: list[tuple[int, int]] = []
        for stream, from_seq, first_available, g in h.gaps:
            if stream == sid:
                assert from_seq < first_available, "an empty gap was reported"
                covered += [(g, seq) for seq in range(from_seq, first_available)]
        assert len(covered) == len(set(covered)), "a lost range was reported twice"
        expected = h.expected(sid)
        assert delivered == [x for x in expected if x not in set(covered)]
        assert set(covered) <= set(expected)
        if sid in h.log:
            assert h.session.last_seq[sid] == len(h.log[sid][-1]) - 1
        else:
            assert sid not in h.session.last_seq
    assert set(h.session.last_seq) == set(h.log)

    # Caught up: a second resync delivers nothing and reports nothing.
    gaps = len(h.gaps)
    assert h.resync() == []
    assert len(h.gaps) == gaps


@settings(max_examples=100, deadline=None)
@given(seqs=st.lists(st.integers(0, 40), min_size=1, max_size=30))
def test_splice_tracks_the_last_seq_without_replays_when_disabled(seqs):
    """With ``auto_replay`` off a batch passes through verbatim while
    the seq log still follows it."""
    session = _Session(auto_replay=False)
    batch = [PeriodStartEvent("a", i, 3, 1.0, False, seq) for i, seq in enumerate(seqs)]

    def no_replay(gap):
        raise AssertionError(f"replayed {gap} with auto_replay off")

    assert drive(session.splice(batch), no_replay) == batch
    assert session.last_seq == {"a": seqs[-1]}
