"""Router-tier acceptance: one endpoint, N backends, identical events.

The contract under test is *event-for-event equivalence*: a producer
and a subscriber pointed at a router in front of N backend servers see
stream-for-stream exactly the events and seqs they would have seen
against one server holding the whole fleet — including

* across a node *join* with live snapshot-based stream migration,
* across a backend SIGKILL + respawn (``repro serve --state-dir``
  subprocess backends), and
* through REPLAY, whose answers fan in from every backend because a
  stream's journal history splits across nodes at each migration.

Plus the satellite behaviours: STATS aggregation (sums + the
``"mixed"`` merge), REMOVE leaving journals replayable, and protocol-v2
clients working through a v3 router.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from _server_helpers import event_config, event_traces
from repro.server.client import DetectionClient
from repro.server.router import RouterConfig, RouterThread, parse_backend
from repro.server.server import ServerConfig, ServerThread
from repro.service.pool import DetectorPool, PoolConfig
from repro.util.validation import ValidationError


def seq_view(events) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for event in events:
        out.setdefault(event.stream_id, []).append(event.seq)
    return out


def keyed(events) -> dict[str, list[tuple]]:
    out: dict[str, list[tuple]] = {}
    for e in events:
        out.setdefault(e.stream_id, []).append(
            (e.seq, e.index, e.period, e.new_detection)
        )
    return out


def drain(client: DetectionClient, *, timeout: float = 0.5) -> list:
    out = []
    while True:
        batch = client.next_events(timeout=timeout)
        if batch is None:
            return out
        out.extend(batch)


def phases(traces: dict, cuts: tuple[int, ...]) -> list[dict]:
    bounds = (0,) + cuts
    return [
        {sid: tr[lo:hi] for sid, tr in traces.items()}
        for lo, hi in zip(bounds, cuts + (None,))
    ]


@pytest.fixture
def cluster(loopback):
    """Factory: a router in front of ``n`` loopback servers."""
    routers: list[RouterThread] = []

    def start(n: int, pool_config=None, config: RouterConfig | None = None):
        addresses = []
        for _ in range(n):
            _, host, port = loopback(pool_config)
            addresses.append(f"{host}:{port}")
        thread = RouterThread(addresses, config)
        routers.append(thread)
        host, port = thread.start()
        return thread, host, port

    yield start
    for thread in routers:
        thread.stop()


def run_workload(host, port, chunks, *, namespace="prod", subscribe=True):
    """Produce ``chunks`` and return (reply events, subscriber events)."""
    produced, seen = [], []
    with DetectionClient(f"repro://{host}:{port}", namespace=namespace) as producer:
        subscriber = None
        if subscribe:
            subscriber = DetectionClient(f"repro://{host}:{port}", namespace=namespace)
            subscriber.subscribe()
        try:
            for chunk in chunks:
                produced.extend(producer.ingest_many(chunk))
            if subscriber is not None:
                seen.extend(drain(subscriber, timeout=1.0))
        finally:
            if subscriber is not None:
                subscriber.close()
    return produced, seen


class TestEquivalence:
    def test_two_backends_match_one_server(self, loopback, cluster):
        traces = event_traces(8, samples=200)
        chunks = phases(traces, (100,))

        _, shost, sport = loopback()
        single, single_seen = run_workload(shost, sport, chunks)

        _, rhost, rport = cluster(2)
        routed, routed_seen = run_workload(rhost, rport, chunks)

        assert keyed(routed) == keyed(single)
        assert keyed(routed_seen) == keyed(single_seen) == keyed(single)

    def test_replay_through_router_matches_ingest_replies(self, cluster):
        traces = event_traces(6, samples=160)
        _, host, port = cluster(2)
        with DetectionClient(f"repro://{host}:{port}", namespace="prod") as client:
            produced = client.ingest_many(traces)
            for sid in traces:
                events, gap = client.replay(sid, 0)
                assert gap is None
                assert keyed(events).get(sid, []) == keyed(produced).get(sid, [])

    def test_v2_client_works_through_the_router(self, cluster):
        traces = event_traces(5, samples=160)
        _, host, port = cluster(2)
        with DetectionClient(f"repro://{host}:{port}", namespace="old", max_protocol=2) as v2:
            assert v2.protocol_version == 2
            produced = v2.ingest_many(traces)
        with DetectionClient(f"repro://{host}:{port}", namespace="new") as v3:
            reference = v3.ingest_many(traces)
        assert keyed(produced) == keyed(reference)

    def test_lockstep_hot_path_is_forwarded_binary(self, cluster):
        rng = np.random.default_rng(3)
        t = np.arange(192, dtype=np.float64)
        traces = {
            f"sig-{i}": np.sin(2 * np.pi * t / (12 + i)) + 0.01 * rng.standard_normal(192)
            for i in range(8)
        }
        _, host, port = cluster(2, PoolConfig(mode="magnitude", window_size=64))
        with DetectionClient(f"repro://{host}:{port}", namespace="prod") as client:
            for lo in range(0, 192, 64):
                client.ingest_lockstep({s: tr[lo : lo + 64] for s, tr in traces.items()})
            stats = client.stats()
            router = stats["server"]["router"]
            # Every lockstep frame forwarded on the binary hot path:
            # zero JSON ingests anywhere on the routed matrix path.
            assert router["hot_forwards"] == 3
            assert router["json_forwards"] == 0
            assert stats["pool"]["streams"] == len(traces)


class TestMembership:
    def test_join_migrates_and_preserves_event_equivalence(self, loopback, cluster):
        traces = event_traces(10, samples=240)
        chunks = phases(traces, (80, 160))

        _, shost, sport = loopback()
        single, single_seen = run_workload(shost, sport, chunks)

        thread, host, port = cluster(1)
        _, bhost, bport = loopback()
        produced, seen = [], []
        with DetectionClient(f"repro://{host}:{port}", namespace="prod") as producer:
            subscriber = DetectionClient(f"repro://{host}:{port}", namespace="prod")
            subscriber.subscribe()
            try:
                produced.extend(producer.ingest_many(chunks[0]))
                moved = thread.add_backend(f"{bhost}:{bport}")
                assert 0 < moved <= len(traces)
                produced.extend(producer.ingest_many(chunks[1]))
                produced.extend(producer.ingest_many(chunks[2]))
                seen.extend(drain(subscriber, timeout=1.0))
                # The fleet now really is two nodes, each holding a share.
                stats = producer.stats()
                per_node = [
                    block["pool"]["streams"]
                    for block in stats["server"]["backends"].values()
                ]
                assert sum(per_node) == len(traces)
                assert all(n > 0 for n in per_node)
            finally:
                subscriber.close()

        assert keyed(produced) == keyed(single)
        assert keyed(seen) == keyed(single_seen)

    def test_replay_fans_in_across_the_migration_split(self, loopback, cluster):
        # After a join, a migrated stream's journal history lives on two
        # nodes: the pre-move prefix on the old owner (REMOVE leaves the
        # journal alone), the tail on the new one.  REPLAY must fuse
        # them into one contiguous seq range.
        traces = event_traces(10, samples=240)
        chunks = phases(traces, (120,))
        thread, host, port = cluster(1)
        _, bhost, bport = loopback()
        with DetectionClient(f"repro://{host}:{port}", namespace="prod") as client:
            produced = client.ingest_many(chunks[0])
            assert thread.add_backend(f"{bhost}:{bport}") > 0
            produced += client.ingest_many(chunks[1])
            expected = keyed(produced)
            for sid in traces:
                events, gap = client.replay(sid, 0)
                assert gap is None
                got = keyed(events).get(sid, [])
                assert got == expected.get(sid, [])
                assert [s for s, *_ in got] == list(range(len(got)))

    def test_leave_drains_the_node_and_events_continue(self, loopback, cluster):
        traces = event_traces(8, samples=240)
        chunks = phases(traces, (120,))
        thread, host, port = cluster(2)
        with DetectionClient(f"repro://{host}:{port}", namespace="prod") as client:
            produced = client.ingest_many(chunks[0])
            leaving = thread.router.backends[0]
            thread.remove_backend(leaving)
            produced += client.ingest_many(chunks[1])
            stats = client.stats()
            assert leaving not in stats["server"]["router"]["backends"]
            assert stats["pool"]["streams"] == len(traces)
            # Seqs stay contiguous per stream across the drain.
            for sid, entries in keyed(produced).items():
                assert [s for s, *_ in entries] == list(range(len(entries)))

    def test_cannot_remove_the_last_backend(self, cluster):
        thread, _, _ = cluster(1)
        with pytest.raises(ValidationError):
            thread.remove_backend(thread.router.backends[0])


class TestStatsAndRemove:
    def test_stats_sum_pools_and_report_ring(self, cluster):
        traces = event_traces(9, samples=160)
        _, host, port = cluster(3)
        with DetectionClient(f"repro://{host}:{port}", namespace="prod") as client:
            client.ingest_many(traces)
            stats = client.stats(periods=True)
            assert stats["pool"]["streams"] == len(traces)
            assert stats["pool"]["mode"] == "event"
            router = stats["server"]["router"]
            assert len(router["backends"]) == 3
            assert router["ring"]["placed_streams"] == len(traces)
            assert set(stats["periods"]) == set(traces)
            assert len(stats["server"]["backends"]) == 3

    def test_stats_mark_disagreeing_backends_mixed(self, loopback):
        # One event-mode and one magnitude-mode backend: the merged pool
        # block must not pretend the fleet is uniform.
        _, h1, p1 = loopback(event_config())
        _, h2, p2 = loopback(PoolConfig(mode="magnitude", window_size=32))
        thread = RouterThread([f"{h1}:{p1}", f"{h2}:{p2}"])
        try:
            host, port = thread.start()
            traces = event_traces(8, samples=96)
            with DetectionClient(f"repro://{host}:{port}", namespace="prod") as client:
                client.ingest_many(traces)
                merged = client.stats()["pool"]
                assert merged["mode"] == "mixed"
        finally:
            thread.stop()

    def test_remove_drops_streams_but_keeps_the_journal(self, cluster):
        traces = event_traces(6, samples=160)
        _, host, port = cluster(2)
        with DetectionClient(f"repro://{host}:{port}", namespace="prod") as client:
            produced = client.ingest_many(traces)
            victims = sorted(traces)[:3]
            assert client.remove_streams(victims) == len(victims)
            stats = client.stats()
            assert stats["pool"]["streams"] == len(traces) - len(victims)
            # The journaled history of a removed stream stays
            # replayable — that is what makes migration gap-free.
            for sid in victims:
                events, gap = client.replay(sid, 0)
                assert gap is None
                assert keyed(events).get(sid, []) == keyed(produced).get(sid, [])


# ----------------------------------------------------------------------
# SIGKILL a backend under a live router
# ----------------------------------------------------------------------
_LISTENING = re.compile(r"listening on ([0-9.]+):(\d+)")
_STARTUP_TIMEOUT = 30.0
_SYNC_TIMEOUT = 30.0


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _serve(state_dir: Path, port: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", str(port),
            "--mode", "event", "--window", "32",
            "--state-dir", str(state_dir),
            "--checkpoint-interval", "0.2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
        start_new_session=True,
    )
    deadline = time.monotonic() + _STARTUP_TIMEOUT
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        if _LISTENING.search(line):
            return proc
    proc.kill()
    pytest.fail(f"backend never reported a listening port (last line: {line!r})")


def _sigkill(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        proc.kill()
    proc.wait(timeout=10)


def _reap(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        _sigkill(proc)
    proc.stdout.close()
    proc.wait(timeout=10)


def _wait_durable(client: DetectionClient, backend: str) -> None:
    """Wait for an idle checkpoint pass on ``backend``, via router STATS."""

    def idle_passes() -> int:
        block = client.stats()["server"]["backends"][backend]
        return block["server"]["checkpoint"]["idle_passes"]

    baseline = idle_passes()
    deadline = time.monotonic() + _SYNC_TIMEOUT
    while time.monotonic() < deadline:
        if idle_passes() > baseline:
            return
        time.sleep(0.05)
    pytest.fail("no idle checkpoint pass observed; cannot certify durability")


def test_backend_sigkill_and_respawn_resumes_exact_seqs(tmp_path, loopback):
    """Kill one backend of a live cluster; respawn it on the same port.

    The producer keeps working (the router reconnects with backoff),
    and the subscriber ends with exactly the per-stream seq sequence an
    uninterrupted single-server run produces — outage losses come back
    through the router's replay fan-in from the respawned journal.
    """
    traces = event_traces(6, samples=240)
    chunks = phases(traces, (120,))

    _, shost, sport = loopback()
    single, _ = run_workload(shost, sport, chunks, subscribe=False)

    ports = [_free_port(), _free_port()]
    states = [tmp_path / "b0", tmp_path / "b1"]
    procs = [_serve(states[i], ports[i]) for i in range(2)]
    addresses = [f"127.0.0.1:{p}" for p in ports]
    thread = RouterThread(
        addresses, RouterConfig(connect_retries=10, retry_delay=0.1)
    )
    gaps: list = []
    try:
        host, port = thread.start()
        with DetectionClient(f"repro://{host}:{port}", namespace="prod") as producer:
            subscriber = DetectionClient(
                f"repro://{host}:{port}", namespace="prod", on_gap=lambda *a: gaps.append(a)
            )
            subscriber.subscribe()
            try:
                produced = producer.ingest_many(chunks[0])
                for backend in addresses:
                    _wait_durable(producer, backend)

                victim = 0
                _reap(procs[victim])  # SIGKILL, and close its output pipe
                procs[victim] = _serve(states[victim], ports[victim])

                produced += producer.ingest_many(chunks[1])
                seen = drain(subscriber, timeout=1.0)
                # Pushes lost while the subscriber's link re-subscribed
                # have no later push to reveal them; resync catches the
                # journal tail through the replay fan-in.
                seen += subscriber.resync(sorted(traces))
            finally:
                subscriber.close()
    finally:
        thread.stop()
        for proc in procs:
            _reap(proc)

    assert gaps == []  # every journaled range survived the crash
    assert keyed(produced) == keyed(single)
    assert keyed(seen) == keyed(single)


class TestConfigValidation:
    def test_backend_addresses_must_parse(self):
        assert parse_backend("127.0.0.1:8757") == ("127.0.0.1", 8757)
        with pytest.raises(ValidationError):
            parse_backend("no-port")
        with pytest.raises(ValidationError):
            parse_backend(":123")
        with pytest.raises(ValidationError):
            parse_backend("host:abc")

    def test_router_needs_a_backend(self):
        from repro.server.router import DetectionRouter

        with pytest.raises(ValidationError):
            DetectionRouter([])

    def test_config_bounds(self):
        with pytest.raises(ValidationError):
            RouterConfig(replicas=0)
        with pytest.raises(ValidationError):
            RouterConfig(retry_delay=0.0)
        with pytest.raises(ValidationError):
            RouterConfig(max_protocol=99)
