"""Kill -9 acceptance tests: ``repro serve --state-dir`` warm restarts.

These tests run the real daemon as a subprocess, SIGKILL it mid-flight
(no drain, no final checkpoint — the hardest crash the OS can deliver)
and assert the zero-stream-loss contract of the durable-state subsystem:
a subscriber resuming against the restarted server receives exactly the
per-stream event sequence an uninterrupted run would have produced, and
``on_gap`` stays silent because every journaled range survives.

Two sync disciplines are exercised:

* *checkpointed* crash — wait for an idle checkpoint pass after the last
  ingest (an idle pass proves everything prior is durable), then kill:
  recovery must be byte-exact and complete;
* *unsynchronised* crash — kill while checkpoints may be mid-write:
  recovery must still load cleanly (atomic segments + manifest ordering)
  and yield a contiguous *prefix* of the live run — never a gap, never a
  corrupted store.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from _server_helpers import event_traces
from repro.server.client import DetectionClient

_LISTENING = re.compile(r"listening on ([0-9.]+):(\d+)")
_STARTUP_TIMEOUT = 30.0
_SYNC_TIMEOUT = 30.0


def _serve(state_dir: Path, *extra: str) -> tuple[subprocess.Popen, str, int]:
    """Launch ``repro serve --state-dir`` on an ephemeral port."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--mode", "event", "--window", "32",
            "--state-dir", str(state_dir),
            "--checkpoint-interval", "0.2",
            *extra,
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
            break  # process died; fall through to the failure path
        match = _LISTENING.search(line)
        if match:
            return proc, match.group(1), int(match.group(2))
    proc.kill()
    pytest.fail(f"server never reported a listening port (last line: {line!r})")


def _wait_durable(client: DetectionClient) -> None:
    """Block until a checkpoint pass finds nothing left to write.

    ``client.ingest`` is synchronous, so once the last ingest returned
    the dirty set is final; the next *idle* pass therefore proves every
    prior sample and journal entry reached disk.
    """
    baseline = client.stats()["server"]["checkpoint"]["idle_passes"]
    deadline = time.monotonic() + _SYNC_TIMEOUT
    while time.monotonic() < deadline:
        if client.stats()["server"]["checkpoint"]["idle_passes"] > baseline:
            return
        time.sleep(0.05)
    pytest.fail("no idle checkpoint pass observed; cannot certify durability")


def _sigkill(proc: subprocess.Popen) -> None:
    """SIGKILL the daemon *and* its process group.

    A sharded daemon (``--workers N``) has multiprocessing children that
    would survive a parent-only kill and leak past the test; killing the
    whole session group is also the honest crash simulation — a machine
    failure takes every process down at once.
    """
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


@pytest.mark.parametrize(
    "extra", [(), ("--workers", "2")], ids=["plain", "sharded-2w"]
)
def test_sigkill_then_restart_resumes_exact_seqs(tmp_path, extra):
    state = tmp_path / "state"
    traces = event_traces(4, samples=180)
    live: dict[str, list] = {sid: [] for sid in traces}
    gaps: list = []

    proc, host, port = _serve(state, *extra)
    try:
        with DetectionClient(f"repro://{host}:{port}", namespace="ns") as client:
            for sid, trace in traces.items():
                half = len(trace) // 2
                live[sid].extend(client.ingest(sid, trace[:half]))
            for sid, trace in traces.items():
                live[sid].extend(client.ingest(sid, trace[len(trace) // 2 :]))
            _wait_durable(client)
        _sigkill(proc)  # SIGKILL: no drain, no final checkpoint
    finally:
        _reap(proc)

    proc2, host, port = _serve(state, *extra)
    try:
        with DetectionClient(
            f"repro://{host}:{port}", namespace="ns", on_gap=lambda *a: gaps.append(a)
        ) as client:
            restore = client.stats()["server"]["restore"]
            assert restore["streams"] == len(traces)
            assert restore["segments_skipped"] == 0
            client.subscribe()
            for sid, events in live.items():
                recovered = client.resync([sid])
                assert [e.seq for e in recovered] == [e.seq for e in events]
                assert [e.index for e in recovered] == [e.index for e in events]
                assert [e.period for e in recovered] == [e.period for e in events]
            # Ingestion continues the numbering exactly where the
            # pre-crash run left off — no reset, no jump.
            more = client.ingest("app-0", traces["app-0"][:40])
            if live["app-0"] and more:
                assert more[0].seq == live["app-0"][-1].seq + 1
        assert gaps == []
    finally:
        _reap(proc2)


def test_sigkill_mid_checkpoint_loads_contiguous_prefix(tmp_path):
    """An unsynchronised SIGKILL may lose the tail, never the middle.

    With a 50 ms checkpoint interval the kill lands with high likelihood
    while a pass is writing; the atomic segment + manifest discipline
    must leave a store that restores to a contiguous prefix of the live
    run (seqs ``0..k`` with identical payloads), with no gap reported.
    """
    state = tmp_path / "state"
    trace = np.asarray(event_traces(1, samples=600)["app-0"], dtype=np.float64)
    live: list = []
    gaps: list = []

    proc, host, port = _serve(state, "--checkpoint-interval", "0.05")
    try:
        with DetectionClient(f"repro://{host}:{port}", namespace="ns") as client:
            for start in range(0, len(trace), 30):
                live.extend(client.ingest("app", trace[start : start + 30]))
        _sigkill(proc)  # no sync: a pass is likely mid-write right now
    finally:
        _reap(proc)

    proc2, host, port = _serve(state)
    try:
        with DetectionClient(
            f"repro://{host}:{port}", namespace="ns", on_gap=lambda *a: gaps.append(a)
        ) as client:
            client.stats()  # the store loaded and the daemon answers
            client.subscribe()
            recovered = client.resync(["app"])
        assert gaps == []
        k = len(recovered)
        assert k <= len(live)
        assert [e.seq for e in recovered] == [e.seq for e in live[:k]]
        assert [e.index for e in recovered] == [e.index for e in live[:k]]
    finally:
        _reap(proc2)
