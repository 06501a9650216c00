#!/usr/bin/env python3
"""Durable server state: checkpoint, "crash", warm-restart, resume.

The example walks the persistence subsystem end to end, in-process:

1. host a detection daemon with a ``state_dir`` — the same durable mode
   that ``python -m repro serve --state-dir DIR`` runs — and push
   periodic identifier streams through it;
2. force a checkpoint pass and inspect the on-disk store (manifest +
   CRC-footed segment files) and the STATS counters it surfaces;
3. stop the daemon and start a *fresh* one on the same directory: the
   warm restart rebuilds every stream's detector state, seq position
   and replay journal before the socket even opens;
4. resume a subscriber via REPLAY and continue ingesting — sequence
   numbers carry on exactly where the first daemon left off, with no
   gap callback, which is the zero-stream-loss contract.

Run with:  PYTHONPATH=src python examples/durable_restart.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

from repro.server.client import DetectionClient
from repro.server.server import ServerConfig, ServerThread
from repro.service.pool import DetectorPool, PoolConfig
from repro.traces.synthetic import repeat_pattern


def main() -> None:
    pool_config = PoolConfig(mode="event", window_size=64)
    with tempfile.TemporaryDirectory(prefix="repro-durable-") as state_dir:
        server_config = ServerConfig(state_dir=state_dir, checkpoint_interval=30.0)

        # 1. A durable daemon; every stream ingested below will survive it.
        first = ServerThread(DetectorPool(pool_config), server_config)
        host, port = first.start()
        print(f"durable daemon on {host}:{port}, state in {state_dir}")

        traces = {
            f"app-{period}": repeat_pattern(100 * period + np.arange(period), 210)
            for period in (3, 5, 7)
        }
        live = []
        with DetectionClient(f"repro://{host}:{port}", namespace="prod") as producer:
            for sid, trace in traces.items():
                live.extend(producer.ingest(sid, trace))
            print(f"ingested {sum(t.size for t in traces.values())} samples "
                  f"-> {len(live)} period-start events")

            # 2. One explicit checkpoint pass (production relies on the
            #    interval; tests and examples force the moment).
            summary = first.checkpoint()
            print(f"checkpoint pass wrote {summary['streams']} streams, "
                  f"{summary['bytes']:,} bytes")
            ckpt = producer.stats()["server"]["checkpoint"]
            print(f"STATS checkpoint counters: passes={ckpt['passes']} "
                  f"segments={ckpt['segments']} bytes={ckpt['bytes_written']:,}")

        manifest = json.loads((Path(state_dir) / "MANIFEST.json").read_text())
        print(f"on disk: {manifest['segments']} (store format {manifest['format']})")

        # 3. "Crash" the daemon and warm-restart on the same directory.
        #    (stop() also takes a final checkpoint; the kill -9 variants
        #    live in tests/server/test_crash_recovery.py.)
        first.stop()
        second = ServerThread(DetectorPool(pool_config), server_config)
        host, port = second.start()
        print(f"warm restart on {host}:{port}: "
              f"restored {second.server.restore_stats['streams']} streams, "
              f"{second.server.restore_stats['journals']} journal(s)")

        # 4. Resume: replay hands back the exact pre-restart sequence,
        #    and new ingestion continues the numbering seamlessly.
        gaps = []
        with DetectionClient(f"repro://{host}:{port}", namespace="prod",
                             on_gap=lambda *a: gaps.append(a)) as subscriber:
            subscriber.subscribe()
            recovered = subscriber.resync(sorted(traces))
            assert [e.seq for e in recovered] == [e.seq for e in live]
            more = subscriber.ingest("app-3", traces["app-3"][:30])
            last_before = max(e.seq for e in live if e.stream_id == "app-3")
            print(f"replayed {len(recovered)} events (identical seqs), "
                  f"gaps reported: {len(gaps)}; new events continue at "
                  f"seq {more[0].seq} (= {last_before} + 1)")
        second.stop()


if __name__ == "__main__":
    main()
