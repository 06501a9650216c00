"""The traced ``routed-event`` run proves which ``service`` path ran.

``DetectorPool.ingest_many`` hands an equal-length batch of at least
``soa_min_streams`` *fresh* streams to the event SoA bank.  The workload
creates every stream alone before the timed region, so its multi-stream
frames must run on per-stream engines: engine updates, no bank steps.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np

from perfbench import common, tracing, workloads


def test_fresh_equal_length_batch_takes_the_bank_path():
    """The counters can see the bank: the zero below is not blindness."""
    from repro.service.pool import DetectorPool, PoolConfig

    inputs = workloads._RoutedInputs(seed=5, duration=0.1)
    pool = DetectorPool(PoolConfig(mode="event", window_size=workloads.ROUTED_WINDOW))
    rec = tracing.Recorder()
    tracing.install_detection(rec)
    try:
        pool.ingest_many({inputs.ids[s]: inputs.samples(s, 0, 32) for s in range(4)})
    finally:
        rec.restore()
    names = tracing.layer_totals([rec.spans], 0.0, float("inf"))["names"]
    assert names["service.bank_step"]["calls"] == 32
    assert "core.update" not in names


def test_traced_routed_run_uses_per_stream_engines():
    seconds = 8
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "routed-event",
         "--seed", "7", "--seconds", str(seconds), "--trace", "1"],
        cwd=str(common.ROOT), capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}

    expected = (seconds / 2) * workloads.ROUTED_RATE
    assert metrics["service.bank_steps"] == 0
    assert metrics["service.bank_columns"] == 0
    assert np.isclose(metrics["core.update_calls"], expected, rtol=0.1)
    assert metrics["service.ingest_calls"] > 0
    # Server, router, persistence and client layers all saw the traffic.
    for name in ("server.detect_s", "router.forward_s", "client.wait_s",
                 "protocol.encode_bytes", "persistence.passes"):
        assert metrics[name] > 0, name
    assert 0 <= metrics["unattributed_s"] <= seconds / 2 + 1
