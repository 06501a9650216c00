"""Benchmark: single-stream hot-path latency and multi-stream pool throughput.

Two questions, answered with wall-clock numbers and emitted as JSON so
future PRs can track the performance trajectory:

1. **Single-stream per-sample latency** — the cost of one
   ``DynamicPeriodicityDetector.update()`` call, compared against the
   *seed* implementation (reconstructed below: it materialised the full
   data window via ``window_values()`` on every sample and rebuilt the
   AMDF sums with a Python loop over lags at every refresh boundary).
   The acceptance bar of the hot-path refactor is a >= 3x speedup.

2. **Pool throughput** — samples/second of one
   :class:`~repro.service.pool.DetectorPool` ingesting 1/100/1000
   concurrent synthetic streams, in both modes (magnitude and event), on
   both the per-stream engine path and the vectorised
   structure-of-arrays lockstep paths (``MagnitudeSoABank`` /
   ``EventSoABank``).  The lockstep rows force the bank via
   ``soa_min_streams=1`` so the crossover (which would route tiny fleets
   to per-stream engines) does not silently relabel what is measured.

3. **Sharded throughput** — the same workload through a
   :class:`~repro.service.sharding.ShardedDetectorPool` at several
   worker counts, with the machine's CPU count recorded alongside: the
   sharding speedup is only meaningful relative to the cores available
   (a 1-core container measures pure sharding overhead).

4. **Loopback-server throughput** — the same workload pushed through a
   live ``repro serve`` daemon over loopback TCP by the blocking client
   (pipelined chunked ingestion, and the lockstep frame), measuring the
   full network stack: framing, the asyncio frontend, the executor
   bridge and the reply path.  The delta against the matching in-process
   row is the cost of the network boundary.

5. **Mixed workload** — a magnitude fleet *and* an event fleet active
   simultaneously, each behind its own sharded loopback server, driven
   concurrently with chunked lockstep frames; run once synchronously and
   once with shard-ingest pipelining (``ShardingConfig.pipeline_depth``)
   so the pipelining win is measured end-to-end rather than in-process.

Besides the full trajectory JSON (``--json``), every run also writes a
compact top-level summary (``BENCH_multistream.json``: scenario ->
samples/s plus machine metadata and the git revision) so the
performance trajectory is one flat file diff per PR.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_multistream.py            # table
    PYTHONPATH=src python benchmarks/bench_multistream.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np

from repro import kernels
from repro.core.detector import DetectorConfig, DynamicPeriodicityDetector
from repro.service.pool import DetectorPool, PoolConfig
from repro.service.sharding import ShardedDetectorPool, ShardingConfig
from repro.traces.synthetic import noisy_periodic_signal, periodic_signal, repeat_pattern


def _seed_find_local_minima(profile, *, min_lag=1):
    """The seed repo's minima search: a Python loop over every lag."""
    from repro.core.minima import PeriodCandidate

    profile = np.asarray(profile, dtype=float)
    finite_mask = np.isfinite(profile)
    if not np.any(finite_mask):
        return []
    mean = float(profile[finite_mask].mean())
    candidates = []
    lags = np.nonzero(finite_mask)[0]
    lags = lags[lags >= min_lag]
    if lags.size == 0:
        return []
    lag_set = set(int(l) for l in lags)
    for lag in lags:
        value = profile[lag]
        left = profile[lag - 1] if (lag - 1) in lag_set else np.inf
        right = profile[lag + 1] if (lag + 1) in lag_set else np.inf
        if value <= left and value <= right:
            if (lag - 1) in lag_set and profile[lag - 1] == value and left <= right:
                continue
            depth = 1.0 - (value / mean) if mean > 0 else (1.0 if value == 0 else 0.0)
            candidates.append(
                PeriodCandidate(lag=int(lag), distance=float(value), depth=float(depth))
            )
    return candidates


def _seed_select_period(profile, *, min_lag, min_depth, harmonic_tolerance):
    from repro.core.minima import filter_harmonics

    candidates = _seed_find_local_minima(profile, min_lag=min_lag)
    candidates = [c for c in candidates if c.depth >= min_depth]
    if not candidates:
        return None
    candidates = filter_harmonics(candidates, tolerance=harmonic_tolerance)
    if not candidates:
        return None
    return min(candidates, key=lambda c: (-c.depth, c.lag))


class SeedDynamicPeriodicityDetector(DynamicPeriodicityDetector):
    """The seed repo's hot path, for the before/after comparison.

    Reconstructs the original per-sample cost profile: a full
    ``window_values()`` materialisation (O(N) concatenate) plus
    fancy-indexed sum updates on every sample, a Python loop over all
    lags in ``_rebuild_sums``, and the Python-loop local-minimum search
    in the per-sample profile evaluation.  Detection *semantics* are
    identical, so the measured difference is purely implementation cost.
    """

    def _evaluate(self):
        profile = self._incremental_profile()
        candidate = _seed_select_period(
            profile,
            min_lag=self.config.min_lag,
            min_depth=self.config.min_depth,
            harmonic_tolerance=self.config.harmonic_tolerance,
        )
        if candidate is None:
            return None
        if self._fill < self.config.min_repetitions * candidate.lag:
            return None
        return candidate

    def update(self, sample):
        from repro.core.engine import DetectionResult

        sample = float(sample)
        self._index += 1
        self._samples_since_growth += 1

        window_before = self.window_values()
        evicted = None
        if self._fill == self._window_size:
            evicted = float(self._buffers[0, self._head])

        if window_before.size:
            m = min(self._max_lag, window_before.size)
            recent = window_before[::-1][:m]
            lags = np.arange(1, m + 1)
            self._sums[0, lags] += np.abs(sample - recent)
        if evicted is not None and window_before.size:
            m = min(self._max_lag, window_before.size - 1)
            if m >= 1:
                oldest_next = window_before[1 : m + 1]
                lags = np.arange(1, m + 1)
                self._sums[0, lags] -= np.abs(oldest_next - evicted)

        self._buffers[0, self._head] = sample
        self._head = (self._head + 1) % self._window_size
        if self._fill < self._window_size:
            self._fill += 1

        self._since_refresh += 1
        if self._since_refresh >= self.config.refresh_interval:
            self._rebuild_sums()

        new_detection = False
        ready = self._fill >= max(
            2 * self.config.min_lag, min(self.config.min_fill, self._window_size)
        )
        if (self._index % self.config.evaluation_interval) == 0 and ready:
            candidate = self._evaluate()
            new_detection = self._lock.apply(candidate, self._index)
            if new_detection:
                self._maybe_shrink_window(self._lock.period)

        return DetectionResult(
            index=self._index,
            period=self._lock.period,
            is_period_start=self._lock.is_period_start(self._index),
            new_detection=new_detection,
            confidence=self._lock.confidence,
        )

    def _rebuild_sums(self):
        window = self.window_values()
        self._sums = np.zeros((1, self._max_lag + 1), dtype=np.float64)
        for lag in range(1, min(self._max_lag, window.size - 1) + 1):
            self._sums[0, lag] = float(np.abs(window[lag:] - window[:-lag]).sum())
        self._since_refresh = 0


def _time_single_stream(detector_cls, config, trace, repeats=3) -> float:
    """Best-of-``repeats`` per-sample latency in microseconds."""
    best = float("inf")
    for _ in range(repeats):
        det = detector_cls(config)
        update = det.update
        started = time.perf_counter()
        for value in trace:
            update(value)
        best = min(best, (time.perf_counter() - started) / trace.size)
    return best * 1e6


def bench_single_stream(samples: int = 2048, window: int = 1024) -> dict:
    """Seed vs current per-sample latency on one magnitude stream.

    Two scenarios:

    * ``default`` — the paper's Table-1 behaviour (profile evaluated on
      every sample, the library default).  This is the per-sample DPD
      cost an interposed application pays.
    * ``streaming`` — evaluation every 16 samples, isolating the window /
      sums bookkeeping plus the periodic exact refresh.
    """
    trace = noisy_periodic_signal(37, samples, noise_std=0.05, seed=0)
    scenarios = {}
    for name, evaluation_interval, seed_repeats in (
        ("default", 1, 1),
        ("streaming", 16, 3),
    ):
        config = DetectorConfig(window_size=window, evaluation_interval=evaluation_interval)
        seed_us = _time_single_stream(
            SeedDynamicPeriodicityDetector, config, trace, repeats=seed_repeats
        )
        new_us = _time_single_stream(DynamicPeriodicityDetector, config, trace)
        scenarios[name] = {
            "evaluation_interval": evaluation_interval,
            "seed_us_per_sample": round(seed_us, 3),
            "new_us_per_sample": round(new_us, 3),
            "speedup": round(seed_us / new_us, 2),
        }
    # Sanity: both implementations must detect identically.
    config = DetectorConfig(window_size=window)
    a = SeedDynamicPeriodicityDetector(config)
    b = DynamicPeriodicityDetector(config)
    assert [r.period for r in a.process(trace)] == [r.period for r in b.process(trace)]
    return {"samples": samples, "window": window, "scenarios": scenarios}


def _pool_workload(mode: str, streams: int, samples: int, window: int):
    """Synthetic traces with known periods plus the pool configuration."""
    periods = [4 + (i % 29) for i in range(streams)]
    if mode == "magnitude":
        traces = {
            f"s{i:04d}": periodic_signal(periods[i], samples, seed=i)
            for i in range(streams)
        }
        config = PoolConfig(
            mode="magnitude",
            soa_min_streams=1,
            detector_config=DetectorConfig(window_size=window, evaluation_interval=8),
        )
    else:
        traces = {
            f"s{i:04d}": repeat_pattern(1000 * (i + 1) + np.arange(periods[i]), samples)
            for i in range(streams)
        }
        config = PoolConfig(mode="event", window_size=window, soa_min_streams=1)
    return traces, periods, config


#: Samples per ingest call in the chunked round-robin measurements.
_BENCH_CHUNK = 128


def _tls_cert_pair() -> tuple[str, str]:
    """Certificate/key for the TLS loopback row.

    Prefers the committed localhost test fixture
    (``tests/server/certs/``); falls back to generating a throwaway
    self-signed pair with ``openssl`` so the benchmark also runs from a
    source tree without the test suite checked out.
    """
    base = os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        os.pardir, "tests", "server", "certs",
    )
    cert = os.path.join(base, "server.pem")
    key = os.path.join(base, "server.key")
    if os.path.exists(cert) and os.path.exists(key):
        return cert, key
    import tempfile

    tmp = tempfile.mkdtemp(prefix="repro-bench-tls-")
    cert = os.path.join(tmp, "server.pem")
    key = os.path.join(tmp, "server.key")
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "rsa:2048", "-nodes",
         "-days", "36500", "-subj", "/CN=localhost",
         "-addext", "subjectAltName=DNS:localhost,IP:127.0.0.1",
         "-keyout", key, "-out", cert],
        check=True, capture_output=True,
    )
    return cert, key


def _timed_run(pool, traces, periods, samples, lockstep: bool, sharded: bool):
    """Shared measurement loop: returns ``(elapsed_s, correct_locks)``.

    Single source of truth for what a pool row measures, so the sharded
    ``workers=1`` baseline is guaranteed to run the exact same loop as
    the single-process rows it is compared against.  Sharded rows ingest
    in chunks (ingest_many, or chunked ingest_lockstep so consecutive
    calls can pipeline) and end with the terminal ``flush()`` — a no-op
    at pipeline_depth 0.
    """
    started = time.perf_counter()
    if sharded:
        for offset in range(0, samples, _BENCH_CHUNK):
            chunk = {sid: v[offset : offset + _BENCH_CHUNK] for sid, v in traces.items()}
            if lockstep:
                pool.ingest_lockstep(chunk)
            else:
                pool.ingest_many(chunk)
        pool.flush()
    elif lockstep:
        pool.ingest_lockstep(traces)
    else:
        for offset in range(0, samples, _BENCH_CHUNK):
            for sid, values in traces.items():
                pool.ingest(sid, values[offset : offset + _BENCH_CHUNK])
    elapsed = time.perf_counter() - started
    correct = sum(
        1 for i, sid in enumerate(traces) if pool.current_period(sid) == periods[i]
    )
    return elapsed, correct


def bench_pool(
    streams: int, samples: int, window: int = 128, lockstep: bool = False,
    mode: str = "magnitude",
) -> dict:
    """Pool throughput ingesting ``streams`` concurrent synthetic streams."""
    traces, periods, config = _pool_workload(mode, streams, samples, window)
    pool = DetectorPool(config)
    elapsed, correct = _timed_run(pool, traces, periods, samples, lockstep, False)
    total = streams * samples
    stats = pool.stats()
    if lockstep:
        backend = f"{stats.lockstep_backend}-lockstep"
    else:
        backend = "per-stream-engines"
    return {
        "streams": streams,
        "samples_per_stream": samples,
        "window": window,
        "mode": mode,
        "backend": backend,
        "kernel_backend": stats.kernel_backend,
        "elapsed_s": round(elapsed, 3),
        "samples_per_s": round(total / elapsed),
        "correct_locks": correct,
    }


def bench_sharded(
    streams: int, samples: int, workers: int, window: int = 128,
    mode: str = "magnitude", lockstep: bool = False, pipeline_depth: int = 0,
) -> dict:
    """Sharded-pool throughput on the :func:`bench_pool` workload.

    ``workers=1`` measures the single-process pool as the baseline the
    sharding acceptance criterion compares against; a positive
    ``pipeline_depth`` pipelines consecutive shard ingests (the parent's
    next ring write overlaps worker detection).
    """
    traces, periods, config = _pool_workload(mode, streams, samples, window)
    if workers == 1:
        pool = DetectorPool(config)
        elapsed, correct = _timed_run(pool, traces, periods, samples, lockstep, False)
    else:
        pool = ShardedDetectorPool(
            config, ShardingConfig(workers=workers, pipeline_depth=pipeline_depth)
        )
        try:
            elapsed, correct = _timed_run(pool, traces, periods, samples, lockstep, True)
        finally:
            pool.close()
    total = streams * samples
    ingest = "lockstep" if lockstep else "round-robin"
    if pipeline_depth:
        ingest += f"-pipelined x{pipeline_depth}"
    return {
        "streams": streams,
        "samples_per_stream": samples,
        "window": window,
        "mode": mode,
        "kernel_backend": kernels.backend_name(),
        "workers": workers,
        "pipeline_depth": pipeline_depth,
        "ingest": ingest,
        "elapsed_s": round(elapsed, 3),
        "samples_per_s": round(total / elapsed),
        "correct_locks": correct,
    }


def bench_loopback_server(
    streams: int, samples: int, window: int = 128, mode: str = "magnitude",
    lockstep: bool = False, pipeline_window: int = 8, profile: bool = False,
    tls: bool = False,
) -> dict:
    """Throughput of the :func:`bench_pool` workload over loopback TCP.

    Hosts a single-process pool behind a
    :class:`~repro.server.server.DetectionServer` in a daemon thread and
    drives it with the blocking :class:`~repro.server.client.DetectionClient`
    — chunked ``ingest_many`` frames kept ``pipeline_window`` deep to
    hide round trips, or one ``LOCKSTEP_HOT`` matrix frame.

    With ``tls=True`` the server terminates TLS (the committed localhost
    test certificate) and the client connects via ``repros://`` pinning
    that certificate as its CA — the same bytes through an encrypted
    transport, so the delta against the matching plaintext row is the
    cost of record-layer encryption on the hot path.

    With ``profile=True`` the row additionally records the server's
    per-layer time breakdown (frame encode / socket syscalls /
    dispatcher / detection / fan-out, DFAnalyzer-style) for exactly this
    run — the STATS profile counters diffed across the timed region — so
    a wire-path win or regression is attributable to its layer.
    """
    from repro.server.client import DetectionClient
    from repro.server.server import ServerConfig, ServerThread

    traces, periods, config = _pool_workload(mode, streams, samples, window)
    server_config = None
    scheme = "repro"
    query = ""
    if tls:
        cert, cert_key = _tls_cert_pair()
        server_config = ServerConfig(tls_cert=cert, tls_key=cert_key)
        scheme = "repros"
        query = f"?ca={cert}"
    with ServerThread(DetectorPool(config), server_config) as (host, port):
        endpoint = f"{scheme}://{host}:{port}{query}"
        with DetectionClient(endpoint, namespace="bench") as client:
            before = client.stats()["server"] if profile else None
            started = time.perf_counter()
            if lockstep:
                client.ingest_lockstep(traces)
            else:
                chunks = (
                    {sid: v[offset : offset + _BENCH_CHUNK] for sid, v in traces.items()}
                    for offset in range(0, samples, _BENCH_CHUNK)
                )
                client.pipeline(chunks, window=pipeline_window)
            elapsed = time.perf_counter() - started
            layers = None
            counters = None
            if profile:
                after = client.stats()["server"]
                layers = {
                    layer: round(after["profile"][layer] - before["profile"][layer], 4)
                    for layer in after["profile"]
                }
                # Client-side work and the wire itself: whatever the
                # server's own layers cannot account for.
                layers["unattributed"] = round(elapsed - sum(layers.values()), 4)
                counters = {
                    "coalesce": after["coalesce"],
                    "writer": after["writer"],
                    "protocol": after["protocol"]["connection"],
                }
            remote_periods = client.stats(periods=True)["periods"]
    correct = sum(
        1 for i, sid in enumerate(traces) if remote_periods.get(sid) == periods[i]
    )
    total = streams * samples
    ingest = "lockstep" if lockstep else f"pipelined x{pipeline_window}"
    if tls:
        # Distinct label on purpose: trajectory keys and the CI smoke
        # lookup match the plaintext row by the exact string "lockstep".
        ingest += "-tls"
    row = {
        "streams": streams,
        "samples_per_stream": samples,
        "window": window,
        "mode": mode,
        "transport": "loopback-tls" if tls else "loopback-tcp",
        "ingest": ingest,
        "elapsed_s": round(elapsed, 3),
        "samples_per_s": round(total / elapsed),
        "correct_locks": correct,
    }
    if layers is not None:
        row["profile_s"] = layers
        row["server_counters"] = counters
    return row


def bench_checkpoint_loopback(
    streams: int, samples: int, window: int = 128, checkpoint_interval: float = 0.25,
) -> dict:
    """Background-checkpointing overhead on the loopback lockstep path.

    Runs the :func:`bench_loopback_server` magnitude workload twice in
    the same process — once fully in-memory, once with ``--state-dir``
    durability active (a real checkpoint store on disk, passes firing
    mid-run) — and reports the throughput ratio.  The durable run uses
    chunked lockstep frames so the interval-driven passes genuinely
    interleave with ingestion; the in-memory baseline runs the identical
    loop.  The acceptance bar of the durable-state subsystem is a ratio
    >= 0.9 (checkpointing within noise of the same-run baseline); the
    graceful-stop final pass runs outside the timed region, exactly as a
    deployment would experience it.  The short default interval makes
    full-fleet passes genuinely land inside the timed window (the row
    records how many completed, and how many streams/bytes they wrote).
    """
    import tempfile

    from repro.server.client import DetectionClient
    from repro.server.server import ServerConfig, ServerThread

    traces, periods, config = _pool_workload("magnitude", streams, samples, window)

    def run(server_config: ServerConfig | None):
        with ServerThread(DetectorPool(config), server_config) as (host, port):
            with DetectionClient(f"repro://{host}:{port}", namespace="bench") as client:
                started = time.perf_counter()
                for offset in range(0, samples, _BENCH_CHUNK):
                    client.ingest_lockstep(
                        {sid: v[offset : offset + _BENCH_CHUNK] for sid, v in traces.items()}
                    )
                elapsed = time.perf_counter() - started
                stats = client.stats()["server"].get("checkpoint")
        return elapsed, stats

    baseline_s, _ = run(None)
    with tempfile.TemporaryDirectory(prefix="repro-bench-ckpt-") as state_dir:
        durable_s, ckpt = run(
            ServerConfig(state_dir=state_dir, checkpoint_interval=checkpoint_interval)
        )
    total = streams * samples
    baseline_rate = total / baseline_s
    durable_rate = total / durable_s
    return {
        "streams": streams,
        "samples_per_stream": samples,
        "window": window,
        "mode": "magnitude",
        "transport": "loopback-tcp",
        "ingest": "chunked-lockstep",
        "checkpoint_interval_s": checkpoint_interval,
        "baseline_samples_per_s": round(baseline_rate),
        "durable_samples_per_s": round(durable_rate),
        "overhead_ratio": round(durable_rate / baseline_rate, 3),
        "checkpoint_passes": ckpt["passes"],
        "checkpoint_streams_written": ckpt["streams_written"],
        "checkpoint_bytes_written": ckpt["bytes_written"],
    }


def bench_mixed_loopback(
    streams_each: int, samples: int, window: int = 128, workers: int = 2,
    pipeline_depth: int = 0,
) -> dict:
    """Magnitude + event fleets active simultaneously, sharded, over TCP.

    Each mode gets its own sharded pool behind its own loopback
    ``DetectionServer``; two driver threads push chunked
    ``LOCKSTEP_HOT`` frames concurrently, so both SoA banks are hot at
    once and the measurement covers the full stack end-to-end: framing,
    the asyncio frontend, the executor bridge, the shard rings and — with
    ``pipeline_depth`` — the cross-call shard ingest pipelining (the
    synchronous run of the same scenario is the baseline the pipelining
    win is read against).
    """
    from repro.server.client import DetectionClient
    from repro.server.server import ServerThread, build_pool

    workloads = {
        mode: _pool_workload(mode, streams_each, samples, window)
        for mode in ("magnitude", "event")
    }
    correct: dict[str, int] = {}
    errors: list[tuple[str, Exception]] = []

    def drive(mode: str, host: str, port: int) -> None:
        traces, periods, _config = workloads[mode]
        try:
            with DetectionClient(f"repro://{host}:{port}", namespace="bench") as client:
                for offset in range(0, samples, _BENCH_CHUNK):
                    client.ingest_lockstep(
                        {sid: v[offset : offset + _BENCH_CHUNK] for sid, v in traces.items()}
                    )
                remote = client.stats(periods=True)["periods"]
            correct[mode] = sum(
                1 for i, sid in enumerate(traces) if remote.get(sid) == periods[i]
            )
        except Exception as exc:  # surfaced after the join below
            errors.append((mode, exc))

    servers: list[ServerThread] = []
    try:
        addresses = {}
        for mode, (_traces, _periods, config) in workloads.items():
            server = ServerThread(
                build_pool(config, workers=workers, pipeline_depth=pipeline_depth)
            )
            servers.append(server)
            addresses[mode] = server.start()
        started = time.perf_counter()
        drivers = [
            threading.Thread(target=drive, args=(mode, *addresses[mode]), daemon=True)
            for mode in workloads
        ]
        for thread in drivers:
            thread.start()
        for thread in drivers:
            thread.join()
        elapsed = time.perf_counter() - started
    finally:
        for server in servers:
            server.stop()
    if errors:
        mode, exc = errors[0]
        raise RuntimeError(f"mixed-workload driver for {mode} failed: {exc}") from exc
    total = 2 * streams_each * samples
    return {
        "streams_each": streams_each,
        "samples_per_stream": samples,
        "window": window,
        "workers": workers,
        "pipeline_depth": pipeline_depth,
        "transport": "loopback-tcp",
        "ingest": "chunked-lockstep",
        "elapsed_s": round(elapsed, 3),
        "samples_per_s": round(total / elapsed),
        "correct_locks": sum(correct.values()),
        "total_streams": 2 * streams_each,
    }


def bench_router_lockstep(
    streams: int, samples: int, window: int = 128, mode: str = "magnitude",
    backends: int = 2, profile: bool = False,
) -> dict:
    """The loopback lockstep workload through the router tier.

    Hosts ``backends`` single-process loopback servers behind one
    :class:`~repro.server.router.RouterThread` and pushes the
    :func:`bench_loopback_server` lockstep matrix at the router.  Read
    against the same-run direct-server lockstep row: the 1-backend ratio
    is the pure routing overhead (hash partition + row slice + one extra
    hop, no JSON anywhere on the path), and the 2-backend row checks the
    split-forwarding fans out concurrently instead of serialising the
    backends.

    With ``profile=True`` the row records the router's per-layer
    breakdown (partition/slice, awaiting backends, upstream encode,
    socket writes, event fan-in) diffed across the timed region.
    """
    from repro.server.client import DetectionClient
    from repro.server.router import RouterThread
    from repro.server.server import ServerThread

    traces, periods, config = _pool_workload(mode, streams, samples, window)
    servers = [ServerThread(DetectorPool(config)) for _ in range(backends)]
    try:
        addresses = ["%s:%d" % server.start() for server in servers]
        with RouterThread(addresses) as (host, port):
            with DetectionClient(f"repro://{host}:{port}", namespace="bench") as client:
                before = client.stats()["server"] if profile else None
                started = time.perf_counter()
                client.ingest_lockstep(traces)
                elapsed = time.perf_counter() - started
                layers = None
                counters = None
                if profile:
                    after = client.stats()["server"]
                    layers = {
                        layer: round(
                            after["profile"][layer] - before["profile"][layer], 4
                        )
                        for layer in after["profile"]
                    }
                    # Backend detection work hides inside "forward";
                    # the remainder is client-side work and the wire.
                    layers["unattributed"] = round(elapsed - sum(layers.values()), 4)
                    counters = {
                        "router": after["router"],
                        "protocol": after["protocol"]["connection"],
                    }
                remote_periods = client.stats(periods=True)["periods"]
    finally:
        for server in servers:
            server.stop()
    correct = sum(
        1 for i, sid in enumerate(traces) if remote_periods.get(sid) == periods[i]
    )
    total = streams * samples
    row = {
        "streams": streams,
        "samples_per_stream": samples,
        "window": window,
        "mode": mode,
        "backends": backends,
        "transport": "routed-tcp",
        "ingest": "lockstep",
        "elapsed_s": round(elapsed, 3),
        "samples_per_s": round(total / elapsed),
        "correct_locks": correct,
    }
    if layers is not None:
        row["profile_s"] = layers
        row["router_counters"] = counters
    return row


def bench_router_mixed(
    streams_each: int, samples: int, window: int = 128, backends: int = 2,
) -> dict:
    """The mixed magnitude + event workload, each fleet behind a router.

    The router twin of :func:`bench_mixed_loopback`: per mode one router
    fronts ``backends`` single-process loopback servers, and two driver
    threads push chunked lockstep frames concurrently.  Every frame is
    hash-split across that mode's backends, so the measurement covers
    hot-frame slicing, concurrent split-forwarding and reply fan-in
    under simultaneous heterogeneous load.
    """
    from repro.server.client import DetectionClient
    from repro.server.router import RouterThread
    from repro.server.server import ServerThread

    workloads = {
        mode: _pool_workload(mode, streams_each, samples, window)
        for mode in ("magnitude", "event")
    }
    correct: dict[str, int] = {}
    errors: list[tuple[str, Exception]] = []

    def drive(mode: str, host: str, port: int) -> None:
        traces, periods, _config = workloads[mode]
        try:
            with DetectionClient(f"repro://{host}:{port}", namespace="bench") as client:
                for offset in range(0, samples, _BENCH_CHUNK):
                    client.ingest_lockstep(
                        {sid: v[offset : offset + _BENCH_CHUNK] for sid, v in traces.items()}
                    )
                remote = client.stats(periods=True)["periods"]
            correct[mode] = sum(
                1 for i, sid in enumerate(traces) if remote.get(sid) == periods[i]
            )
        except Exception as exc:  # surfaced after the join below
            errors.append((mode, exc))

    servers: list = []
    routers: list = []
    try:
        addresses = {}
        for mode, (_traces, _periods, config) in workloads.items():
            nodes = []
            for _ in range(backends):
                server = ServerThread(DetectorPool(config))
                servers.append(server)
                nodes.append("%s:%d" % server.start())
            router = RouterThread(nodes)
            routers.append(router)
            addresses[mode] = router.start()
        started = time.perf_counter()
        drivers = [
            threading.Thread(target=drive, args=(mode, *addresses[mode]), daemon=True)
            for mode in workloads
        ]
        for thread in drivers:
            thread.start()
        for thread in drivers:
            thread.join()
        elapsed = time.perf_counter() - started
    finally:
        for router in routers:
            router.stop()
        for server in servers:
            server.stop()
    if errors:
        mode, exc = errors[0]
        raise RuntimeError(f"routed mixed driver for {mode} failed: {exc}") from exc
    total = 2 * streams_each * samples
    return {
        "streams_each": streams_each,
        "samples_per_stream": samples,
        "window": window,
        "backends": backends,
        "transport": "routed-tcp",
        "ingest": "chunked-lockstep",
        "elapsed_s": round(elapsed, 3),
        "samples_per_s": round(total / elapsed),
        "correct_locks": sum(correct.values()),
        "total_streams": 2 * streams_each,
    }


def _git_rev() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, cwd=os.path.dirname(os.path.abspath(__file__)),
            timeout=10,
        )
        return proc.stdout.strip() or None
    except Exception:
        return None


def write_summary(results: dict, path: str) -> dict:
    """Compact trajectory summary: one flat scenario -> samples/s map."""

    def put(key: str, value) -> None:
        scenarios[key.replace(" ", "")] = value

    scenarios: dict[str, float] = {}
    for name, row in results["single_stream"]["scenarios"].items():
        put(f"single_{name}_us_per_sample", row["new_us_per_sample"])
    for row in results.get("pool", ()):
        key = f"pool_{row['mode']}_{row['streams']}_{row['backend']}"
        # Compiled-kernel runs get their own trajectory rows (e.g.
        # pool_magnitude_1000_soa-lockstep-numba); the unsuffixed keys
        # keep meaning the NumPy-kernel baseline.
        if row.get("kernel_backend") == "numba":
            key += "-numba"
        put(key, row["samples_per_s"])
    for row in results.get("sharded", ()):
        key = f"sharded_{row['mode']}_{row['streams']}_{row['workers']}w_{row['ingest']}"
        put(key, row["samples_per_s"])
    for row in results.get("server", ()):
        key = f"server_{row['mode']}_{row['streams']}_{row['ingest']}"
        put(key, row["samples_per_s"])
    for row in results.get("checkpoint", ()):
        put(f"server_durable_{row['streams']}_lockstep", row["durable_samples_per_s"])
        put(f"server_durable_{row['streams']}_overhead_ratio", row["overhead_ratio"])
    for row in results.get("mixed", ()):
        put(
            f"mixed_{row['streams_each']}x2_{row['workers']}w_"
            f"depth{row['pipeline_depth']}",
            row["samples_per_s"],
        )
    for row in results.get("router", ()):
        if "streams_each" in row:
            put(
                f"router_mixed_{row['streams_each']}x2_"
                f"{row['backends']}backend",
                row["samples_per_s"],
            )
        else:
            # The 2-backend row is the canonical cluster scenario; the
            # 1-backend row carries a suffix (it measures pure routing
            # overhead against the direct-server lockstep row).
            key = f"router_{row['mode']}_{row['streams']}_{row['ingest']}"
            if row["backends"] != 2:
                key += f"_{row['backends']}backend"
            put(key, row["samples_per_s"])
    summary = {
        "machine": results["machine"],
        "git_rev": _git_rev(),
        "kernel_backend": results.get("kernel_backend"),
        "scenarios": scenarios,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(summary, indent=2) + "\n")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the results as JSON to PATH ('-' for stdout)")
    parser.add_argument("--summary", metavar="PATH",
                        default=os.path.join(
                            os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "BENCH_multistream.json",
                        ),
                        help="write the compact trajectory summary here "
                             "(default: top-level BENCH_multistream.json; 'none' to skip)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller sizes (CI smoke run)")
    parser.add_argument("--profile", action="store_true",
                        help="record the server scenarios' per-layer time "
                             "breakdown (encode/syscall/dispatch/detect/fan-out)"
                             " into the JSON results")
    parser.add_argument("--kernels", choices=["auto", "numba", "numpy", "python"],
                        default=None,
                        help="force the repro.kernels backend for this run "
                             "(default: honour REPRO_KERNELS / auto)")
    args = parser.parse_args(argv)

    if args.kernels:
        # Export too, so sharded workers resolve the same backend.
        os.environ[kernels.ENV_VAR] = args.kernels
        kernels.set_backend(args.kernels)
    # Pre-JIT outside every timed region: a production deployment warms
    # up at spawn, so the benchmark should never time a compile.
    kernel_backend = kernels.warmup()

    single_samples = 1024 if args.quick else 2048
    pool_samples = 256 if args.quick else 512
    pool_sizes = [1, 100] if args.quick else [1, 100, 1000]
    sharded_streams = 100 if args.quick else 1000
    sharded_samples = 256 if args.quick else 512
    worker_counts = [1, 2] if args.quick else [1, 2, 4]

    results = {
        "machine": {
            "cpu_count": os.cpu_count(),
            "sched_affinity": (
                len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
            ),
        },
        "kernel_backend": kernel_backend,
        "single_stream": bench_single_stream(samples=single_samples),
    }
    print(f"machine: {results['machine']['cpu_count']} CPUs, "
          f"kernels: {kernel_backend}")
    print("single-stream per-sample latency (window "
          f"{results['single_stream']['window']}):")
    for name, row in results["single_stream"]["scenarios"].items():
        print(f"  {name:10s} (eval every {row['evaluation_interval']:2d}): "
              f"seed {row['seed_us_per_sample']:9.2f} us   "
              f"current {row['new_us_per_sample']:8.2f} us   "
              f"speedup {row['speedup']:6.2f} x")

    results["pool"] = []
    for mode in ("magnitude", "event"):
        print(f"\npool throughput ({mode}, window 128):")
        for streams in pool_sizes:
            for lockstep in (False, True):
                row = bench_pool(streams, pool_samples, lockstep=lockstep, mode=mode)
                results["pool"].append(row)
                print(f"  {row['streams']:5d} streams  {row['backend']:21s} "
                      f"{row['samples_per_s']:>12,} samples/s  "
                      f"(locks {row['correct_locks']}/{row['streams']})")

    results["sharded"] = []
    print(f"\nsharded pool throughput (magnitude, {sharded_streams} streams, "
          f"round-robin; workers=1 is the single-process baseline):")
    baseline = None
    for workers in worker_counts:
        depths = (0,) if workers == 1 else (0, 8)
        for depth in depths:
            row = bench_sharded(
                sharded_streams, sharded_samples, workers, pipeline_depth=depth
            )
            results["sharded"].append(row)
            if workers == 1:
                baseline = row["samples_per_s"]
            speedup = row["samples_per_s"] / baseline if baseline else float("nan")
            row["speedup_vs_single"] = round(speedup, 2)
            print(f"  workers={workers} {row['ingest']:24s} "
                  f"{row['samples_per_s']:>12,} samples/s  "
                  f"({speedup:4.2f}x vs single, locks {row['correct_locks']}/{row['streams']})")

    results["server"] = []
    server_streams = 100 if args.quick else 1000
    server_samples = 256 if args.quick else 512
    print(f"\nloopback-server throughput (magnitude, {server_streams} streams, "
          f"over the wire vs the in-process pool rows above):")
    for lockstep in (False, True):
        row = bench_loopback_server(
            server_streams, server_samples, lockstep=lockstep, profile=args.profile
        )
        results["server"].append(row)
        print(f"  {row['ingest']:14s}  {row['samples_per_s']:>12,} samples/s  "
              f"(locks {row['correct_locks']}/{row['streams']})")
        if args.profile:
            layers = "  ".join(
                f"{layer} {seconds:.3f}s"
                for layer, seconds in row["profile_s"].items()
            )
            print(f"    layers: {layers}")
    tls_row = bench_loopback_server(
        server_streams, server_samples, lockstep=True, tls=True
    )
    results["server"].append(tls_row)
    print(f"  {tls_row['ingest']:14s}  {tls_row['samples_per_s']:>12,} samples/s  "
          f"(locks {tls_row['correct_locks']}/{tls_row['streams']})")

    results["checkpoint"] = []
    print(f"\ncheckpointing overhead (magnitude, {server_streams} streams, "
          f"chunked lockstep over loopback, durable vs in-memory same-run):")
    row = bench_checkpoint_loopback(server_streams, server_samples)
    results["checkpoint"].append(row)
    print(f"  in-memory         {row['baseline_samples_per_s']:>12,} samples/s")
    print(f"  --state-dir       {row['durable_samples_per_s']:>12,} samples/s  "
          f"(ratio {row['overhead_ratio']:.3f}, {row['checkpoint_passes']} passes, "
          f"{row['checkpoint_bytes_written']:,} bytes)")

    results["mixed"] = []
    mixed_streams = 100 if args.quick else 1000
    mixed_samples = 256 if args.quick else 512
    print(f"\nmixed workload (magnitude + event, {mixed_streams} streams each, "
          f"sharded x2 behind two loopback servers, chunked lockstep):")
    for depth in (0, 8):
        row = bench_mixed_loopback(
            mixed_streams, mixed_samples, pipeline_depth=depth
        )
        results["mixed"].append(row)
        label = f"pipeline_depth={depth}" if depth else "synchronous"
        print(f"  {label:18s}  {row['samples_per_s']:>12,} samples/s  "
              f"(locks {row['correct_locks']}/{row['total_streams']})")

    results["router"] = []
    router_streams = 100 if args.quick else 1000
    router_samples = 256 if args.quick else 512
    direct_row = next(
        r for r in results["server"]
        if r["ingest"] == "lockstep" and r["mode"] == "magnitude"
    )
    print(f"\nrouter-tier throughput (magnitude, {router_streams} streams, one "
          f"lockstep matrix through `repro route`; read against the direct-server "
          f"lockstep row, same run):")
    router_rows = {}
    for backends in (1, 2):
        row = bench_router_lockstep(
            router_streams, router_samples, backends=backends, profile=args.profile
        )
        results["router"].append(row)
        router_rows[backends] = row
        ratio = row["samples_per_s"] / direct_row["samples_per_s"]
        row["ratio_vs_direct"] = round(ratio, 3)
        print(f"  {backends} backend{'s' if backends > 1 else ' '}       "
              f"{row['samples_per_s']:>12,} samples/s  "
              f"({ratio:4.2f}x direct, locks {row['correct_locks']}/{row['streams']})")
        if args.profile:
            layers = "  ".join(
                f"{layer} {seconds:.3f}s"
                for layer, seconds in row["profile_s"].items()
            )
            print(f"    layers: {layers}")
    row = bench_router_mixed(router_streams, router_samples)
    results["router"].append(row)
    print(f"  mixed x2 fleets   {row['samples_per_s']:>12,} samples/s  "
          f"(2 routers x 2 backends, locks {row['correct_locks']}/{row['total_streams']})")

    if args.json:
        payload = json.dumps(results, indent=2)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as fh:
                fh.write(payload + "\n")
            print(f"\nwrote {args.json}")
    if args.summary and args.summary != "none":
        write_summary(results, args.summary)
        print(f"wrote {args.summary}")

    ok = results["single_stream"]["scenarios"]["default"]["speedup"] >= 3.0
    if not ok:
        print("\nWARNING: hot-path speedup below the 3x acceptance bar", file=sys.stderr)
    # The SoA lockstep backend must beat per-stream engines at the largest
    # magnitude fleet measured (the bank is the multi-stream scaling story).
    magnitude_rows = [r for r in results["pool"] if r["mode"] == "magnitude"]
    largest = max(r["streams"] for r in magnitude_rows)
    by_backend = {
        r["backend"]: r["samples_per_s"]
        for r in magnitude_rows if r["streams"] == largest
    }
    soa = by_backend.get("soa-lockstep", 0)
    per_stream = by_backend.get("per-stream-engines", 0)
    if soa <= per_stream:
        print(f"\nWARNING: magnitude SoA bank ({soa:,} samples/s) does not beat "
              f"per-stream engines ({per_stream:,} samples/s) at {largest} streams",
              file=sys.stderr)
        ok = False
    # Durability must be within noise of the same-run in-memory baseline.
    for row in results["checkpoint"]:
        if row["overhead_ratio"] < 0.9:
            print(f"\nWARNING: checkpointing overhead ratio "
                  f"{row['overhead_ratio']:.3f} below the 0.9 acceptance bar "
                  f"at {row['streams']} streams", file=sys.stderr)
            ok = False
    # Router-tier acceptance, same-run: fronting one backend must keep
    # >= 80% of direct-server lockstep throughput (routing overhead),
    # and adding a backend must not serialise them (>= the 1-backend
    # row, with a small allowance for run-to-run noise — see ROADMAP on
    # single-core container variance).
    one = router_rows[1]["samples_per_s"]
    two = router_rows[2]["samples_per_s"]
    if one < 0.8 * direct_row["samples_per_s"]:
        print(f"\nWARNING: router+1-backend throughput ({one:,} samples/s) "
              f"below 80% of direct server "
              f"({direct_row['samples_per_s']:,} samples/s)", file=sys.stderr)
        ok = False
    # On >= 2 CPUs the backends genuinely run in parallel, so splitting
    # must not lose throughput.  A single-core machine cannot exhibit
    # that parallelism — there the 2-backend row measures pure split
    # overhead (slice copy + second connection + thread switching), and
    # the bar only rejects outright serialisation pathologies.
    cpus = results["machine"]["cpu_count"] or 1
    bar = 1.0 if cpus >= 2 else 0.75
    if two < bar * one:
        print(f"\nWARNING: router+2-backend throughput ({two:,} samples/s) "
              f"fell below {bar:.2f}x the 1-backend row ({one:,} samples/s): "
              f"routing may be serialising the backends", file=sys.stderr)
        ok = False
    # TLS acceptance, same-run: record-layer encryption on the lockstep
    # hot path must keep >= 80% of the plaintext lockstep row.
    tls_rate = tls_row["samples_per_s"]
    if tls_rate < 0.8 * direct_row["samples_per_s"]:
        print(f"\nWARNING: TLS loopback lockstep throughput "
              f"({tls_rate:,} samples/s) below 80% of same-run plaintext "
              f"({direct_row['samples_per_s']:,} samples/s)", file=sys.stderr)
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
