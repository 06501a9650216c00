"""Command-line interface: regenerate the paper's experiments from a shell.

The CLI exposes the experiment reproductions of :mod:`repro.bench` without
writing any Python::

    python -m repro table2              # Table 2 (detected periodicities)
    python -m repro table3              # Table 3 (DPD overhead)
    python -m repro fig3                # Figure 3 (FT CPU-usage trace, ASCII)
    python -m repro fig4                # Figure 4 (d(m) profile)
    python -m repro fig7                # Figure 7 (segmentation marks)
    python -m repro speedup --cpus 8    # Section 5 case study
    python -m repro detect trace.csv    # run the DPD over a recorded trace
    python -m repro pool --streams 1000 # multi-stream detection service
    python -m repro serve --port 8757   # network detection daemon
    python -m repro pool --connect repro://127.0.0.1:8757   # drive a remote daemon
    python -m repro serve --tls-cert c.pem --tls-key k.pem --auth-token s3cret
    python -m repro pool --connect "repros://s3cret@127.0.0.1:8757?ca=c.pem"

``repro pool`` exercises the multi-stream service layer
(:mod:`repro.service`): it generates N synthetic periodic traces with
known per-stream periods, runs them concurrently through one
:class:`~repro.service.pool.DetectorPool` (round-robin chunked ingestion,
or the vectorised structure-of-arrays lockstep path with ``--lockstep``),
prints the aggregate throughput in samples/second, and exits non-zero
when any stream fails to lock its ground-truth period.  With
``--workers N`` (N >= 2) the same workload runs through the sharded
multi-process service (:class:`~repro.service.sharding.ShardedDetectorPool`),
which partitions the streams across N worker processes with zero-copy
shared-memory ingest.

``repro serve`` runs the asyncio network daemon
(:mod:`repro.server`): remote producers push batches over the framed
TCP protocol and the daemon routes them into a (optionally sharded)
pool without blocking its event loop.  ``repro pool --connect
ENDPOINT`` turns the pool workload into such a producer — it pushes
the same synthetic traces through the wire and verifies the locks
remotely, so a serve/connect pair is a end-to-end smoke test of the
network layer (the CI does exactly that).  ``--mode``/``--window``
must match the serving daemon's configuration for the lock check to
be meaningful.

``serve``, ``route`` and ``pool`` share one set of transport security
flags (TLS certificates, HELLO auth tokens — all optional, plaintext
tokenless remains the default), and every connect path accepts either
a bare ``HOST:PORT`` or a ``repro://`` / ``repros://`` endpoint URL
(:mod:`repro.server.endpoint`).  ``serve`` additionally enforces
per-namespace admission quotas via ``--quota-*`` flags
(:mod:`repro.server.quotas`).

Every command prints a plain-text table/plot and exits non-zero when the
reproduction does not match the paper's qualitative claim, so the CLI can
be used as a smoke test of an installation.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

import numpy as np

from repro import __version__
from repro.bench.figures import ascii_plot, run_figure3, run_figure4, run_figure7
from repro.bench.harness import format_table
from repro.bench.table2 import format_table2, run_table2
from repro.bench.table3 import format_table3, run_table3
from repro.bench.workloads import ft_like_application
from repro.core.api import DPDInterface
from repro.core.detector import DetectorConfig
from repro.runtime.application import ApplicationRunner
from repro.runtime.ditools import DIToolsInterposer
from repro.runtime.machine import Machine
from repro.selfanalyzer.analyzer import SelfAnalyzer, SelfAnalyzerConfig
from repro.selfanalyzer.reporting import format_analyzer_report
from repro.service.pool import DetectorPool, PoolConfig
from repro.service.sharding import ShardedDetectorPool, ShardingConfig
from repro.traces.io import load_trace, load_trace_csv
from repro.traces.nas_ft import FT_PERIOD
from repro.traces.synthetic import periodic_signal, repeat_pattern

__all__ = ["build_parser", "main"]


def _transport_parent() -> argparse.ArgumentParser:
    """The one shared parent for endpoint/TLS/token flags.

    ``serve``, ``route`` and ``pool`` all inherit it, so the security
    surface is spelled identically everywhere: ``--tls-cert``/
    ``--tls-key`` secure a listener (serve, route), ``--tls-ca``/
    ``--tls-insecure`` verify a remote certificate (pool ``--connect``,
    route backends), and ``--auth-token``/``--auth-token-file`` name
    the HELLO credential (required by servers, presented by clients).
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("transport security")
    group.add_argument("--tls-cert", default=None, metavar="PEM",
                       help="serve TLS on the listener with this certificate chain "
                            "(serve/route; requires --tls-key)")
    group.add_argument("--tls-key", default=None, metavar="PEM",
                       help="private key for --tls-cert")
    group.add_argument("--tls-ca", default=None, metavar="PEM",
                       help="CA bundle the remote certificate is verified against "
                            "(pool --connect, route backends; a self-signed server "
                            "cert verifies against itself)")
    group.add_argument("--tls-insecure", action="store_true",
                       help="skip remote certificate verification (testing only)")
    group.add_argument("--auth-token", default=None, metavar="TOKEN",
                       help="serve/route: accept this HELLO token from clients; "
                            "pool --connect: present it to the server")
    group.add_argument("--auth-token-file", default=None, metavar="FILE",
                       help="serve/route: accept tokens from this file, one "
                            "token[:namespace[:expires]] per line ('#' comments)")
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser of the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'A Dynamic Periodicity Detector: Application to Speedup Computation'",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table2", help="Table 2: detected periodicities of the five applications")

    t3 = sub.add_parser("table3", help="Table 3: overhead of the DPD mechanism")
    t3.add_argument("--length", type=int, default=None, help="process only this many trace elements per application")

    f3 = sub.add_parser("fig3", help="Figure 3: CPU usage of the FT-like application")
    f3.add_argument("--iterations", type=int, default=24)

    f4 = sub.add_parser("fig4", help="Figure 4: d(m) profile of the FT-like trace")
    f4.add_argument("--iterations", type=int, default=24)

    f7 = sub.add_parser("fig7", help="Figure 7: segmentation of the application streams")
    f7.add_argument("--events", type=int, default=300, help="events shown per application")

    sp = sub.add_parser("speedup", help="Section 5 case study: dynamic speedup computation")
    sp.add_argument("--cpus", type=int, default=8)
    sp.add_argument("--iterations", type=int, default=30)

    det = sub.add_parser("detect", help="run the DPD over a recorded trace file (.npz or .csv)")
    det.add_argument("path", help="trace file produced by repro.traces.io")
    det.add_argument("--mode", choices=("event", "magnitude"), default=None,
                     help="detector mode (default: inferred from the trace kind)")
    det.add_argument("--window", type=int, default=256, help="data window size N")

    transport = _transport_parent()

    pl = sub.add_parser("pool", parents=[transport],
                        help="run N synthetic streams through the multi-stream detection service")
    pl.add_argument("--streams", type=int, default=64, help="number of concurrent streams")
    pl.add_argument("--samples", type=int, default=1024, help="samples per stream")
    pl.add_argument("--mode", choices=("magnitude", "event"), default="magnitude")
    pl.add_argument("--window", type=int, default=128, help="data window size N per stream")
    pl.add_argument("--chunk", type=int, default=128,
                    help="samples per ingest call in round-robin mode")
    pl.add_argument("--lockstep", action="store_true",
                    help="use the vectorised structure-of-arrays lockstep path (magnitude only)")
    pl.add_argument("--max-streams", type=int, default=None,
                    help="LRU capacity of the pool (default: unbounded; per shard with --workers)")
    pl.add_argument("--eval-interval", type=int, default=4,
                    help="evaluate the profile every this many samples (magnitude only)")
    pl.add_argument("--workers", type=int, default=1,
                    help="shard the pool across this many worker processes (>= 2 enables sharding)")
    pl.add_argument("--start-method", choices=("fork", "spawn", "forkserver"), default=None,
                    help="multiprocessing start method for --workers (default: fork where available)")
    pl.add_argument("--pipeline-depth", type=int, default=0,
                    help="with --workers >= 2: pipeline consecutive ingest calls with this "
                         "many unacknowledged requests per shard (0 = synchronous)")
    pl.add_argument("--connect", metavar="ENDPOINT", default=None,
                    help="push the workload to a running `repro serve` daemon instead "
                         "of an in-process pool (--workers is then the server's "
                         "business); HOST:PORT or a repro://, repros:// endpoint URL")
    pl.add_argument("--namespace", default=None,
                    help="stream namespace on the server (with --connect; default: server-assigned)")

    sv = sub.add_parser("serve", parents=[transport],
                        help="run the network detection daemon (asyncio TCP server)")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=8757, help="TCP port (0 = ephemeral)")
    sv.add_argument("--mode", choices=("magnitude", "event"), default="magnitude")
    sv.add_argument("--window", type=int, default=128, help="data window size N per stream")
    sv.add_argument("--max-streams", type=int, default=None,
                    help="LRU capacity of the pool (default: unbounded; per shard with --workers)")
    sv.add_argument("--workers", type=int, default=1,
                    help="shard the pool across this many worker processes (>= 2 enables sharding)")
    sv.add_argument("--pipeline-depth", type=int, default=0,
                    help="with --workers >= 2: pipeline consecutive shard ingests with this "
                         "many unacknowledged requests per shard (0 = synchronous; in-flight "
                         "events then reach clients on later replies or subscriber pushes)")
    sv.add_argument("--max-inflight", type=int, default=32,
                    help="per-connection unanswered-request bound before BUSY replies")
    sv.add_argument("--journal-size", type=int, default=4096,
                    help="per-namespace replay journal capacity in events (subscribers "
                         "recover dropped pushes via REPLAY while the range is inside "
                         "it; 0 disables journaling)")
    sv.add_argument("--eval-interval", type=int, default=4,
                    help="evaluate the profile every this many samples (magnitude only)")
    sv.add_argument("--coalesce-max", type=int, default=64,
                    help="upper bound on the adaptive dispatcher coalescing window "
                         "(ingest requests merged into one pool submission; the window "
                         "itself is sized from observed queue depth, so the default "
                         "rarely needs tuning)")
    sv.add_argument("--coalesce-min", type=int, default=4,
                    help="lower bound on the adaptive coalescing window (>= 1; the "
                         "default works well unless latency of a single tiny request "
                         "matters more than throughput)")
    sv.add_argument("--state-dir", default=None, metavar="DIR",
                    help="durable state directory: restore the last checkpoint from "
                         "it on startup (warm restart — streams, seq positions and "
                         "replay journals survive) and checkpoint into it in the "
                         "background while serving (default: fully in-memory)")
    sv.add_argument("--checkpoint-interval", type=float, default=30.0,
                    help="seconds between background checkpoint passes (with "
                         "--state-dir; each pass writes only streams dirty since "
                         "the previous one)")
    sv.add_argument("--checkpoint-max-dirty", type=int, default=None,
                    help="with --state-dir: additionally checkpoint early once this "
                         "many ingest requests landed since the last pass (bounds "
                         "how much acknowledged work a crash can lose)")
    sv.add_argument("--quota-max-streams", type=int, default=None,
                    help="per-namespace cap on streams; past it ingest of new "
                         "streams answers ERROR (existing streams keep working)")
    sv.add_argument("--quota-max-samples-per-s", type=float, default=None,
                    help="per-namespace sample-rate limit (token bucket with one "
                         "second of burst); past it ingest answers BUSY until the "
                         "bucket refills, exactly like inflight backpressure")
    sv.add_argument("--quota-max-subscribers", type=int, default=None,
                    help="per-namespace cap on concurrent event subscribers")

    rt = sub.add_parser("route", parents=[transport],
                        help="run the multi-node router tier in front of "
                             "several `repro serve` backends")
    rt.add_argument("--host", default="127.0.0.1")
    rt.add_argument("--port", type=int, default=8756, help="TCP port (0 = ephemeral)")
    rt.add_argument("--backend", action="append", metavar="ENDPOINT", default=[],
                    help="a backend `repro serve` address — HOST:PORT or a "
                         "repro://, repros:// endpoint URL (repeat for each node; "
                         "at least one required; --tls-ca/--tls-insecure apply to "
                         "TLS backends that do not set their own)")
    rt.add_argument("--backend-token", default=None, metavar="TOKEN",
                    help="HELLO token presented to backends that do not carry one "
                         "in their endpoint URL")
    rt.add_argument("--replicas", type=int, default=128,
                    help="virtual points per backend on the consistent-hash ring "
                         "(more points = smoother balance, slower membership ops)")
    rt.add_argument("--max-inflight", type=int, default=32,
                    help="per-connection unanswered-request bound before BUSY replies")
    return parser


# ----------------------------------------------------------------------
# subcommand implementations (each returns a process exit code)
# ----------------------------------------------------------------------
def _cmd_table2(args) -> int:
    rows = run_table2()
    print(format_table2(rows))
    return 0 if all(row.matches for row in rows) else 1


def _cmd_table3(args) -> int:
    rows = run_table3(length_override=args.length)
    print(format_table3(rows))
    return 0 if all(row.percentage < 10.0 for row in rows) else 1


def _cmd_fig3(args) -> int:
    fig3 = run_figure3(iterations=args.iterations)
    print("Figure 3: number of CPUs used (first iterations)")
    print(ascii_plot(fig3.cpus[: 3 * FT_PERIOD + 10], height=10, width=110))
    print(f"samples={fig3.cpus.size} peak_cpus={fig3.max_cpus} sampling={fig3.sampling_interval*1e3:g} ms")
    return 0 if fig3.max_cpus == 16 else 1


def _cmd_fig4(args) -> int:
    fig4 = run_figure4(iterations=args.iterations)
    finite = np.nan_to_num(fig4.distances, nan=np.nanmax(fig4.distances))
    print("Figure 4: d(m) profile")
    print(ascii_plot(finite[1:], height=10, width=100))
    print(f"detected period m = {fig4.detected_period} (paper: {fig4.paper_period})")
    return 0 if fig4.detected_period == fig4.paper_period else 1


def _cmd_fig7(args) -> int:
    panels = run_figure7(events_per_panel=args.events)
    ok = True
    for panel in panels:
        outer = max(panel.paper_periods)
        starts = np.asarray(panel.segment_starts)
        spacings = set(np.diff(starts).tolist()) if starts.size > 1 else set()
        matches = outer in spacings
        ok &= matches
        print(f"\n{panel.application}: detected periodicities {panel.detected_periods}, "
              f"outer period {outer}, marks {starts.size}, outer-spaced: {'yes' if matches else 'NO'}")
        in_view = tuple(int(s) for s in starts if s < panel.values.size)
        print(ascii_plot(panel.values.astype(float), height=6, width=100, marks=in_view))
    return 0 if ok else 1


def _cmd_speedup(args) -> int:
    app = ft_like_application(iterations=args.iterations)
    interposer = DIToolsInterposer()
    runner = ApplicationRunner(app, machine=Machine(max(args.cpus, 1)), interposer=interposer, cpus=args.cpus)
    analyzer = SelfAnalyzer(
        SelfAnalyzerConfig(baseline_cpus=1, dpd_window_size=64, total_iterations_hint=args.iterations)
    )
    analyzer.attach(interposer, runner)
    runner.run()
    print(format_analyzer_report(analyzer))
    measured = analyzer.speedup_of_main_region()
    analytic = app.analytic_speedup(args.cpus)
    print(f"\nanalytic speedup on {args.cpus} CPUs: {analytic:.2f}")
    if measured is None:
        return 1
    return 0 if abs(measured - analytic) / analytic < 0.1 else 1


def _cmd_detect(args) -> int:
    path = args.path
    trace = load_trace_csv(path) if path.endswith(".csv") else load_trace(path)
    mode = args.mode or ("event" if trace.kind == "events" else "magnitude")
    dpd = DPDInterface(args.window, mode=mode)
    starts = []
    for index, value in enumerate(trace.values):
        period = dpd.dpd(value if mode == "magnitude" else int(value))
        if period:
            starts.append((index, period))
    print(f"trace {trace.name!r}: {len(trace)} samples, mode={mode}, window={args.window}")
    print(f"detected periodicities: {dpd.detected_periods}")
    print(f"period starts: {len(starts)}")
    if starts:
        rows = [[i, p] for i, p in starts[:10]]
        print(format_table(["sample index", "period"], rows, title="first period starts"))
    return 0 if dpd.detected_periods else 2


def _synthetic_pool_config(
    mode: str, window: int, max_streams: int | None, eval_interval: int
) -> PoolConfig:
    """The pool configuration both ``pool`` and ``serve`` build from flags."""
    if mode == "magnitude":
        return PoolConfig(
            mode="magnitude",
            max_streams=max_streams,
            detector_config=DetectorConfig(
                window_size=window, evaluation_interval=max(eval_interval, 1)
            ),
        )
    return PoolConfig(mode="event", window_size=window, max_streams=max_streams)


def _synthetic_workload(mode: str, streams: int, samples: int):
    """Synthetic traces with known per-stream ground-truth periods."""
    periods = [4 + (i % 29) for i in range(streams)]
    if mode == "magnitude":
        traces = {
            f"stream-{i:04d}": periodic_signal(periods[i], samples, seed=i)
            for i in range(streams)
        }
    else:
        traces = {
            f"stream-{i:04d}": repeat_pattern(
                1000 * (i + 1) + np.arange(periods[i]), samples
            )
            for i in range(streams)
        }
    return traces, periods


def _cmd_pool_connect(args, traces, periods) -> int:
    """``repro pool --connect``: push the workload to a running daemon."""
    from repro.server.client import DetectionClient, ServerError
    from repro.server.endpoint import Endpoint
    from repro.util.validation import ValidationError

    overrides: dict = {}
    if args.auth_token is not None:
        overrides["token"] = args.auth_token
    if args.tls_ca is not None:
        overrides["tls_ca"] = args.tls_ca
    if args.tls_insecure:
        overrides["tls_insecure"] = True
    try:
        endpoint = Endpoint.parse(args.connect, **overrides)
    except ValidationError as exc:
        print(f"bad --connect endpoint: {exc}", file=sys.stderr)
        return 2
    try:
        client = DetectionClient(
            endpoint, namespace=args.namespace,
            connect_retries=20, retry_delay=0.25,
        )
    except (ServerError, OSError) as exc:
        # OSError covers refused/unreachable/timed-out sockets alike
        # (TLS handshake failures included); ServerError covers an
        # auth-rejected HELLO.
        print(f"cannot reach the detection server: {exc}", file=sys.stderr)
        return 1
    with client:
        try:
            started = time.perf_counter()
            if args.lockstep:
                events = client.ingest_lockstep(traces)
            else:
                chunk = max(args.chunk, 1)
                requests = (
                    {sid: values[offset : offset + chunk] for sid, values in traces.items()}
                    for offset in range(0, args.samples, chunk)
                )
                events = client.pipeline(requests, window=8)
            elapsed = time.perf_counter() - started
            stats = client.stats(periods=True)
        except (ServerError, OSError) as exc:
            # TimeoutError from a wedged daemon is an OSError but not a
            # ConnectionError; all of them deserve the clean message.
            print(f"detection server error: {exc}", file=sys.stderr)
            return 1
    total = args.streams * args.samples
    remote_periods = stats.get("periods", {})
    locked_ok = sum(
        1 for i, sid in enumerate(traces) if remote_periods.get(sid) == periods[i]
    )
    print(f"pool --connect {args.connect} (namespace {client.namespace}): "
          f"{args.streams} streams x {args.samples} samples "
          f"({'lockstep' if args.lockstep else f'pipelined chunk={args.chunk}'})")
    print(f"ingested {total} samples in {elapsed:.3f} s "
          f"-> {total / elapsed:,.0f} samples/s over loopback/TCP")
    print(f"period-start events: {len(events)}, "
          f"correct remote period locks: {locked_ok}/{args.streams}")
    print(f"server stats: {stats['server']}")
    return 0 if locked_ok == args.streams else 1


def _cmd_pool(args) -> int:
    if args.streams <= 0 or args.samples <= 0:
        print("--streams and --samples must be positive", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    traces, periods = _synthetic_workload(args.mode, args.streams, args.samples)
    if args.connect:
        return _cmd_pool_connect(args, traces, periods)
    config = _synthetic_pool_config(
        args.mode, args.window, args.max_streams, args.eval_interval
    )

    sharded = args.workers >= 2
    if sharded:
        pool = ShardedDetectorPool(
            config,
            ShardingConfig(
                workers=args.workers,
                start_method=args.start_method,
                pipeline_depth=max(args.pipeline_depth, 0),
            ),
        )
    else:
        pool = DetectorPool(config)
    try:
        started = time.perf_counter()
        events = []
        if args.lockstep:
            events = pool.ingest_lockstep(traces)
        elif sharded:
            chunk = max(args.chunk, 1)
            for offset in range(0, args.samples, chunk):
                events.extend(pool.ingest_many(
                    {sid: values[offset : offset + chunk] for sid, values in traces.items()}
                ))
        else:
            chunk = max(args.chunk, 1)
            for offset in range(0, args.samples, chunk):
                for sid, values in traces.items():
                    events.extend(pool.ingest(sid, values[offset : offset + chunk]))
        if sharded:
            # Terminal collection of a pipelined run (no-op when synchronous).
            events.extend(pool.flush())
        elapsed = time.perf_counter() - started

        total = args.streams * args.samples
        stats = pool.stats()
        locked_ok = sum(
            1 for i, sid in enumerate(traces) if pool.current_period(sid) == periods[i]
        )
    except RuntimeError as exc:
        # Worker crashes surface as RuntimeError with a recovery note; keep
        # the CLI's non-zero-exit-with-message contract instead of a bare
        # traceback.
        print(f"pool service error: {exc}", file=sys.stderr)
        return 1
    finally:
        if sharded:
            pool.close()
    layout = f"sharded x{args.workers} workers, " if sharded else ""
    print(f"pool: {args.streams} streams x {args.samples} samples "
          f"(mode={args.mode}, window={args.window}, {layout}"
          f"{'lockstep/SoA' if args.lockstep else f'round-robin chunk={args.chunk}'})")
    print(f"ingested {total} samples in {elapsed:.3f} s "
          f"-> {total / elapsed:,.0f} samples/s")
    print(f"period-start events: {len(events)}, locked streams: {stats.locked_streams}, "
          f"correct period locks: {locked_ok}/{args.streams}")
    print(f"pool stats: created={stats.created} evicted={stats.evicted} "
          f"resident={stats.streams} total_samples={stats.total_samples}")
    return 0 if locked_ok == args.streams else 1


def _cmd_serve(args) -> int:
    from repro.server.server import DetectionServer, ServerConfig, build_pool
    from repro.util.validation import ValidationError

    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    config = _synthetic_pool_config(
        args.mode, args.window, args.max_streams, args.eval_interval
    )
    try:
        server_config = ServerConfig(
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            journal_size=max(args.journal_size, 0),
            coalesce_limit=args.coalesce_max,
            coalesce_min=args.coalesce_min,
            state_dir=args.state_dir,
            checkpoint_interval=args.checkpoint_interval,
            checkpoint_max_dirty=args.checkpoint_max_dirty,
            tls_cert=args.tls_cert,
            tls_key=args.tls_key,
            auth_token=args.auth_token,
            auth_token_file=args.auth_token_file,
            quota_max_streams=args.quota_max_streams,
            quota_max_samples_per_s=args.quota_max_samples_per_s,
            quota_max_subscribers=args.quota_max_subscribers,
        )
    except ValidationError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    pool = build_pool(
        config, workers=args.workers, pipeline_depth=max(args.pipeline_depth, 0)
    )
    try:
        server = DetectionServer(pool, server_config)
    except (ValidationError, ValueError, OSError) as exc:
        # Bad token files surface here (build_authenticator reads them).
        print(f"serve: {exc}", file=sys.stderr)
        if hasattr(pool, "close"):
            pool.close()
        return 2

    def banner() -> str:
        layout = f", sharded x{args.workers} workers" if args.workers >= 2 else ""
        if args.state_dir:
            restored = server.restore_stats or {}
            layout += (
                f", durable @ {args.state_dir} "
                f"(restored {restored.get('streams', 0)} streams, "
                f"{restored.get('journals', 0)} journals)"
            )
        if args.tls_cert:
            layout += ", TLS"
        if args.auth_token or args.auth_token_file:
            layout += ", token auth"
        return (f"repro detection server listening on {server.host}:{server.port} "
                f"(mode={args.mode}, window={args.window}{layout})")

    return _run_until_signal(server, banner, "draining and shutting down ...")


def _cmd_route(args) -> int:
    from repro.server.router import DetectionRouter, RouterConfig
    from repro.util.validation import ValidationError

    if not args.backend:
        print("route needs at least one --backend ENDPOINT", file=sys.stderr)
        return 2
    try:
        router = DetectionRouter(
            args.backend,
            RouterConfig(
                host=args.host,
                port=args.port,
                replicas=args.replicas,
                max_inflight=args.max_inflight,
                tls_cert=args.tls_cert,
                tls_key=args.tls_key,
                auth_token=args.auth_token,
                auth_token_file=args.auth_token_file,
                backend_token=args.backend_token,
                backend_tls_ca=args.tls_ca,
                backend_tls_insecure=args.tls_insecure,
            ),
        )
    except (ValidationError, ValueError, OSError) as exc:
        print(f"route: {exc}", file=sys.stderr)
        return 2

    def banner() -> str:
        security = ", TLS" if args.tls_cert else ""
        if args.auth_token or args.auth_token_file:
            security += ", token auth"
        return (f"repro detection router listening on {router.host}:{router.port} "
                f"(backends: {', '.join(router.backends)}{security})")

    return _run_until_signal(router, banner, "closing router ...")


def _run_until_signal(daemon, banner, farewell: str) -> int:
    """Start ``daemon``, print ``banner()`` once it listens, serve until
    SIGINT/SIGTERM, then print ``farewell`` and stop it gracefully."""
    import asyncio
    import signal

    async def run() -> None:
        await daemon.start()
        print(banner(), flush=True)
        stop_requested = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop_requested.set)
        await stop_requested.wait()
        print(farewell, flush=True)
        await daemon.stop()

    asyncio.run(run())
    return 0


_COMMANDS = {
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "fig7": _cmd_fig7,
    "speedup": _cmd_speedup,
    "detect": _cmd_detect,
    "pool": _cmd_pool,
    "serve": _cmd_serve,
    "route": _cmd_route,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
