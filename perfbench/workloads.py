"""The three workloads.

``dpd-single``
    The paper's Table-1 call: one magnitude stream through
    ``DPDInterface(window_size=1024, mode="magnitude")``, evaluating
    every sample, one ``dpd()`` call per sample, in-process.
``fleet-lockstep``
    1000 magnitude streams sent as lockstep hot frames over loopback to
    one ``repro serve`` process: a closed loop with one request
    outstanding, plus one subscriber connection in the same namespace.
``routed-event``
    Event-mode streams with Zipf-skewed popularity, sent as small
    multi-stream ``ingest_many`` frames on a fixed schedule (open loop)
    through ``repro route`` to one ``repro serve --state-dir`` backend,
    plus a subscriber.

Each workload function takes ``(seed, seconds, trace)`` and returns an
:class:`Outcome`.  Inputs come from the seed alone; the program only
ever sees the generated samples.

The timed region is a run of *blocks*: for each workload, the unit that
holds exactly one cycle of its periodic slow work (one exact recompute,
or one checkpoint interval).  The blocks form :data:`PARTS` parts of
about equal length, and each metric is computed per part and reported as
the median over the parts, which ignores slow episodes that cover a
minority of the run: a shared 2-CPU VM runs the same code at two speeds
that differ by up to 1.8x, switching every few seconds to minutes.

``dpd-single`` is a single ~0.2 ms call, and its slow episodes can
cover most of a run and of a set of runs.  Its medians, throughput and
CPU per sample are taken over its :data:`DPD_FASTEST_BLOCKS` fastest
blocks instead (those that took least time), the best-of-N rule of
``timeit``, which measures the call rather than the neighbours' load.

Set-up time is sampled throughout the run, not only before it: at the
end of each part the load pauses (outside the blocks' wall time and CPU)
and fresh systems are started and timed.

With ``trace`` the run is split in two halves with a fresh system each:
an untraced one and a traced one.  The per-layer numbers come from the
traced half, and the ratio of the halves' median request latencies is
the tracing overhead.
"""

from __future__ import annotations

import asyncio
import math
import os
import statistics
import time
from array import array
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from perfbench import common, gate, tracing
from perfbench.common import BenchError, Daemon, OperationsFailed, RunDir

#: Equal parts of the timed region that the ``_tail_`` metrics are
#: medians over (see the module docstring).
PARTS = 6
#: A request that gets no reply within this time is a failed operation.
REQUEST_TIMEOUT_S = 10.0


# ----------------------------------------------------------------------
# measurements
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one run of one workload measured and checked."""

    metrics: dict = field(default_factory=dict)  # end-to-end name -> value
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    details: dict = field(default_factory=dict)  # percentiles, counts, flags
    layers: dict | None = None  # per-layer metrics of a traced run
    absent: dict = field(default_factory=dict)  # per-layer name -> why absent

    def add(self, *phases: "Phase") -> None:
        """Count the operations and problems of each distinct phase."""
        for phase in {id(p): p for p in phases}.values():
            self.attempted += phase.attempted
            self.failed += phase.failed
            self.problems += phase.problems
            if phase.failed:
                self.problems.append(
                    f"{phase.failed} of {phase.attempted} operations failed or were refused"
                )


class Timeline:
    """Block boundaries of the timed region, with the system-under-test's
    CPU seconds read at each one, and the boundaries of its
    :data:`PARTS` equal parts.

    ``pause``/``resume`` bracket work inside the region that is not the
    workload (set-up probes); it is excluded from the blocks' wall time
    and CPU, and the part boundaries still ahead move back by its length.
    """

    def __init__(self, duration: float, read_cpu) -> None:
        self.duration = duration
        self.read_cpu = read_cpu
        self.points: list[tuple[float, float, float]] = []  # (time, cpu, paused)
        self.part_ends: list[int] = []  # indices into points
        self._paused = 0.0
        self._paused_cpu = 0.0

    def start(self) -> float:
        now = perf_counter()
        self.bounds = [now + self.duration * (i + 1) / PARTS for i in range(PARTS)]
        self.points.append((now, self.read_cpu(), 0.0))
        return now

    def mark(self, now: float) -> bool:
        """Record a block boundary at ``now``; returns whether it ended a
        part (the last part ends the region)."""
        self.points.append((now, self.read_cpu() - self._paused_cpu, self._paused))
        if self.finished or now < self.bounds[len(self.part_ends)]:
            return False
        self.part_ends.append(len(self.points) - 1)
        return True

    @property
    def finished(self) -> bool:
        return len(self.part_ends) == PARTS

    def pause(self) -> tuple[float, float]:
        return perf_counter(), self.read_cpu()

    def resume(self, mark: tuple[float, float]) -> None:
        paused = perf_counter() - mark[0]
        self._paused += paused
        self._paused_cpu += self.read_cpu() - mark[1]
        self.bounds = [b + paused for b in self.bounds]

    @property
    def t0(self) -> float:
        return self.points[0][0]

    @property
    def t1(self) -> float:
        return self.points[-1][0]


@dataclass
class Phase:
    """One timed region: its raw measurements before summarising."""

    timeline: Timeline
    done: list = field(default_factory=list)  # rows of (completion time, latency s, samples)
    lags: list = field(default_factory=list)  # (receive time, lag s)
    attempted: int = 0
    failed: int = 0
    rss_mb: float = 0.0
    lock_accuracy: float = 0.0
    problems: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def latencies(self) -> np.ndarray:
        return np.asarray(self.done, dtype=np.float64).reshape(-1, 3)[:, 1]


def _blocks(phase: Phase) -> list:
    """The blocks as ``(start point, end point)`` pairs."""
    return list(zip(phase.timeline.points, phase.timeline.points[1:]))


def _fastest(phase: Phase, count: int) -> list:
    """The ``count`` blocks that completed the most samples per second."""
    done = np.array(phase.done, dtype=np.float64).reshape(-1, 3)

    def rate(span):
        (ta, _, pa), (tb, _, pb) = span
        inside = (done[:, 0] >= ta) & (done[:, 0] < tb)
        return done[inside, 2].sum() / ((tb - ta) - (pb - pa))

    return sorted(_blocks(phase), key=rate, reverse=True)[:count]


def _parts(phase: Phase) -> list:
    """The blocks grouped into the parts of the run; the last part runs
    to the last block."""
    blocks = _blocks(phase)
    cuts = [0] + phase.timeline.part_ends[:-1] + [len(blocks)]
    return [blocks[a:b] for a, b in zip(cuts, cuts[1:]) if b > a]


def _metrics(phase: Phase, setup_s: float, request_q: float, lag_q: float,
             kept: list | None = None) -> tuple[dict, dict]:
    """End-to-end metrics and their details: medians over the parts or,
    given ``kept`` blocks, medians, throughput and CPU over those."""
    metrics, details = _summarize(phase, setup_s, request_q, lag_q, _parts(phase))
    details["blocks"] = len(_blocks(phase))
    details["whole_run_request_p50_ms"] = float(np.median(phase.latencies)) * 1e3
    if kept:
        fast, _ = _summarize(phase, setup_s, request_q, lag_q, [kept])
        for key in ("samples_per_s", "request_p50_ms", "push_lag_p50_ms", "cpu_us_per_sample"):
            metrics[key] = fast[key]
        details["fastest_blocks_at_s"] = sorted(
            round(a[0] - phase.timeline.t0, 2) for a, _ in kept
        )
    return metrics, details


def _summarize(phase: Phase, setup_s: float, request_q: float, lag_q: float,
               groups: list) -> tuple[dict, dict]:
    """End-to-end metrics and their details.

    Each metric is computed over each group of blocks taken together as
    one, and the median over the groups is reported.
    """
    done = np.array(phase.done, dtype=np.float64).reshape(-1, 3)
    lags = np.array(phase.lags, dtype=np.float64).reshape(-1, 2)
    rows = []
    for group in groups:
        req_in = np.zeros(len(done), dtype=bool)
        lag_in = np.zeros(len(lags), dtype=bool)
        wall = cpu = 0.0
        for (ta, ca, pa), (tb, cb, pb) in group:
            req_in |= (done[:, 0] >= ta) & (done[:, 0] < tb)
            lag_in |= (lags[:, 0] >= ta) & (lags[:, 0] < tb)
            wall += (tb - ta) - (pb - pa)
            cpu += cb - ca
        req, lag = done[req_in], lags[lag_in, 1]
        samples = req[:, 2].sum()
        row = {"samples": samples, "requests": len(req), "lags": len(lag)}
        row["samples_per_s"] = samples / wall
        row["cpu_us_per_sample"] = cpu / samples * 1e6 if samples else math.nan
        for name, values, q in (("request", req[:, 1], request_q), ("push_lag", lag, lag_q)):
            if values.size:
                tail = np.percentile(values, q)
                row[f"{name}_p50_ms"] = float(np.median(values)) * 1e3
                row[f"{name}_tail_ms"] = float(tail) * 1e3
                row[f"{name}_beyond"] = int(np.count_nonzero(values > tail))
            else:
                row[f"{name}_p50_ms"] = row[f"{name}_tail_ms"] = math.nan
                row[f"{name}_beyond"] = 0
        rows.append(row)

    def med(key):
        return float(np.nanmedian([row[key] for row in rows]))

    metrics = {"setup_s": setup_s}
    for key in ("samples_per_s", "request_p50_ms", "request_tail_ms",
                "push_lag_p50_ms", "push_lag_tail_ms", "cpu_us_per_sample"):
        metrics[key] = med(key)
    metrics["peak_rss_mb"] = phase.rss_mb
    metrics["error_rate"] = phase.failed / max(phase.attempted, 1)
    metrics["lock_accuracy"] = phase.lock_accuracy
    details = {
        "parts": len(rows),
        "timed_wall_s": phase.timeline.t1 - phase.timeline.t0,
        "samples": int(done[:, 2].sum()),
        "request_tail": {"q": request_q, "per_part": [row["requests"] for row in rows],
                         "beyond": [row["request_beyond"] for row in rows]},
        "push_lag_tail": {"q": lag_q, "per_part": [row["lags"] for row in rows],
                          "beyond": [row["push_lag_beyond"] for row in rows]},
    }
    for name in ("request", "push_lag"):
        fewest = min(row[f"{name}_beyond"] for row in rows)
        if fewest < common.MIN_BEYOND:
            details.setdefault("flags", []).append(
                f"{name}_tail: a part has only {fewest} samples beyond p{details[name + '_tail']['q']}"
            )
    return metrics, details


def _slow_share(latencies) -> float:
    """Share of requests slower than twice the median."""
    arr = np.asarray(latencies)
    return float(np.count_nonzero(arr > 2 * np.median(arr)) / arr.size)


def _record_slow_share(out: "Outcome", latencies, q: float) -> None:
    """Record the measured slow share; flag the run when the request
    tail's share ``1 - q`` lies within a factor of two of it."""
    measured = out.details["slow_share_measured"] = _slow_share(latencies)
    if measured / 2 < (100.0 - q) / 100.0 < measured * 2:
        out.details.setdefault("flags", []).append(
            f"request_tail: p{q} is within 2x of the measured slow share {measured:.3f}"
        )


def _layers(processes, phase: Phase, stats_delta: dict, untraced: Phase) -> dict:
    """Per-layer metrics of a traced phase (see README.md for the names)."""
    totals = tracing.layer_totals(processes, phase.timeline.t0, phase.timeline.t1)
    names = totals["names"]

    def self_s(*keys):
        return sum(names.get(k, {}).get("self_s", 0.0) for k in keys)

    def calls(key):
        return names.get(key, {}).get("calls", 0)

    def amount(key):
        return names.get(key, {}).get("amount", 0)

    out = {
        "kernels.advance_s": self_s("kernels.advance"),
        "kernels.advance_calls": calls("kernels.advance"),
        "kernels.select_s": self_s("kernels.select"),
        "kernels.select_rows": amount("kernels.select"),
        "core.update_s": self_s("core.update"),
        "core.update_calls": amount("core.update"),
        "core.select_period_s": self_s("core.select_period"),
        "core.select_period_calls": calls("core.select_period"),
        "service.ingest_s": self_s("service.ingest", "service.bank_process", "service.bank_step"),
        "service.ingest_calls": calls("service.ingest"),
        "service.bank_steps": calls("service.bank_step"),
        "service.bank_columns": amount("service.bank_process"),
        "service.events": amount("service.ingest"),
        "protocol.encode_s": self_s("protocol.encode"),
        "protocol.encode_bytes": amount("protocol.encode"),
        "protocol.decode_s": self_s("protocol.decode"),
        "protocol.decode_bytes": amount("protocol.decode"),
        "persistence.pass_s": names.get("persistence.pass", {}).get("wall_s", 0.0),
        "client.send_s": self_s("client.send"),
        "client.wait_s": self_s("client.request"),
        "client.decode_s": self_s("client.decode"),
        "client.requests": calls("client.request"),
        # The generator never retries: a BUSY reply is a failed operation.
        "client.busy_retries": 0,
        "client.gap_replays": calls("client.replay"),
        "unattributed_s": totals["unattributed_s"],
        "tracing_overhead": (
            statistics.median(phase.latencies) / statistics.median(untraced.latencies)
        ),
        "gen.slow_request_share": _slow_share(phase.latencies),
    }
    out.update(stats_delta)
    out.update(phase.extra.get("gen", {}))
    return out


def _refresh_interval() -> int:
    from repro.core.detector import DetectorConfig

    return DetectorConfig().refresh_interval


# Per-layer metrics that exist only where a daemon, a router, a
# checkpointer, a network client or an open-loop schedule runs.
_SERVER_STATS = (
    "server.detect_s", "server.dispatch_s", "server.fanout_s", "server.encode_s",
    "server.syscall_s", "server.ingest_jobs", "server.coalesce_batches",
    "server.writer_frames", "server.busy_replies", "server.dropped_events", "server.cpu_s",
)
_ROUTER_STATS = (
    "router.slice_s", "router.forward_s", "router.fanin_s", "router.encode_s",
    "router.syscall_s", "router.cpu_s",
)
_PERSISTENCE_STATS = (
    "persistence.passes", "persistence.bytes_written", "persistence.streams_written",
    "persistence.pass_s",
)
_CLIENT = (
    "client.send_s", "client.wait_s", "client.decode_s", "client.requests",
    "client.busy_retries", "client.gap_replays", "protocol.encode_s",
    "protocol.encode_bytes", "protocol.decode_s", "protocol.decode_bytes",
)
_OPEN_LOOP_ONLY = ("gen.late_p50_ms", "gen.late_max_ms")


# ----------------------------------------------------------------------
# dpd-single
# ----------------------------------------------------------------------
DPD_WINDOW = 1024
#: Odd, so a period start coincides with the exact recompute every
#: ``refresh_interval`` samples on every seed's phase, not only on some.
DPD_PERIOD = 41
DPD_WARMUP = 4 * DPD_WINDOW
DPD_SETUPS_PER_BLOCK = 4
#: Fastest blocks (of ``refresh_interval`` calls, one exact recompute
#: each; a quarter of a second at the VM's fast speed) that the medians,
#: throughput, CPU and set-up are taken over.  On a 2-CPU VM, ``dpd()``
#: runs at ~0.19 ms per call or at ~0.30-0.35 ms, and whole minutes can
#: pass with only short fast bursts.  Over ten 30 s runs the median call
#: of the four fastest blocks held within 0.18-0.20 ms in nine; the
#: median of the whole run moved between 0.22 and 0.35 ms from one set
#: of runs to the next.
DPD_FASTEST_BLOCKS = 4
#: Share of calls slower than twice the median: the exact recompute (1 in
#: ``refresh_interval`` = 256) plus the first call after a set-up probe
#: and garbage-collection pauses, measured at 0.5-1% on a 2-CPU VM.
DPD_SLOW_SHARE = 0.01
#: Calls per second on a 2-CPU VM with NumPy kernels, near the slow
#: speed's ~2500 (the fast one does ~4500).  Only used to pick the
#: ``_tail_`` percentile from the run length, so that the percentile is
#: a constant of the workload and never flips with the VM's speed.
DPD_NOMINAL_CALLS_PER_S = 2800


def _dpd_phase(pattern: list[float], duration: float) -> Phase:
    """One timed region of ``dpd()`` calls in blocks of
    ``refresh_interval`` calls.

    After each block it also times fresh interfaces from construction to
    their first answer, so ``setup_s`` can be taken from the same blocks
    as the other metrics; that time is excluded from the blocks.
    """
    from repro.core.api import DPDInterface

    period = len(pattern)
    block = _refresh_interval()
    dpd = DPDInterface(window_size=DPD_WINDOW, mode="magnitude")
    call = dpd.dpd
    for i in range(DPD_WARMUP):
        call(pattern[i % period])
    phase = Phase(Timeline(duration, time.process_time))
    # Compact columns: the generator shares the measured process, so its
    # bookkeeping must not dominate peak_rss_mb.
    ends, lats = array("d"), array("d")
    setups = phase.extra["setups"] = []  # (time, seconds)
    starts: list[tuple[int, int]] = []
    clock = perf_counter
    i = DPD_WARMUP
    phase.timeline.start()
    try:
        while True:
            for _ in range(block):
                x = pattern[i % period]
                t = clock()
                r = call(x)
                e = clock()
                ends.append(e)
                lats.append(e - t)
                if r:
                    starts.append((i, r))
                    phase.lags.append((e, e - t))
                i += 1
            phase.timeline.mark(e)
            if phase.timeline.finished:
                break
            mark = phase.timeline.pause()
            for _ in range(DPD_SETUPS_PER_BLOCK):
                t = clock()
                DPDInterface(window_size=DPD_WINDOW, mode="magnitude").dpd(x)
                setups.append((t, clock() - t))
            phase.timeline.resume(mark)
    except Exception as exc:  # a failing DPD() call is a failed operation
        raise OperationsFailed(f"DPD() call {i} raised {exc!r}", len(ends) + 1, 1) from exc
    phase.rss_mb = common.peak_rss_mb(os.getpid())
    phase.done = np.column_stack([ends, lats, np.ones(len(ends))])
    phase.attempted = len(ends)
    phase.problems += gate.check_period_starts(starts, period, DPD_WARMUP, i - 1)
    phase.lock_accuracy, wrong = gate.check_periods({"dpd": dpd.current_period}, {"dpd": period})
    phase.problems += wrong
    return phase


def dpd_single(seed: int, seconds: float, trace: bool) -> Outcome:
    rng = np.random.default_rng(seed)
    pattern = (rng.permutation(DPD_PERIOD) + 1.0).tolist()
    out = Outcome()
    timed = seconds / 2 if trace else seconds
    main = first = _dpd_phase(pattern, timed)
    if trace:
        rec = tracing.Recorder()
        tracing.install_detection(rec)
        try:
            main = _dpd_phase(pattern, timed)
        finally:
            rec.restore()
        out.layers = _layers([rec.spans], main, {}, first)
        why = "in-process workload: no daemon, router, checkpointer or client"
        out.absent = {name: why for name in _SERVER_STATS + _ROUTER_STATS
                      + _PERSISTENCE_STATS + _CLIENT}
        out.absent.update({name: "closed loop: no schedule to fall behind"
                           for name in _OPEN_LOOP_ONLY})
    kept = _fastest(main, DPD_FASTEST_BLOCKS)
    # Set-up probes of the untraced half only: tracing would slow them.
    setups = [took for t, took in first.extra["setups"]
              if trace or any(a[0] <= t < b[0] for a, b in kept)]
    per_part = timed / PARTS * DPD_NOMINAL_CALLS_PER_S
    request_q = common.tail_quantile(per_part, DPD_SLOW_SHARE)
    lag_q = common.tail_quantile(per_part / DPD_PERIOD, DPD_SLOW_SHARE)
    out.metrics, out.details = _metrics(
        main, statistics.median(setups or [math.nan]), request_q, lag_q, kept
    )
    out.details["slow_share_by_construction"] = 1.0 / _refresh_interval()
    _record_slow_share(out, main.latencies, request_q)
    out.details["setup_repeats"] = len(setups)
    out.add(first, main)
    return out


# ----------------------------------------------------------------------
# served workloads: shared plumbing
# ----------------------------------------------------------------------
#: Fresh systems started and timed in each pause between two parts of
#: a served workload, on top of the measured system's own start.  A
#: median over starts spread through the run follows the VM's speed over
#: the run, not over the few seconds before it.
SERVE_PROBES_PER_GAP = 2


class System:
    """The daemon processes of one served workload."""

    def __init__(self, daemons: list[Daemon], spans: list) -> None:
        self.daemons = daemons
        self.spans = spans  # span files, one per daemon when traced
        self.endpoint = f"127.0.0.1:{daemons[-1].port}"

    def cpu_seconds(self) -> float:
        return sum(d.cpu_seconds() for d in self.daemons)

    def peak_rss_mb(self) -> float:
        return sum(d.peak_rss_mb() for d in self.daemons)

    def stop(self) -> list[int | None]:
        return [d.stop() for d in reversed(self.daemons)]


async def _start(start_system, namespace: str):
    """Start a system; time it until it answers its first request."""
    from repro.server.client import AsyncDetectionClient

    t = perf_counter()
    system = start_system()
    try:
        client = await AsyncDetectionClient.connect(system.endpoint, namespace=namespace)
        await client.stats()
    except BaseException:
        system.stop()
        raise
    return system, client, perf_counter() - t


async def _start_measured(start_system, namespace: str, warm: bool):
    """Start the system to be measured, after a discarded start that
    warms the page and bytecode caches when ``warm``.

    Returns ``(system, client, setup_s)``.
    """
    if warm:
        system, client, _ = await _start(start_system, namespace)
        await client.close()
        system.stop()
    return await _start(start_system, namespace)


async def _probe_starts(phase: Phase, producer, sub: "_Subscriber", start_system,
                        namespace: str, setups: list) -> None:
    """At the end of a part: wait for the pushes in flight, then start,
    time and stop :data:`SERVE_PROBES_PER_GAP` fresh systems, all outside
    the blocks' wall time and CPU."""
    mark = phase.timeline.pause()
    await sub.caught_up((await producer.stats())["pool"]["total_events"])
    for _ in range(SERVE_PROBES_PER_GAP):
        system, client, took = await _start(start_system, namespace)
        setups.append(took)
        await client.close()
        system.stop()
    phase.timeline.resume(mark)


def _profile_delta(before: dict, after: dict, keys, prefix: str) -> dict:
    return {
        f"{prefix}.{key}_s": after["profile"].get(key, 0.0) - before["profile"].get(key, 0.0)
        for key in keys
    }


def _server_delta(before: dict, after: dict, cpu_s: float) -> dict:
    out = _profile_delta(before, after, ("detect", "dispatch", "fanout", "encode", "syscall"),
                         "server")
    for key in ("ingest_jobs", "busy_replies", "dropped_events"):
        out[f"server.{key}"] = after[key] - before[key]
    out["server.coalesce_batches"] = after["coalesce"]["batches"] - before["coalesce"]["batches"]
    out["server.writer_frames"] = after["writer"]["frames"] - before["writer"]["frames"]
    out["server.cpu_s"] = cpu_s
    return out


def _local(stream_id: str) -> str:
    return stream_id.rsplit("/", 1)[-1]


class _Subscriber:
    """Subscriber connection: checks seqs and records push lag.

    ``sent_of(event)`` gives the send time of the request that carried
    the event's sample (``None`` when unknown).  All events of one
    request that arrive in one push share a lag, so each (push,
    request) pair is one lag sample.
    """

    def __init__(self, client, sent_of, keep_events: bool = False) -> None:
        self.client = client
        self.seqs = gate.SeqTracker()
        self.sent_of = sent_of
        self.lags: list[tuple[float, float]] = []
        self.events: list[tuple] | None = [] if keep_events else None
        self.task = asyncio.ensure_future(self._listen())

    async def _listen(self) -> None:
        while True:
            batch = await self.client.next_events()
            now = perf_counter()
            sent = set()
            for ev in batch:
                self.seqs.see(ev.stream_id, ev.seq)
                sent.add(self.sent_of(ev))
                if self.events is not None:
                    self.events.append((_local(ev.stream_id), ev.seq, ev.index, ev.period, now))
            sent.discard(None)
            self.lags += [(now, now - t) for t in sent]

    async def caught_up(self, expected: int, timeout: float = 30.0) -> None:
        """Wait until ``expected`` events arrived (or ``timeout``)."""
        deadline = perf_counter() + timeout
        while self.seqs.delivered < expected and perf_counter() < deadline:
            await asyncio.sleep(0.005)

    async def drain(self, expected: int) -> list[str]:
        """Wait until ``expected`` events arrived; then stop listening."""
        await self.caught_up(expected)
        self.task.cancel()
        try:
            await self.task
        except asyncio.CancelledError:
            pass
        await self.client.close()
        problems = list(self.seqs.problems)
        if self.seqs.delivered != expected:
            problems.append(f"subscriber got {self.seqs.delivered} of {expected} events")
        return problems


def _traced_client() -> tracing.Recorder:
    rec = tracing.Recorder()
    tracing.install_protocol(rec)
    tracing.install_client(rec)
    return rec


# ----------------------------------------------------------------------
# fleet-lockstep
# ----------------------------------------------------------------------
FLEET_STREAMS = 1000
FLEET_WINDOW = 128
FLEET_EVAL = 8
FLEET_CHUNK = 8
FLEET_WARMUP_CHUNKS = 2 * FLEET_WINDOW // FLEET_CHUNK
#: Requests per second, below the ~22 measured at the VM's slow speed
#: (~34 at the fast one); see DPD_NOMINAL_CALLS_PER_S.
FLEET_NOMINAL_REQUESTS_PER_S = 17


class _FleetInputs:
    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.periods = rng.permutation(4 + np.arange(FLEET_STREAMS) % 29)
        self.patterns = np.zeros((FLEET_STREAMS, int(self.periods.max())))
        for row, period in enumerate(self.periods):
            self.patterns[row, :period] = rng.permutation(period) + 1.0
        self.ids = [f"s{i:04d}" for i in range(FLEET_STREAMS)]
        self._rows = np.arange(FLEET_STREAMS)[:, None]
        self._cols = np.arange(FLEET_CHUNK)[None, :]

    def chunk(self, k: int) -> np.ndarray:
        """Samples ``[k*C, (k+1)*C)`` of every stream, one row each."""
        cols = (k * FLEET_CHUNK + self._cols) % self.periods[:, None]
        return np.ascontiguousarray(self.patterns[self._rows, cols])


def _fleet_system(run: RunDir, traced: bool) -> System:
    spans = run.fresh("serve-spans.json") if traced else None
    serve = Daemon(
        ["serve", "--port", "0", "--mode", "magnitude", "--window", str(FLEET_WINDOW),
         "--eval-interval", str(FLEET_EVAL)],
        log=run.fresh("serve.log"),
        spans=spans,
    )
    return System([serve], [spans] if traced else [])


async def _fleet_phase(run: RunDir, inputs: _FleetInputs, duration: float,
                       traced: bool, probe: bool) -> tuple[Phase, list, dict]:
    """One timed region; with ``probe``, set-up is also sampled between
    parts.  Returns the phase, the set-up times and the layer stats."""
    from repro.server.client import AsyncDetectionClient, ServerBusy, ServerError

    namespace = "fleet"

    def start_system():
        return _fleet_system(run, traced)

    system, producer, setup_s = await _start_measured(start_system, namespace, probe)
    setups = [setup_s]
    phase = Phase(Timeline(duration, system.cpu_seconds))
    sends: dict[int, float] = {}
    rec = None
    try:
        sub = _Subscriber(
            await AsyncDetectionClient.connect(system.endpoint, namespace=namespace),
            lambda ev: sends.get(ev.index // FLEET_CHUNK),
        )
        await sub.client.subscribe("own")
        ids = inputs.ids
        for k in range(FLEET_WARMUP_CHUNKS):
            await producer.ingest_rows(ids, inputs.chunk(k), lockstep=True)
        if traced:
            rec = _traced_client()
        before = (await producer.stats())["server"]
        k = FLEET_WARMUP_CHUNKS
        nxt = inputs.chunk(k)
        block = _refresh_interval() // FLEET_CHUNK
        phase.timeline.start()
        while not phase.timeline.finished:
            matrix = nxt
            phase.attempted += 1
            sent = sends[k] = perf_counter()
            reply = asyncio.ensure_future(asyncio.wait_for(
                producer.ingest_rows(ids, matrix, lockstep=True), REQUEST_TIMEOUT_S
            ))
            nxt = inputs.chunk(k + 1)  # built while the daemon works
            try:
                await reply
            except ServerBusy:
                # Refused: counted, and the same chunk is sent again so
                # every stream's samples stay in order.
                phase.failed += 1
                del sends[k]
                nxt = matrix
                continue
            except (ServerError, ConnectionError, OSError, asyncio.TimeoutError) as exc:
                phase.failed += 1
                raise OperationsFailed(
                    f"fleet-lockstep request {k}: {exc!r}", phase.attempted, phase.failed
                ) from exc
            now = perf_counter()
            phase.done.append((now, now - sent, FLEET_STREAMS * FLEET_CHUNK))
            k += 1
            if (k - FLEET_WARMUP_CHUNKS) % block:
                continue
            if phase.timeline.mark(now) and probe and not phase.timeline.finished:
                await _probe_starts(phase, producer, sub, start_system, namespace, setups)
        stats = await producer.stats(periods=True)
        if rec is not None:
            rec.restore()
        phase.problems += await sub.drain(stats["pool"]["total_events"])
        phase.lags = sub.lags
        phase.rss_mb = system.peak_rss_mb()
        observed = {_local(s): p for s, p in stats.get("periods", {}).items()}
        truth = {sid: int(p) for sid, p in zip(ids, inputs.periods)}
        phase.lock_accuracy, wrong = gate.check_periods(observed, truth)
        phase.problems += wrong
        cpu_s = phase.timeline.points[-1][1] - phase.timeline.points[0][1]
        layer_stats = _server_delta(before, stats["server"], cpu_s)
        phase.extra["kernel_backend"] = stats["pool"]["kernel_backend"]
    except (ServerError, ConnectionError, OSError, asyncio.TimeoutError) as exc:
        raise BenchError(f"fleet-lockstep: {exc!r}") from exc
    finally:
        if rec is not None:
            rec.restore()
        await producer.close()
        codes = system.stop()
    if any(code != 0 for code in codes):
        phase.problems.append(f"daemon exit codes {codes}")
    if traced:
        phase.extra["spans"] = [rec.spans] + [tracing.load_spans(p) for p in system.spans]
    return phase, setups, layer_stats


def fleet_lockstep(seed: int, seconds: float, trace: bool) -> Outcome:
    inputs = _FleetInputs(seed)
    out = Outcome()
    timed = seconds / 2 if trace else seconds
    with RunDir() as run:
        main, setups, stats = first, _, _ = asyncio.run(
            _fleet_phase(run, inputs, timed, False, not trace)
        )
        if trace:
            main, _, stats = asyncio.run(_fleet_phase(run, inputs, timed, True, False))
            out.layers = _layers(main.extra["spans"], main, stats, first)
            out.absent = {name: "no router in this workload" for name in _ROUTER_STATS}
            out.absent.update({name: "no --state-dir: the daemon does not checkpoint"
                               for name in _PERSISTENCE_STATS})
            out.absent.update({name: "closed loop: no schedule to fall behind"
                               for name in _OPEN_LOOP_ONLY})
    slow = FLEET_CHUNK / _refresh_interval()
    q = common.tail_quantile(timed / PARTS * FLEET_NOMINAL_REQUESTS_PER_S, slow)
    out.metrics, out.details = _metrics(main, statistics.median(setups), q, q)
    out.details["kernel_backend"] = main.extra["kernel_backend"]
    out.details["slow_share_by_construction"] = slow
    _record_slow_share(out, main.latencies, q)
    out.details["setup_repeats"] = len(setups)
    out.details["request_shape"] = f"{FLEET_STREAMS} streams x {FLEET_CHUNK} samples, lockstep"
    out.add(first, main)
    return out


# ----------------------------------------------------------------------
# routed-event
# ----------------------------------------------------------------------
ROUTED_STREAMS = 128
ROUTED_WINDOW = 64
ROUTED_PER_REQUEST = 4
ROUTED_SAMPLES = 16
ROUTED_WARMUP = 2 * ROUTED_WINDOW
ROUTED_ZIPF = 1.1
#: Offered load in samples/s: about 20% of the backend's detection
#: capacity on a 2-CPU VM.  At 40% the VM's slow episodes pushed the
#: backend near saturation and the p90 doubled from run to run.  A
#: capacity probed at run time is not used: it would drift with the VM's
#: speed and move the operating point.
ROUTED_RATE = 4_000.0
ROUTED_CHECKPOINT_S = 2.0
#: Share of routed requests slower than twice the median: those that wait
#: behind a checkpoint pass's snapshot or fsync, and bursts of queueing
#: when the VM slows down; measured at 1-6% on a 2-CPU VM, so the top of
#: that range is used.  It puts the tail at p80: p90 and p95 lie within
#: a factor of two of it.
ROUTED_SLOW_SHARE = 0.06
#: A median send later than this means the generator could not keep the
#: schedule, and the run is flagged.
ROUTED_LATE_LIMIT_MS = 2.0


class _RoutedInputs:
    def __init__(self, seed: int, duration: float) -> None:
        rng = np.random.default_rng(seed)
        n = ROUTED_STREAMS
        # The period of each popularity rank is fixed; the seed picks
        # which stream holds which rank, the patterns and the draws.
        ranks = rng.permutation(n)
        self.ids = [f"e{i:03d}" for i in range(n)]
        periods = [3 + (r * 5) % 17 for r in ranks]
        self.patterns = [
            1000 * (i + 1) + rng.permutation(p).astype(np.int64) for i, p in enumerate(periods)
        ]
        weights = 1.0 / (ranks + 1.0) ** ROUTED_ZIPF
        weights /= weights.sum()
        self.interval = ROUTED_PER_REQUEST * ROUTED_SAMPLES / ROUTED_RATE
        offsets = [ROUTED_WARMUP] * n
        self.batches = []
        for _ in range(int(math.ceil(duration / self.interval))):
            batch = {}
            for s in rng.choice(n, ROUTED_PER_REQUEST, replace=False, p=weights):
                batch[self.ids[s]] = self.samples(s, offsets[s], ROUTED_SAMPLES)
                offsets[s] += ROUTED_SAMPLES
            self.batches.append(batch)

    def samples(self, stream: int, start: int, length: int) -> np.ndarray:
        pattern = self.patterns[stream]
        return pattern[(start + np.arange(length)) % pattern.size]


def _routed_system(run: RunDir, traced: bool) -> System:
    state = run.fresh("state")  # does not exist yet: the backend starts empty
    spans = [run.fresh("serve-spans.json"), run.fresh("route-spans.json")] if traced else [None] * 2
    backend = Daemon(
        ["serve", "--port", "0", "--mode", "event", "--window", str(ROUTED_WINDOW),
         "--state-dir", str(state), "--checkpoint-interval", str(ROUTED_CHECKPOINT_S)],
        log=run.fresh("serve.log"),
        spans=spans[0],
    )
    try:
        router = Daemon(
            ["route", "--port", "0", "--backend", f"127.0.0.1:{backend.port}"],
            log=run.fresh("route.log"),
            spans=spans[1],
        )
    except BaseException:
        backend.stop()
        raise
    return System([backend, router], spans if traced else [])


def _reference(inputs: _RoutedInputs, ok: list[bool]):
    """An in-process pool fed exactly the samples the server accepted,
    in the same per-stream order: ``(events by stream, final periods)``."""
    from repro.service.pool import DetectorPool, PoolConfig

    pool = DetectorPool(PoolConfig(mode="event", window_size=ROUTED_WINDOW))
    events: dict[str, list] = {sid: [] for sid in inputs.ids}

    def feed(sid, samples):
        events[sid] += [(e.seq, e.index, e.period) for e in pool.ingest(sid, samples)]

    for s, sid in enumerate(inputs.ids):
        feed(sid, inputs.samples(s, 0, ROUTED_WARMUP))
    for batch, accepted in zip(inputs.batches, ok):
        if accepted:
            for sid, samples in batch.items():
                feed(sid, samples)
    return events, {sid: pool.current_period(sid) for sid in inputs.ids}


async def _routed_phase(run: RunDir, inputs: _RoutedInputs, duration: float,
                        traced: bool, probe: bool) -> tuple[Phase, list, dict]:
    """One timed region; with ``probe``, set-up is also sampled between
    parts.  Returns the phase, the set-up times and the layer stats."""
    from repro.server.client import AsyncDetectionClient, ServerError

    namespace = "routed"

    def start_system():
        return _routed_system(run, traced)

    system, producer, setup_s = await _start_measured(start_system, namespace, probe)
    setups = [setup_s]
    phase = Phase(Timeline(duration, system.cpu_seconds))
    rec = None
    n_req = len(inputs.batches)
    ok = [False] * n_req
    due = [0.0] * n_req
    late: list[float] = []
    try:
        sub = _Subscriber(
            await AsyncDetectionClient.connect(system.endpoint, namespace=namespace),
            lambda ev: None,
            keep_events=True,
        )
        await sub.client.subscribe("own")
        # Warm-up: every stream once, alone, so each is created as a
        # per-stream engine; the timed multi-stream frames then never form
        # a fresh fleet that ingest_many would hand to the SoA bank.
        for s, sid in enumerate(inputs.ids):
            await producer.ingest_many({sid: inputs.samples(s, 0, ROUTED_WARMUP)})
        if traced:
            rec = _traced_client()
        before = (await producer.stats())["server"]

        async def one(k: int) -> None:
            try:
                await asyncio.wait_for(producer.ingest_many(inputs.batches[k]),
                                       REQUEST_TIMEOUT_S)
            except (ServerError, ConnectionError, OSError, asyncio.TimeoutError) as exc:
                # ServerBusy is a ServerError: refused, failed and lost
                # requests are all counted, and the reference skips them.
                phase.failed += 1
                if phase.failed <= 5:
                    phase.problems.append(f"request {k}: {exc!r}")
                return
            now = perf_counter()
            phase.done.append((now, now - due[k], ROUTED_PER_REQUEST * ROUTED_SAMPLES))
            ok[k] = True

        # A block is one checkpoint interval's requests.  At its end the
        # requests in flight finish; at the end of a part, with ``probe``,
        # set-up is sampled; then the schedule restarts, so no request is
        # due during a drain or a pause.
        block = round(ROUTED_CHECKPOINT_S / inputs.interval)
        cpu_each = [d.cpu_seconds() for d in system.daemons]
        origin = phase.timeline.start()
        tasks = []
        for k in range(n_req):
            due[k] = origin + k * inputs.interval
            wait = due[k] - perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            late.append(perf_counter() - due[k])
            tasks.append(asyncio.ensure_future(one(k)))
            if (k + 1) % block and k + 1 < n_req:
                continue
            await asyncio.gather(*tasks)
            tasks = []
            if phase.timeline.mark(perf_counter()) and probe and k + 1 < n_req:
                await _probe_starts(phase, producer, sub, start_system, namespace, setups)
            origin = perf_counter() - (k + 1) * inputs.interval
        phase.extra["cpu_each"] = [d.cpu_seconds() - c for d, c in zip(system.daemons, cpu_each)]
        phase.attempted = n_req
        stats = await producer.stats(periods=True)
        if rec is not None:
            rec.restore()
        phase.problems += await sub.drain(stats["pool"]["total_events"])
        phase.rss_mb = system.peak_rss_mb()
    except (ServerError, ConnectionError, OSError, asyncio.TimeoutError) as exc:
        if phase.failed:  # the timed region lost its connection
            raise OperationsFailed(
                f"routed-event: {exc!r} after {phase.failed} failed requests",
                n_req, phase.failed,
            ) from exc
        raise BenchError(f"routed-event: {exc!r}") from exc
    finally:
        if rec is not None:
            rec.restore()
        await producer.close()
        codes = system.stop()
    if any(code != 0 for code in codes):
        phase.problems.append(f"daemon exit codes {codes}")

    want, periods = _reference(inputs, ok)
    # Lag: from the due time of the request that carried each sample
    # chunk to the push that delivered its events.
    carried: dict[str, list[float]] = {sid: [] for sid in inputs.ids}
    for k, batch in enumerate(inputs.batches):
        if ok[k]:
            for sid in batch:
                carried[sid].append(due[k])
    got: dict[str, list] = {sid: [] for sid in inputs.ids}
    pushes = set()
    for sid, seq, index, period, now in sub.events:
        got.setdefault(sid, []).append((seq, index, period))
        chunk = (index - ROUTED_WARMUP) // ROUTED_SAMPLES
        if chunk >= 0:
            pushes.add((now, carried[sid][chunk]))
    phase.lags = [(now, now - sent) for now, sent in pushes]
    phase.problems += gate.check_events(got, want)
    observed = {_local(s): p for s, p in stats.get("periods", {}).items()}
    phase.lock_accuracy, wrong = gate.check_periods(observed, periods)
    phase.problems += wrong
    phase.extra["gen"] = {
        "gen.late_p50_ms": float(np.median(late)) * 1e3,
        "gen.late_max_ms": float(np.max(late)) * 1e3,
    }
    if traced:
        phase.extra["spans"] = [rec.spans] + [tracing.load_spans(p) for p in system.spans]
    return phase, setups, _routed_delta(before, stats, phase)


def _routed_delta(before: dict, stats: dict, phase: Phase) -> dict:
    """Server, router and persistence layer metrics from router STATS."""
    after = stats["server"]
    (addr,) = after["backends"]
    b0, b1 = before["backends"][addr]["server"], after["backends"][addr]["server"]
    backend_cpu, router_cpu = phase.extra["cpu_each"]
    out = _server_delta(b0, b1, backend_cpu)
    out.update(_profile_delta(before, after, ("slice", "forward", "fanin", "encode", "syscall"),
                              "router"))
    out["router.cpu_s"] = router_cpu
    for key in ("passes", "bytes_written", "streams_written"):
        out[f"persistence.{key}"] = b1["checkpoint"][key] - b0["checkpoint"][key]
    phase.extra["kernel_backend"] = stats["pool"]["kernel_backend"]
    phase.extra["lockstep_backend"] = stats["pool"]["lockstep_backend"]
    return out


def routed_event(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    timed = seconds / 2 if trace else seconds
    inputs = _RoutedInputs(seed, timed)
    with RunDir() as run:
        main, setups, stats = first, _, _ = asyncio.run(
            _routed_phase(run, inputs, timed, False, not trace)
        )
        if trace:
            main, _, stats = asyncio.run(_routed_phase(run, inputs, timed, True, False))
            out.layers = _layers(main.extra["spans"], main, stats, first)
    per_s = ROUTED_RATE / (ROUTED_PER_REQUEST * ROUTED_SAMPLES)
    q = common.tail_quantile(timed / PARTS * per_s, ROUTED_SLOW_SHARE)
    out.metrics, out.details = _metrics(main, statistics.median(setups), q, q)
    for key in ("kernel_backend", "lockstep_backend", "gen"):
        out.details[key] = main.extra[key]
    _record_slow_share(out, main.latencies, q)
    out.details["setup_repeats"] = len(setups)
    out.details["offered_rate_samples_per_s"] = ROUTED_RATE
    out.details["request_shape"] = (
        f"{ROUTED_PER_REQUEST} streams x {ROUTED_SAMPLES} samples of {ROUTED_STREAMS} "
        f"Zipf({ROUTED_ZIPF})-popular event streams, open loop every "
        f"{inputs.interval * 1e3:.2f} ms"
    )
    late = main.extra["gen"]["gen.late_p50_ms"]
    if late > ROUTED_LATE_LIMIT_MS:
        out.details.setdefault("flags", []).append(
            f"generator fell behind schedule: median send {late:.2f} ms late"
        )
    out.add(first, main)
    return out


WORKLOADS = {
    "dpd-single": dpd_single,
    "fleet-lockstep": fleet_lockstep,
    "routed-event": routed_event,
}
