"""Spans around the public functions of each layer, and the arithmetic
that turns them into per-layer self times.

A :class:`Recorder` replaces a function at the name its callers look it
up by (a module attribute or a class attribute) with a wrapper that
records one span per call::

    (span_id, name, start, end, parent_id, request_id, amount)

``start``/``end`` are ``time.perf_counter()`` readings, which on Linux
come from ``CLOCK_MONOTONIC`` and are therefore comparable across the
benchmark's processes.  The parent is the span open in the same thread
or asyncio task (tracked with a ``ContextVar``); a span without a parent
starts a new request id, which its children inherit.  ``amount`` is the
work the call did (rows, bytes, samples, events) and defaults to 1.

Spans stay in memory; daemons write theirs out when they exit (see
``launcher.py``).  Nothing here touches the program's source.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
import itertools
import json
import os
from contextvars import ContextVar
from time import perf_counter

_CURRENT: ContextVar[tuple[int, int]] = ContextVar("perfbench_span", default=(0, 0))

#: Spans whose self time is time spent waiting for another layer (or for
#: input), not work.  They do not count towards attributed wall time.
WAIT_SPANS = frozenset(
    {"client.request", "client.next_events", "client.replay", "persistence.pass"}
)


def _nbytes(buffers) -> int:
    if isinstance(buffers, (bytes, bytearray, memoryview)):
        return memoryview(buffers).nbytes
    return sum(memoryview(b).nbytes for b in buffers)


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def wrap(self, fn, name: str, amount=None):
        """A wrapper of ``fn`` recording one ``name`` span per call.

        ``amount(args, kwargs, result)`` gives the span's work count.
        """
        spans = self.spans
        ids = self._ids
        rids = self._rids

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                parent, rid = _CURRENT.get()
                sid = next(ids)
                if not parent:
                    rid = next(rids)
                token = _CURRENT.set((sid, rid))
                start = perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                except BaseException:
                    spans.append((sid, name, start, perf_counter(), parent, rid, 0))
                    raise
                finally:
                    _CURRENT.reset(token)
                end = perf_counter()
                work = amount(args, kwargs, result) if amount else 1
                spans.append((sid, name, start, end, parent, rid, work))
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, rid = _CURRENT.get()
            sid = next(ids)
            if not parent:
                rid = next(rids)
            token = _CURRENT.set((sid, rid))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, name, start, perf_counter(), parent, rid, 0))
                raise
            finally:
                _CURRENT.reset(token)
            end = perf_counter()
            work = amount(args, kwargs, result) if amount else 1
            spans.append((sid, name, start, end, parent, rid, work))
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, amount=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, amount))
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every patched function back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"pid": os.getpid(), "spans": self.spans}, fh)


def load_spans(path) -> list[tuple]:
    with open(path) as fh:
        return [tuple(s) for s in json.load(fh)["spans"]]


# ----------------------------------------------------------------------
# hooks, one installer per layer
# ----------------------------------------------------------------------
def install_core(rec: Recorder) -> None:
    from repro.core import detector, events

    rec.patch(detector.DynamicPeriodicityDetector, "update", "core.update")
    rec.patch(
        events.EventPeriodicityDetector,
        "update_batch",
        "core.update",
        amount=lambda a, k, r: len(r),
    )
    # The detector calls select_period through its own module global.
    rec.patch(detector, "select_period", "core.select_period")


def install_kernels(rec: Recorder) -> None:
    from repro import kernels

    rec.patch(kernels, "magnitude_advance_sums", "kernels.advance")
    rec.patch(
        kernels,
        "select_periods_batch_impl",
        "kernels.select",
        amount=lambda a, k, r: len(r[0]),
    )


def install_service(rec: Recorder) -> None:
    from repro.service import event_soa, pool, soa

    events = lambda a, k, r: len(r)  # noqa: E731
    columns = lambda a, k, r: a[1].shape[1]  # noqa: E731
    rec.patch(pool.DetectorPool, "ingest_lockstep", "service.ingest", amount=events)
    rec.patch(pool.DetectorPool, "ingest_many", "service.ingest", amount=events)
    for bank in (soa.MagnitudeSoABank, event_soa.EventSoABank):
        rec.patch(bank, "step", "service.bank_step")
        rec.patch(bank, "process", "service.bank_process", amount=columns)


def install_protocol(rec: Recorder) -> None:
    from repro.server import protocol

    encoded = lambda a, k, r: _nbytes(r)  # noqa: E731
    for fn in ("encode_hot_ingest", "encode_hot_events", "encode_frame"):
        rec.patch(protocol, fn, "protocol.encode", amount=encoded)
    rec.patch(
        protocol, "decode_payload", "protocol.decode", amount=lambda a, k, r: len(a[1])
    )


def install_persistence(rec: Recorder) -> None:
    from repro.server import persistence

    rec.patch(persistence.Checkpointer, "checkpoint", "persistence.pass")
    rec.patch(persistence.CheckpointStore, "write_delta", "persistence.write")


def install_client(rec: Recorder) -> None:
    from repro.server import client

    for method in ("ingest_many", "ingest_rows", "stats"):
        rec.patch(client.AsyncDetectionClient, method, "client.request")
    rec.patch(client.AsyncDetectionClient, "next_events", "client.next_events")
    rec.patch(client.AsyncDetectionClient, "replay", "client.replay")
    rec.patch(
        client._HandleRegistry,
        "decode_events",
        "client.decode",
        amount=lambda a, k, r: len(r),
    )
    rec.patch(
        asyncio.StreamWriter,
        "writelines",
        "client.send",
        amount=lambda a, k, r: _nbytes(a[1]),
    )


def install_detection(rec: Recorder) -> None:
    """The layers a detecting process runs: core, kernels, service."""
    install_core(rec)
    install_kernels(rec)
    install_service(rec)


def install_daemon(rec: Recorder) -> None:
    """Everything a ``repro serve`` / ``repro route`` process runs."""
    install_detection(rec)
    install_protocol(rec)
    install_persistence(rec)


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------
def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _clip(span, t0: float, t1: float):
    start, end = max(span[2], t0), min(span[3], t1)
    return (start, end) if end > start else None


def self_times(spans, t0: float, t1: float) -> dict[int, float]:
    """Self time of every span of ONE process inside ``[t0, t1]``.

    A span's self time is its clipped duration minus the part of that
    interval covered by its (clipped) children.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[4]:
            clipped = _clip(span, t0, t1)
            if clipped is not None:
                children.setdefault(span[4], []).append(clipped)
    out: dict[int, float] = {}
    for span in spans:
        clipped = _clip(span, t0, t1)
        if clipped is None:
            continue
        covered = [
            (max(s, clipped[0]), min(e, clipped[1]))
            for s, e in children.get(span[0], ())
            if min(e, clipped[1]) > max(s, clipped[0])
        ]
        out[span[0]] = (clipped[1] - clipped[0]) - union_length(covered)
    return out


def layer_totals(processes, t0: float, t1: float) -> dict:
    """Per span name: self seconds, calls started in the window, and the
    summed amount; plus the wall time no busy span covered.

    ``processes`` is a list of span lists, one per process (span ids are
    only unique within a process).
    """
    totals: dict[str, dict[str, float]] = {}
    busy: list[tuple[float, float]] = []
    for spans in processes:
        selfs = self_times(spans, t0, t1)
        for span in spans:
            name = span[1]
            entry = totals.setdefault(
                name, {"self_s": 0.0, "wall_s": 0.0, "calls": 0, "amount": 0}
            )
            entry["self_s"] += selfs.get(span[0], 0.0)
            clipped = _clip(span, t0, t1)
            if clipped is not None:
                entry["wall_s"] += clipped[1] - clipped[0]
                if name not in WAIT_SPANS:
                    busy.append(clipped)
            if t0 <= span[2] < t1:
                entry["calls"] += 1
                entry["amount"] += span[6]
    wall = t1 - t0
    return {
        "names": totals,
        "wall_s": wall,
        "unattributed_s": wall - union_length(busy),
    }
