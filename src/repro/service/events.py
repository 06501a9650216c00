"""Event and statistics records of the multi-stream detection service.

The service layer communicates with its consumers through small frozen
records: :class:`PeriodStartEvent` is the pool-level analogue of a
non-zero ``DPD()`` return (one per detected period boundary, tagged with
the stream that produced it), while :class:`StreamStats` /
:class:`PoolStats` summarise per-stream and pool-wide activity for
monitoring and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["PeriodStartEvent", "PoolStats", "StreamStats"]


@dataclass(frozen=True)
class PeriodStartEvent:
    """One detected period boundary on one pool stream.

    Attributes
    ----------
    stream_id:
        Name of the stream that produced the boundary.
    index:
        Zero-based per-stream sample index of the boundary.
    period:
        Locked period length at the boundary (the paper's ``*period``
        output argument).
    confidence:
        Confidence of the backing lock in ``[0, 1]``.
    new_detection:
        True when this boundary coincides with a first lock or a period
        switch on the stream.
    seq:
        Zero-based per-stream monotonic sequence number, assigned at the
        pool layer: the k-th event a stream ever produced carries
        ``seq = k - 1``, whichever ingestion backend produced it
        (per-stream engines, the SoA lockstep banks, or a sharded
        worker).  The counter travels with the stream's snapshot —
        rebalance, crash recovery and server-side restore all resume the
        numbering instead of restarting it — so consumers can detect
        dropped events by seq gaps and ask the server to replay exactly
        the missed range.  ``-1`` marks a hand-constructed, unsequenced
        event.
    """

    stream_id: str
    index: int
    period: int
    confidence: float
    new_detection: bool
    seq: int = -1


@dataclass(frozen=True)
class StreamStats:
    """Activity summary of one pool stream."""

    stream_id: str
    samples: int
    events: int
    current_period: int | None
    detected_periods: tuple[int, ...]
    last_active: int
    """Value of the pool's ingest counter at the stream's last use."""


@dataclass(frozen=True)
class PoolStats:
    """Pool-wide activity summary."""

    streams: int
    created: int
    evicted: int
    total_samples: int
    total_events: int
    locked_streams: int
    mode: str
    lockstep_backend: str | None = None
    """Backend chosen by the last ``ingest_lockstep`` call (``"soa"`` or
    ``"per-stream"``); ``None`` when lockstep ingestion was never used."""
    kernel_backend: str | None = None
    """Active :mod:`repro.kernels` backend (``"numba"``, ``"numpy"`` or
    ``"python"``) so the perf trajectory records what actually ran;
    ``None`` only in stats merged from workers that predate the field."""

    @classmethod
    def merge(cls, parts: Iterable["PoolStats"]) -> "PoolStats":
        """One summary of several pools (shards, or a router's backends).

        Counters are summed.  ``mode``, ``lockstep_backend`` and
        ``kernel_backend`` keep the one value the parts report,
        ``"mixed"`` when they disagree and ``None`` when none reports one.
        """
        parts = list(parts)

        def label(name: str):
            values = {getattr(p, name) for p in parts} - {None}
            if len(values) == 1:
                return values.pop()
            return "mixed" if values else None

        def total(name: str) -> int:
            return sum(getattr(p, name) for p in parts)

        return cls(
            streams=total("streams"),
            created=total("created"),
            evicted=total("evicted"),
            total_samples=total("total_samples"),
            total_events=total("total_events"),
            locked_streams=total("locked_streams"),
            mode=label("mode"),
            lockstep_backend=label("lockstep_backend"),
            kernel_backend=label("kernel_backend"),
        )
