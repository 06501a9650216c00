"""Blocks, parts and the fastest blocks on a hand-built timeline."""

from __future__ import annotations

import pytest

from perfbench import workloads


def _phase(block_samples):
    """One block per second from t=0, ``block_samples[i]`` one-sample
    requests of ``i + 1`` ms completing inside block ``i``, one push of
    the same lag, and CPU 0.5 s per block."""
    cpu = iter(0.5 * i for i in range(len(block_samples) + 1))
    timeline = workloads.Timeline(float(workloads.PARTS), lambda: next(cpu))
    timeline.points.append((0.0, timeline.read_cpu(), 0.0))
    timeline.bounds = [float(i + 1) for i in range(workloads.PARTS)]
    phase = workloads.Phase(timeline)
    ends = []
    for i, n in enumerate(block_samples):
        phase.done += [(i + (j + 1) / (n + 1), 0.001 * (i + 1), 1) for j in range(n)]
        phase.lags.append((i + 0.5, 0.001 * (i + 1)))
        ends.append(timeline.mark(i + 1.0))
    return phase, ends


def test_blocks_after_the_last_part_join_it():
    phase, ends = _phase([10] * (workloads.PARTS + 2))
    assert ends == [True] * workloads.PARTS + [False, False]
    assert phase.timeline.finished
    sizes = [len(part) for part in workloads._parts(phase)]
    assert sizes == [1] * (workloads.PARTS - 1) + [3]


def test_fastest_blocks_are_those_with_most_samples_per_second():
    phase, _ = _phase([10, 10, 40, 10, 30, 10])
    kept = workloads._fastest(phase, 2)
    assert sorted(span[0][0] for span in kept) == [2.0, 4.0]
    metrics, details = workloads._metrics(phase, 1.0, 50.0, 50.0, kept)
    assert metrics["samples_per_s"] == pytest.approx(35.0)
    assert metrics["cpu_us_per_sample"] == pytest.approx(1.0 / 70 * 1e6)
    assert metrics["request_p50_ms"] == pytest.approx(3.0)  # 40 at 3 ms, 30 at 5 ms
    assert details["fastest_blocks_at_s"] == [2.0, 4.0]


def test_without_kept_blocks_each_metric_is_a_median_over_parts():
    phase, _ = _phase([10, 10, 40, 10, 30, 10])
    metrics, details = workloads._metrics(phase, 1.0, 50.0, 50.0)
    assert details["parts"] == workloads.PARTS
    assert metrics["samples_per_s"] == pytest.approx(10.0)
    assert metrics["request_p50_ms"] == pytest.approx(3.5)
