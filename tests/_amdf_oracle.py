"""A literal reference for the incremental AMDF sums, shared by the tests.

Every ``magnitude_advance_sums`` kernel backend, and the magnitude
engines that run it (the scalar detector and the lockstep bank), are
held to this oracle.  It reuses none of the library's code: sample by
sample it takes the window as it stands before the sample (the newest
``window`` samples seen so far) and replays the recurrence of equation
(1)'s running sums in Python floats — the new sample adds
``|x_new - x_prev(m)|`` for every lag ``m`` it has a partner for, and,
once the window is full, the sample that leaves it subtracts
``|x(m) - x_oldest|``, add before subtract per lag.  Python floats are
IEEE doubles, so the result is the kernels' bit for bit, up to the sign
and payload of a NaN.
"""

from __future__ import annotations

import math

import numpy as np

import _refresh_oracle


def advance(sums, history, chunk, window: int) -> list[float]:
    """Feed ``chunk`` after ``history`` (the ring contents, oldest first)
    to one row's running ``sums`` (``sums[m]`` for ``m = 0 .. max_lag``,
    ``max_lag < window``); returns the row's sums afterwards."""
    sums = [float(v) for v in sums]
    top = len(sums) - 1
    seen = [float(v) for v in history]
    for value in chunk:
        new = float(value)
        current = seen[-window:]
        fill = len(current)
        for m in range(1, min(top, fill) + 1):
            grown = sums[m] + abs(new - current[fill - m])
            if fill == window:
                grown = grown - abs(current[m] - current[0])
            sums[m] = grown
        seen.append(new)
    return sums


def stream_sums(
    samples, window: int, max_lag: int, refresh_interval: int
) -> list[float]:
    """The running sums of an engine that has consumed ``samples`` from
    empty: the recurrence, with the exact recompute of
    ``_refresh_oracle.pair_sums`` over the window every
    ``refresh_interval`` samples.  (An engine skips a recompute only when
    it would rewrite the same bits.)"""
    sums = [0.0] * (max_lag + 1)
    seen: list[float] = []
    for count, value in enumerate(samples, start=1):
        sums = advance(sums, seen[-window:], [value], window)
        seen.append(float(value))
        if count % refresh_interval == 0:
            current = seen[-window:]
            top = min(max_lag, len(current) - 1)
            sums = [0.0] * (max_lag + 1)
            if top >= 1:
                sums[: top + 1] = _refresh_oracle.pair_sums(current, top)
    return sums


def same_bits(got, expected) -> bool:
    """Equal bit for bit, except that any NaN matches any NaN."""
    got = np.asarray(got, dtype=np.float64).ravel()
    expected = np.asarray(expected, dtype=np.float64).ravel()
    if got.shape != expected.shape:
        return False
    for a, b in zip(got.tolist(), expected.tolist()):
        if math.isnan(a) or math.isnan(b):
            if not (math.isnan(a) and math.isnan(b)):
                return False
        elif np.float64(a).view(np.int64) != np.float64(b).view(np.int64):
            return False
    return True
