"""A literal reference for the event mismatch counts, shared by the tests.

Every ``event_advance_counts`` kernel backend, and the event engines
that run it, are held to this oracle.  It reuses none of the library's
code: after every event it takes the window (the newest ``window``
events seen so far), recounts the mismatching pairs of every lag with a
Python double loop — equation (2) is ``sign(C[m])`` — and picks the
smallest lag that repeats exactly under the detectors' acceptance rule.
"""

from __future__ import annotations


def mismatch_counts(window, max_lag: int) -> list[int]:
    """``C[m] = #{k : x[k+m] != x[k]}`` for ``m = 0 .. max_lag``."""
    values = [int(v) for v in window]
    n = len(values)
    counts = []
    for m in range(max_lag + 1):
        total = 0
        for k in range(n - m):
            if values[k + m] != values[k]:
                total += 1
        counts.append(total)
    return counts


def first_match(
    counts,
    fill: int,
    window: int,
    min_lag: int,
    min_repetitions: int,
    require_full_window: bool,
) -> int:
    """Smallest lag ``m`` with ``C[m] == 0`` that the detectors accept
    (0 when there is none).

    A lag is accepted when ``min_lag <= m <= fill - 1``, ``m`` is within
    the counted lags and ``min_repetitions`` periods of ``m`` fit in the
    ``fill`` events of the window; with ``require_full_window`` nothing
    is accepted before the window is full.
    """
    if require_full_window and fill < window:
        return 0
    for m in range(min_lag, len(counts)):
        if m <= fill - 1 and fill >= min_repetitions * m and counts[m] == 0:
            return m
    return 0


def advance(
    history,
    chunk,
    window: int,
    max_lag: int,
    min_lag: int,
    min_repetitions: int,
    require_full_window: bool,
) -> tuple[list[int], list[int]]:
    """Feed ``chunk`` after ``history`` (the ring contents, oldest first).

    Returns ``(fundamentals, counts)``: the first matching lag after each
    event of ``chunk``, and the counts of the final window.
    """
    seen = [int(v) for v in history]
    fundamentals = []
    counts = mismatch_counts(seen[-window:], max_lag)
    for value in chunk:
        seen.append(int(value))
        current = seen[-window:]
        counts = mismatch_counts(current, max_lag)
        fundamentals.append(
            first_match(
                counts,
                len(current),
                window,
                min_lag,
                min_repetitions,
                require_full_window,
            )
        )
    return fundamentals, counts
