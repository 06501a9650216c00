"""The output gate: every run checks what the program produced.

Each check returns a list of human-readable problems; an empty list
means the outputs are correct.  ``run.py`` fails the command when any
check of a run reports a problem.
"""

from __future__ import annotations

from typing import Mapping


class SeqTracker:
    """Per-stream check that delivered ``seq`` numbers run 0, 1, 2, ...

    Fed one event at a time as the subscriber receives them, so a
    subscriber never has to keep every event of a long run.
    """

    def __init__(self) -> None:
        self.next_seq: dict[str, int] = {}
        self.problems: list[str] = []
        self.delivered = 0

    def see(self, stream: str, seq: int) -> None:
        expected = self.next_seq.get(stream, 0)
        if seq != expected and len(self.problems) < 20:
            self.problems.append(f"{stream}: seq {seq} delivered, expected {expected}")
        self.next_seq[stream] = seq + 1
        self.delivered += 1


def check_periods(
    observed: Mapping[str, int | None], expected: Mapping[str, int | None]
) -> tuple[float, list[str]]:
    """Share of streams whose ``observed`` period equals ``expected``.

    Returns ``(accuracy, problems)``; a stream missing from ``observed``
    counts as wrong.
    """
    if not expected:
        return 0.0, ["no streams to check"]
    wrong = [
        f"{sid}: period {observed.get(sid)!r}, expected {period!r}"
        for sid, period in expected.items()
        if observed.get(sid) != period
    ]
    return 1.0 - len(wrong) / len(expected), wrong[:20]


def check_events(
    delivered: Mapping[str, list[tuple[int, int, int]]],
    reference: Mapping[str, list[tuple[int, int, int]]],
) -> list[str]:
    """Delivered ``(seq, index, period)`` per stream must equal the
    reference run's, event for event."""
    problems = []
    for sid in sorted(set(delivered) | set(reference)):
        got, want = delivered.get(sid, []), reference.get(sid, [])
        if got == want:
            continue
        first = next(
            (i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want))
        )
        problems.append(
            f"{sid}: {len(got)} events delivered, {len(want)} in the reference; "
            f"first difference at event {first}: "
            f"{got[first] if first < len(got) else None} vs "
            f"{want[first] if first < len(want) else None}"
        )
        if len(problems) >= 20:
            break
    return problems


def check_period_starts(
    starts: list[tuple[int, int]], period: int, first: int, last: int
) -> list[str]:
    """In-process ``DPD()`` calls: inside sample indices ``[first, last]``
    every call that returned a period start must report ``period``, and
    the starts must fall exactly ``period`` samples apart with none
    missing at either end."""
    if not starts:
        return [f"no period start in samples {first}..{last}"]
    problems = [f"sample {i}: period {p}, expected {period}" for i, p in starts if p != period]
    indices = [i for i, _ in starts]
    gaps = [(a, b) for a, b in zip(indices, indices[1:]) if b - a != period]
    problems += [f"period starts at {a} and {b} are not {period} apart" for a, b in gaps[:5]]
    if indices[0] - first >= period or last - indices[-1] >= period:
        problems.append(
            f"period starts {indices[0]}..{indices[-1]} do not cover samples {first}..{last}"
        )
    return problems[:20]
