"""The output gate rejects injected seq gaps and wrong periods, and a
failing gate makes the command exit non-zero."""

from __future__ import annotations

import json

from perfbench import common, gate, run, workloads


def _seq_problems(seqs_by_stream):
    tracker = gate.SeqTracker()
    for stream, seqs in seqs_by_stream.items():
        for seq in seqs:
            tracker.see(stream, seq)
    return tracker.problems


def test_contiguous_seqs_pass():
    assert _seq_problems({"a": [0, 1, 2], "b": [0]}) == []


def test_injected_seq_gap_is_rejected():
    problems = _seq_problems({"a": [0, 1, 3, 4], "b": [0, 1]})
    assert len(problems) == 1 and "a: seq 3" in problems[0]


def test_seqs_must_start_at_zero():
    assert _seq_problems({"a": [1, 2]})


def test_wrong_period_is_rejected():
    accuracy, problems = gate.check_periods({"a": 4, "b": 7}, {"a": 4, "b": 8})
    assert accuracy == 0.5
    assert len(problems) == 1 and problems[0].startswith("b:")


def test_missing_stream_counts_as_wrong():
    accuracy, problems = gate.check_periods({}, {"a": 4})
    assert accuracy == 0.0 and problems


def test_event_mismatch_is_rejected():
    reference = {"a": [(0, 10, 5), (1, 15, 5)]}
    assert gate.check_events({"a": [(0, 10, 5), (1, 15, 5)]}, reference) == []
    assert gate.check_events({"a": [(0, 10, 5), (1, 15, 6)]}, reference)
    assert gate.check_events({"a": [(0, 10, 5)]}, reference)
    assert gate.check_events({"a": reference["a"], "b": [(0, 3, 3)]}, reference)


def test_period_starts_need_every_boundary():
    starts = [(i, 5) for i in range(2, 40, 5)]
    assert gate.check_period_starts(starts, 5, 0, 39) == []
    assert gate.check_period_starts(starts[:3] + starts[4:], 5, 0, 39)  # one missing
    assert gate.check_period_starts(starts[:-2], 5, 0, 39)  # stops early
    assert gate.check_period_starts([(2, 5), (7, 6)], 5, 0, 9)  # wrong period


def test_injected_missing_period_start_fails_the_command(monkeypatch, capsys):
    """A real, short ``dpd-single`` run whose DPD() drops one period start."""
    from repro.core.api import DPDInterface

    real = DPDInterface.dpd
    state = {"dropped": False}

    def dropping(self, sample):
        period = real(self, sample)
        if period and self.calls > workloads.DPD_WARMUP + 100 and not state["dropped"]:
            state["dropped"] = True
            return 0
        return period

    monkeypatch.setattr(DPDInterface, "dpd", dropping)
    code = run.main(["--workload", "dpd-single", "--seed", "3", "--seconds", "0.5"])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert state["dropped"]
    assert code == 1
    assert result["correct"] is False
    assert "output gate: FAIL" in out


def test_clean_run_passes_the_gate(monkeypatch, capsys):
    code = run.main(["--workload", "dpd-single", "--seed", "3", "--seconds", "0.5"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0


def test_failed_operations_fail_the_gate():
    phase = workloads.Phase(workloads.Timeline(1.0, lambda: 0.0), attempted=10, failed=1)
    out = workloads.Outcome()
    out.add(phase)
    assert out.failed == 1 and out.problems


def test_lost_operation_prints_the_verdict_and_exits_1(monkeypatch, capsys):
    def lost(seed, seconds, trace):
        raise common.OperationsFailed("request 3: ConnectionResetError()", 4, 1)

    monkeypatch.setitem(workloads.WORKLOADS, "dpd-single", lost)
    code = run.main(["--workload", "dpd-single", "--seed", "3", "--seconds", "0.5"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result == {"correct": False, "attempted": 4, "failed": 1, "metrics": {}}
