#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dpd-single --seed 1 --seconds 20 --trace 0

Prints provenance, every end-to-end metric (``--trace 0``) or every
per-layer metric (``--trace 1``) with its unit, the output-gate verdict,
and as the last line one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The metric names and units are the ones ``BENCHMARK.json`` declares.
Exits 1 when an output check fails or an operation fails or is refused
(ERROR, BUSY, timeout, lost connection), and 2 when the run cannot be
set up (for example without the ``src/`` tree next to ``perfbench/``).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import common  # noqa: E402
from perfbench.common import BenchError  # noqa: E402

#: Hard stop well inside the 180 s a run may take.
RUN_LIMIT_S = 170


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _on_alarm(signum, frame):
    raise BenchError(f"run exceeded {RUN_LIMIT_S} s")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_LIMIT_S)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        common.ensure_repro()
        from repro import kernels

        from perfbench import workloads

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(
                f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}"
            )
        backend = kernels.backend_name()
        outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    except common.OperationsFailed as exc:
        print(f"output gate: FAIL (operations failed)\n  - {exc}")
        print(json.dumps({"correct": False, "attempted": exc.attempted,
                          "failed": exc.failed, "metrics": {}}))
        return 1
    except (BenchError, OSError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)

    prov = common.provenance(args.workload, args.seed, backend)
    prov.update(
        {k: v for k, v in outcome.details.items() if k in
         ("kernel_backend", "lockstep_backend", "offered_rate_samples_per_s", "request_shape")}
    )
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print("run: " + json.dumps(
        {k: v for k, v in outcome.details.items() if k not in prov}, sort_keys=True, default=str
    ))

    print(f"end-to-end metrics ({args.workload}{', traced half' if args.trace else ''}):")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update({"error_rate": "ratio", "lock_accuracy": "ratio"})
    for name, value in outcome.metrics.items():
        print(f"  {name:<22} {_fmt(value):>14} {units.get(name, '')}")

    if args.trace:
        print("per-layer metrics (traced half):")
        for metric in spec["per_layer"]:
            name = metric["name"]
            value = (outcome.layers or {}).get(name, 0)
            why = outcome.absent.get(name)
            note = f"  (absent: {why})" if why else ""
            print(f"  {name:<28} {_fmt(value):>14} {metric['unit']}{note}")
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
    metrics = {
        m["name"]: {
            "value": float((outcome.layers or {}).get(m["name"], 0) if args.trace
                           else outcome.metrics[m["name"]]),
            "unit": m["unit"],
        }
        for m in wanted
    }

    for flag in outcome.details.get("flags", []):
        print(f"FLAG: {flag}")
    correct = not outcome.problems
    if correct:
        print("output gate: pass")
    else:
        print(f"output gate: FAIL ({len(outcome.problems)} problems)")
        for problem in outcome.problems[:40]:
            print(f"  - {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
