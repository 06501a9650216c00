"""End-to-end benchmark of the detector, the ``repro serve`` daemon and
the ``repro route`` tier, with a traced per-layer run.

Run it from the repository root::

    python3 perfbench/run.py --workload fleet-lockstep --seed 1 --seconds 20 --trace 0

``perfbench/README.md`` explains the workloads, the metrics and what is
deliberately left unmeasured.
"""
