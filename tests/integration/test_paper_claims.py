"""End-to-end reproduction checks of the paper's headline claims.

These tests run the same code paths as the ``benchmarks/`` suite but with
moderately reduced sizes so the whole test suite stays fast; the full-size
runs live in the benchmark harness.
"""

import numpy as np
import pytest

from repro.bench.figures import run_figure4, run_figure7
from repro.bench.table2 import run_table2
from repro.bench.table3 import run_table3
from repro.bench.workloads import ft_like_application
from repro.core.api import DPDInterface
from repro.core.multiperiod import MultiScaleConfig, MultiScaleEventDetector
from repro.runtime.application import ApplicationRunner
from repro.runtime.ditools import DIToolsInterposer
from repro.runtime.machine import Machine
from repro.selfanalyzer.analyzer import SelfAnalyzer, SelfAnalyzerConfig
from repro.traces.spec_apps import PAPER_TABLE2, all_spec_models


class TestTable2Claims:
    """Table 2: the DPD identifies the periodicities of all five applications."""

    @pytest.mark.parametrize("name", ["apsi", "swim", "tomcatv"])
    def test_single_level_applications(self, name, spec_models):
        model = spec_models[name]
        detector = MultiScaleEventDetector(MultiScaleConfig(window_sizes=(16, 64)))
        detector.process(model.generate(1200).values)
        assert tuple(detector.detected_periods) == PAPER_TABLE2[name][1]

    def test_turb3d_nested(self, spec_models):
        model = spec_models["turb3d"]
        detector = MultiScaleEventDetector(MultiScaleConfig(window_sizes=(16, 64, 1024)))
        detector.process(model.generate().values)  # full length: 1580
        assert tuple(detector.detected_periods) == (12, 142)

    def test_hydro2d_nested(self, spec_models):
        model = spec_models["hydro2d"]
        detector = MultiScaleEventDetector(MultiScaleConfig(window_sizes=(16, 64, 1024)))
        # 8 outer iterations are enough for every scale to lock.
        detector.process(model.generate(269 * 10).values)
        assert tuple(detector.detected_periods) == (1, 24, 269)

    def test_full_table2_with_reduced_nested_lengths(self):
        rows = run_table2(window_sizes=(16, 64, 1024), length_override=None)
        # Reuse the bench at full length only for the three short streams;
        # this assertion is the paper's Table 2, reproduced exactly.
        for row in rows:
            assert row.matches, f"{row.application}: {row.detected_periods} != {row.paper_periods}"


class TestFigureClaims:
    def test_figure4_period_44(self):
        fig4 = run_figure4(iterations=16)
        assert fig4.detected_period == fig4.paper_period == 44

    def test_figure7_segmentation_marks_outer_period_apart(self):
        panels = run_figure7(events_per_panel=300, window_sizes=(16, 64, 1024))
        for panel in panels:
            outer = max(panel.paper_periods)
            starts = np.asarray(panel.segment_starts)
            assert starts.size >= 2, panel.application
            assert outer in set(np.diff(starts)), panel.application


class TestTable3Claims:
    def test_overhead_is_small_fraction_of_execution(self):
        rows = run_table3(length_override=2000)
        for row in rows:
            assert row.percentage < 10.0
            assert row.time_per_elem_ms < 5.0

    def test_large_window_costs_more_per_element(self):
        # Same shape as the paper's 0.004 ms vs ~0.11 ms split: the data
        # window size drives the per-element cost.  The incremental
        # detectors narrowed the gap enormously (the update is O(M) slice
        # arithmetic either way), so the ordering is only measurable once
        # the large window has actually filled; compare the same nested
        # trace at both window sizes in steady state, taking the minimum
        # over repeats to suppress scheduler noise.  The two sizes
        # alternate inside each repeat, so a slow spell of the machine
        # lands on both instead of on all three runs of one size.
        from repro.bench.table3 import measure_dpd_processing_time
        from repro.traces.spec_apps import all_spec_models

        model = {m.name: m for m in all_spec_models()}["hydro2d"]
        values = [int(v) for v in model.generate(6000).values]
        small_runs, large_runs = [], []
        for _ in range(3):
            small_runs.append(measure_dpd_processing_time(values, 100))
            large_runs.append(measure_dpd_processing_time(values, 1024))
        small_window_cost = min(small_runs)
        large_window_cost = min(large_runs)
        assert large_window_cost > small_window_cost


class TestSelfAnalyzerClaim:
    """Section 5: the DPD segmentation lets the SelfAnalyzer compute speedup."""

    def test_speedup_matches_analytic_model(self):
        app = ft_like_application(iterations=25)
        interposer = DIToolsInterposer()
        runner = ApplicationRunner(app, machine=Machine(16), interposer=interposer, cpus=12)
        analyzer = SelfAnalyzer(
            SelfAnalyzerConfig(baseline_cpus=1, dpd_window_size=64, total_iterations_hint=25)
        )
        analyzer.attach(interposer, runner)
        runner.run()
        measured = analyzer.speedup_of_main_region()
        assert measured == pytest.approx(app.analytic_speedup(12), rel=0.05)

    def test_interface_semantics_of_table1(self):
        """DPD(sample) returns non-zero exactly at period starts (Table 1)."""
        model = all_spec_models()[3]  # tomcatv
        dpd = DPDInterface(window_size=100)
        stream = model.generate(800).values
        returns = np.array([dpd.dpd(int(v)) for v in stream])
        nonzero = returns[returns > 0]
        assert set(nonzero.tolist()) == {5}
        starts = np.flatnonzero(returns > 0)
        assert set(np.diff(starts).tolist()) == {5}
