"""Evaluation harness: Figure 7 and Figure 5c reproduction checks (small workloads)."""

import pytest

from repro.evaluation.figure5c import paper_formulas, run_figure5c
from repro.evaluation.figure7 import PAPER_FIGURE7, run_benchmark, run_figure7

SMALL_SIZES = {
    "outerprod": {"m": 1024, "n": 1024},
    "sumrows": {"m": 4096, "n": 256},
    "gemm": {"m": 256, "n": 256, "p": 256},
    "tpchq6": {"n": 262144},
    "gda": {"n": 4096, "d": 16},
    "kmeans": {"n": 8192, "k": 16, "d": 16},
}


class TestFigure7Harness:
    def test_single_benchmark_result(self):
        result = run_benchmark("kmeans", sizes=SMALL_SIZES["kmeans"])
        assert result.speedup_tiling > 1.0
        assert result.speedup_metapipelining >= result.speedup_tiling * 0.95
        assert set(result.tiling.relative_resources) == {"logic", "FF", "mem"}

    def test_report_tables_render(self):
        report = run_figure7(benchmarks=["tpchq6", "gda"], sizes_override=SMALL_SIZES)
        table = report.speedup_table()
        assert "tpchq6" in table and "gda" in table
        assert "paper" in table
        resources = report.resource_table()
        assert "logic" in resources
        assert set(report.as_dict()) == {"tpchq6", "gda"}

    def test_locality_benchmarks_beat_streaming_benchmarks(self):
        report = run_figure7(benchmarks=["tpchq6", "kmeans"], sizes_override=SMALL_SIZES)
        streaming = report.result("tpchq6").speedup_metapipelining
        locality = report.result("kmeans").speedup_metapipelining
        assert locality > 3 * streaming

    def test_paper_reference_values_present(self):
        assert set(PAPER_FIGURE7) == {"outerprod", "sumrows", "gemm", "tpchq6", "gda", "kmeans"}

    def test_dse_strategy_flag_attaches_best_point(self):
        report = run_figure7(
            benchmarks=["gemm", "sumrows"],
            sizes_override=SMALL_SIZES,
            dse_strategy="annealing",
            dse_eval_fraction=0.25,
        )
        for result in report.results:
            assert result.dse_strategy == "annealing"
            assert result.dse_best is not None
            assert result.dse_evaluations > 0
            assert result.speedup_dse is not None and result.speedup_dse > 0
            assert "dse-best" in result.speedups()
        assert "dse-best" in report.speedup_table()

    def test_dse_shared_pool_matches_per_benchmark_exploration(self):
        shared = run_figure7(
            benchmarks=["gemm", "sumrows"],
            sizes_override=SMALL_SIZES,
            dse_strategy="exhaustive",
            dse_eval_fraction=None,
            dse_shared_pool=True,
        )
        separate = run_figure7(
            benchmarks=["gemm", "sumrows"],
            sizes_override=SMALL_SIZES,
            dse_strategy="exhaustive",
            dse_eval_fraction=None,
            dse_shared_pool=False,
        )
        for name in ("gemm", "sumrows"):
            a, b = shared.result(name), separate.result(name)
            assert a.dse_best.point == b.dse_best.point
            assert a.dse_best.cycles == b.dse_best.cycles

    def test_without_dse_flag_table_has_no_dse_column(self):
        report = run_figure7(benchmarks=["gemm"], sizes_override=SMALL_SIZES)
        assert report.results[0].dse_best is None
        assert "dse-best" not in report.speedup_table()

    def test_report_passes_surfaces_pipeline_reports(self):
        report = run_figure7(
            benchmarks=["gemm"], sizes_override=SMALL_SIZES, report_passes=True
        )
        result = report.results[0]
        for config_result in (result.baseline, result.tiling, result.metapipelining):
            pipeline_report = config_result.pipeline_report
            assert pipeline_report is not None
            assert [r.name for r in pipeline_report.records][:2] == ["fusion", "strip-mine"]
        table = report.pass_table()
        assert "strip-mine" in table and "generate-hardware" in table

    def test_reports_dropped_by_default(self):
        report = run_figure7(benchmarks=["gemm"], sizes_override=SMALL_SIZES)
        result = report.results[0]
        assert result.baseline.pipeline_report is None
        assert report.pass_table().count("\n") == 1  # header + rule only


class TestCycleModelKnob:
    def test_event_cycle_model_runs_end_to_end(self):
        report = run_figure7(
            benchmarks=["sumrows"], sizes_override=SMALL_SIZES, cycle_model="event"
        )
        result = report.result("sumrows")
        assert result.cycle_model == "event"
        for config_result in (result.baseline, result.tiling, result.metapipelining):
            assert config_result.simulation.cycle_model == "event"
            assert config_result.simulation.cycles > 0
        assert result.speedup_metapipelining > 0

    def test_dse_best_is_a_point_result(self):
        from repro.dse.results import PointResult

        report = run_figure7(
            benchmarks=["gemm"],
            sizes_override=SMALL_SIZES,
            dse_strategy="annealing",
            dse_eval_fraction=0.25,
        )
        assert isinstance(report.results[0].dse_best, PointResult)

    def test_exhaustive_strategy_ignores_default_eval_fraction(self):
        """The default dse_eval_fraction must not truncate an exhaustive
        sweep to an enumeration-order prefix."""
        defaulted = run_figure7(
            benchmarks=["gemm"], sizes_override=SMALL_SIZES, dse_strategy="exhaustive"
        )
        unbounded = run_figure7(
            benchmarks=["gemm"],
            sizes_override=SMALL_SIZES,
            dse_strategy="exhaustive",
            dse_eval_fraction=None,
        )
        a, b = defaulted.result("gemm"), unbounded.result("gemm")
        assert a.dse_evaluations == b.dse_evaluations
        assert a.dse_best.point == b.dse_best.point


class TestFigure5cHarness:
    def test_default_sizes_match_paper_formulas(self):
        report = run_figure5c()
        assert report.all_match
        assert report.row("interchanged", "centroids").reads < report.row("fused", "centroids").reads

    def test_formula_evaluation(self):
        sizes = {"n": 1024, "k": 32, "d": 8}
        tiles = {"n": 64, "k": 8}
        formulas = paper_formulas(sizes, tiles)
        assert formulas["fused"]["centroids"]["reads"] == 1024 * 32 * 8
        assert formulas["interchanged"]["centroids"]["reads"] == (1024 // 64) * 32 * 8
        assert formulas["interchanged"]["minDistWithIndex"]["storage"] == 2 * 64

    def test_alternate_tile_sizes_still_match(self):
        report = run_figure5c(sizes={"n": 2048, "k": 16, "d": 8}, tiles={"n": 64, "k": 4})
        assert report.all_match
