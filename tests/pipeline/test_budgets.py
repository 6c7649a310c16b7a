"""Per-pass timing budgets."""

import numpy as np
import pytest

from repro.apps import get_benchmark
from repro.config import CompileConfig
from repro.dse.cache import ANALYSIS_CACHE, AnalysisCache
from repro.pipeline import Session
from repro.utils.naming import reset_names


@pytest.fixture(autouse=True)
def _fresh(request):
    reset_names()
    ANALYSIS_CACHE.clear()
    yield
    ANALYSIS_CACHE.clear()
    reset_names()


def _workload(name="gemm"):
    bench = get_benchmark(name)
    bindings = bench.bindings(rng=np.random.default_rng(0))
    config = CompileConfig(
        tiling=True, metapipelining=True, tile_sizes=dict(bench.tile_sizes)
    )
    return bench, bindings, config


class TestBudgets:
    def test_records_carry_budgets(self):
        bench, bindings, config = _workload()
        session = Session(cache=AnalysisCache())
        result = session.compile(bench.build(), config, bindings)
        for record in result.report.records:
            assert record.budget_seconds > 0

    def test_over_budget_flags_slow_uncached_passes(self):
        from repro.pipeline.pipeline import PassRecord

        slow = PassRecord(
            name="slow", seconds=1.0, cached=False, nodes_before=1, nodes_after=1,
            changed=False, budget_seconds=0.05,
        )
        cached = PassRecord(
            name="cached", seconds=1.0, cached=True, nodes_before=1, nodes_after=1,
            changed=False, budget_seconds=0.05,
        )
        fast = PassRecord(
            name="fast", seconds=0.01, cached=False, nodes_before=1, nodes_after=1,
            changed=False, budget_seconds=0.05,
        )
        assert slow.over_budget
        assert not cached.over_budget  # cache hits are not the pass's cost
        assert not fast.over_budget

    def test_report_lists_over_budget_passes(self):
        bench, bindings, config = _workload()
        session = Session(cache=AnalysisCache())
        result = session.compile(bench.build(), config, bindings)
        report = result.report
        for record in report.records:
            record.budget_seconds = 1e-9  # force every uncached pass over
        assert report.over_budget()
        assert all(not r.cached for r in report.over_budget())
        assert "!" in report.table()

    def test_figure7_pass_table_has_budget_column_and_warns(self, monkeypatch):
        from repro.evaluation.figure7 import run_figure7
        from repro.pipeline.passes import PipelinePass

        report = run_figure7(benchmarks=["sumrows"], report_passes=True)
        table = report.pass_table()
        assert "budget" in table.splitlines()[0]

        # With an impossible budget every uncached pass breaches, the table
        # flags it and the harness raises the RuntimeWarning.
        monkeypatch.setattr(PipelinePass, "budget_seconds", 1e-12)
        with pytest.warns(RuntimeWarning, match="exceeded their time budget"):
            breached = run_figure7(benchmarks=["sumrows"], report_passes=True)
        assert "!" in breached.pass_table()
