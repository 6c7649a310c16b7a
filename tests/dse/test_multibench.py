"""MultiBenchmarkExplorer: shared-pool multi-benchmark sweeps."""

import numpy as np
import pytest

from repro.dse.cache import ANALYSIS_CACHE
from repro.dse.engine import MultiBenchmarkExplorer, explore
from repro.dse.space import DesignPoint
from repro.errors import SimulationError

SIZES = {
    "gemm": {"m": 256, "n": 256, "p": 256},
    "sumrows": {"m": 2048, "n": 256},
}


@pytest.fixture(autouse=True)
def _fresh_cache():
    ANALYSIS_CACHE.clear()
    yield
    ANALYSIS_CACHE.clear()


class TestMultiBenchmarkExplorer:
    def test_one_result_per_benchmark(self):
        results = MultiBenchmarkExplorer(["gemm", "sumrows"], sizes=SIZES).run()
        assert set(results) == {"gemm", "sumrows"}
        for name, result in results.items():
            assert result.benchmark == name
            assert result.evaluated
            assert result.strategy == "exhaustive"

    def test_matches_single_benchmark_explore(self):
        """The shared-pool sweep returns the same numbers as per-benchmark
        explore() — interleaving changes scheduling, never results."""
        multi = MultiBenchmarkExplorer(["gemm", "sumrows"], sizes=SIZES).run()
        for name in ("gemm", "sumrows"):
            ANALYSIS_CACHE.clear()
            single = explore(name, sizes=SIZES[name])
            single_map = {r.point: r for r in single.evaluated}
            assert len(multi[name].evaluated) == len(single.evaluated)
            for result in multi[name].evaluated:
                reference = single_map[result.point]
                assert result.cycles == reference.cycles
                assert result.logic == reference.logic
                assert result.read_bytes == reference.read_bytes

    def test_shared_pool_matches_serial(self):
        serial = MultiBenchmarkExplorer(["gemm", "sumrows"], sizes=SIZES).run()
        ANALYSIS_CACHE.clear()
        pooled = MultiBenchmarkExplorer(["gemm", "sumrows"], sizes=SIZES, workers=2).run()
        for name in ("gemm", "sumrows"):
            assert pooled[name].workers == 2
            serial_map = {r.point: r for r in serial[name].evaluated}
            assert len(pooled[name].evaluated) == len(serial_map)
            for result in pooled[name].evaluated:
                assert result.cycles == serial_map[result.point].cycles

    def test_search_strategy_with_budget_per_lane(self):
        results = MultiBenchmarkExplorer(
            ["gemm", "sumrows"],
            sizes=SIZES,
            strategy="annealing",
            eval_fraction=0.3,
        ).run()
        for name, result in results.items():
            survivors = result.space_size - len(result.pruned)
            assert result.strategy == "annealing"
            assert 0 < len(result.evaluated) <= max(1, int(0.3 * survivors))

    def test_deterministic_under_seed(self):
        first = MultiBenchmarkExplorer(
            ["gemm", "sumrows"], sizes=SIZES, strategy="annealing", eval_fraction=0.3, search_seed=4
        ).run()
        ANALYSIS_CACHE.clear()
        second = MultiBenchmarkExplorer(
            ["gemm", "sumrows"], sizes=SIZES, strategy="annealing", eval_fraction=0.3, search_seed=4
        ).run()
        for name in ("gemm", "sumrows"):
            assert [r.point for r in first[name].evaluated] == [
                r.point for r in second[name].evaluated
            ]

    def test_stochastic_strategy_matches_standalone_explore(self):
        """The shared pool is a pure scheduling optimization: for the same
        search_seed, every lane evaluates exactly the points a standalone
        explore() would — even for stochastic strategies."""
        multi = MultiBenchmarkExplorer(
            ["gemm", "sumrows"], sizes=SIZES, strategy="annealing",
            eval_fraction=0.3, search_seed=5,
        ).run()
        for name in ("gemm", "sumrows"):
            ANALYSIS_CACHE.clear()
            single = explore(
                name, sizes=SIZES[name], strategy="annealing",
                eval_fraction=0.3, search_seed=5,
            )
            assert [r.point for r in multi[name].evaluated] == [
                r.point for r in single.evaluated
            ]

    def test_disk_cache_round_trip(self, tmp_path):
        store = tmp_path / "analysis.pkl"
        MultiBenchmarkExplorer(["gemm"], sizes=SIZES, disk_cache=store).run()
        assert store.exists()
        ANALYSIS_CACHE.clear()
        MultiBenchmarkExplorer(["gemm"], sizes=SIZES, disk_cache=store).run()
        stats = ANALYSIS_CACHE.stats()["point_results"]
        assert stats["hits"] > 0 and stats["misses"] == 0

    def test_pooled_run_still_persists_point_results(self, tmp_path):
        """Workers memoise in forked copies of the cache; the parent must
        seed its own point_results from the shipped-back results, or the
        disk store of a parallel sweep would be empty."""
        store = tmp_path / "analysis.pkl"
        MultiBenchmarkExplorer(
            ["gemm", "sumrows"], sizes=SIZES, workers=2, disk_cache=store
        ).run()
        assert store.exists()
        ANALYSIS_CACHE.clear()
        warm = MultiBenchmarkExplorer(["gemm", "sumrows"], sizes=SIZES, disk_cache=store).run()
        stats = ANALYSIS_CACHE.stats()["point_results"]
        assert stats["misses"] == 0
        assert stats["hits"] == sum(len(r.evaluated) for r in warm.values())

    @pytest.mark.parametrize(
        "cycle_model, outcome", [("analytical", "vector"), ("event", "vector")]
    )
    def test_every_lane_reports_batch_engagement(self, cycle_model, outcome):
        results = MultiBenchmarkExplorer(
            ["gemm", "sumrows"], sizes=SIZES, cycle_model=cycle_model, max_evaluations=4
        ).run()
        for result in results.values():
            assert result.batch_engagement == {outcome: len(result.evaluated)}

    def test_unknown_cycle_model_raises_before_any_evaluation(self):
        """An unknown backend would fail every point alike, so it is
        refused up front instead of quarantining the whole space."""
        with pytest.raises(SimulationError, match="unknown cycle model 'bogus'"):
            explore("outerprod", sizes={"m": 64, "n": 64}, cycle_model="bogus")
        with pytest.raises(SimulationError, match="unknown cycle model 'bogus'"):
            MultiBenchmarkExplorer(["gemm", "sumrows"], sizes=SIZES, cycle_model="bogus").run()
        assert ANALYSIS_CACHE.misses.get("point_results", 0) == 0

    def test_pareto_fronts_are_per_benchmark(self):
        results = MultiBenchmarkExplorer(["gemm", "sumrows"], sizes=SIZES).run()
        gemm_points = {r.point for r in results["gemm"].evaluated}
        for result in results["sumrows"].evaluated:
            # sumrows tiles (m, n) only — no 'p' gene may leak across lanes.
            assert "p" not in dict(result.point.tile_sizes)
        assert all(isinstance(p, DesignPoint) for p in gemm_points)
