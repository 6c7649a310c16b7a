"""Search strategies: Pareto invariants, budget discipline, determinism.

The property-style tests run the strategies against a *synthetic* design
space whose objectives are closed-form functions of the genes — evaluating
a point costs nanoseconds, so hundreds of search trajectories and a
500-point sweep stay cheap — plus a handful of end-to-end checks against
the real engine on a small gemm space.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse.engine import PointResult
from repro.dse.search import (
    AnnealingStrategy,
    ExhaustiveStrategy,
    SpaceAxes,
    available_strategies,
    get_strategy,
    hypervolume,
    run_search,
)
from repro.dse.space import DesignPoint, DesignSpace, default_space


def synthetic_space(
    extent_m: int = 256, extent_n: int = 256, channels=(1,)
) -> DesignSpace:
    return default_space(
        {"m": extent_m, "n": extent_n},
        pars=(4, 8, 16, 32),
        max_tiles_per_dim=3,
        channels=channels,
    )


def synthetic_result(point: DesignPoint) -> PointResult:
    """A deterministic, gene-smooth objective landscape.

    Cycles fall with parallelism and with tile sizes near a sweet spot;
    utilization rises with parallelism and tile footprint — so the Pareto
    front trades the two off, and single-gene moves see a smooth surface
    (annealing can converge, which the subset-of-grid-front invariant
    relies on).  More DRAM channels cut cycles and cost utilization; one
    channel leaves both untouched.
    """
    tiles = point.tiles
    tile_m = tiles.get("m", 1)
    tile_n = tiles.get("n", 1)
    sweet = 1.0 + 0.25 * abs(math.log2(max(tile_m, 1)) - 6)
    meta_gain = 0.7 if point.metapipelining else 1.0
    baseline_penalty = 2.0 if not point.tiling else 1.0
    channels = point.dram_channels
    cycles = 1.0e6 / point.par * sweet * meta_gain * baseline_penalty
    cycles /= math.sqrt(channels)
    util = 0.02 * point.par + 0.15 * math.log2(max(tile_m * tile_n, 2)) / 16.0
    util += 0.05 * (channels - 1)
    return PointResult(point=point, cycles=cycles, utilization={"logic": util})


def synthetic_evaluate(points):
    return [synthetic_result(p) for p in points]


def dominated_by_any(candidate: PointResult, others) -> bool:
    def area(r):
        return r.max_utilization if r.utilization else r.logic

    return any(
        (o.cycles <= candidate.cycles and area(o) <= area(candidate))
        and (o.cycles < candidate.cycles or area(o) < area(candidate))
        for o in others
    )


class TestSpaceAxes:
    def test_axes_cover_the_space_genes(self):
        space = synthetic_space()
        axes = SpaceAxes.from_space(space)
        assert axes.pars == (4, 8, 16, 32)
        assert axes.metas == (False, True)
        assert dict(axes.tile_values).keys() == {"m", "n"}

    def test_neighbors_are_in_space_and_one_gene_away(self):
        space = synthetic_space()
        axes = SpaceAxes.from_space(space)
        members = set(space)
        for point in list(space)[:40]:
            for neighbor in axes.neighbors(point):
                assert neighbor in members
                assert neighbor != point

    def test_baseline_connects_to_tiled_region(self):
        space = synthetic_space()
        axes = SpaceAxes.from_space(space)
        baseline = DesignPoint.make(None, par=8)
        neighbors = axes.neighbors(baseline)
        assert any(n.tiling for n in neighbors)

    def test_mutation_is_deterministic_under_seed(self):
        space = synthetic_space()
        axes = SpaceAxes.from_space(space)
        point = list(space)[10]
        first = axes.mutate(point, np.random.default_rng(5))
        second = axes.mutate(point, np.random.default_rng(5))
        assert first == second

    def test_channel_axis_defaults_to_one(self):
        axes = SpaceAxes.from_space(synthetic_space())
        assert axes.channels == (1,)

    def test_anchors_cover_channel_extremes(self):
        space = default_space({"m": 256}, pars=(4, 8), channels=(1, 2, 4))
        axes = SpaceAxes.from_space(space)
        anchor_channels = {point.dram_channels for point in axes.anchors()}
        assert anchor_channels == {1, 4}

    def test_neighbors_step_the_channel_count_one_position(self):
        space = default_space({"m": 256}, pars=(4, 8), channels=(1, 2, 4))
        axes = SpaceAxes.from_space(space)

        def at(nch):
            return DesignPoint.make({"m": 128}, par=4, dram_channels=nch)

        middle = axes.neighbors(at(2))
        assert at(1) in middle and at(4) in middle
        low = axes.neighbors(at(1))
        assert at(2) in low
        assert {n.dram_channels for n in low} == {1, 2}

    def test_search_rng_stream_is_stable_in_single_channel_spaces(self):
        """A space where every point has dram_channels == 1 offers no
        channel moves: a seeded annealing run stays on one channel and
        repeats its trajectory exactly."""
        space = synthetic_space()
        first = run_search(
            "annealing", space, synthetic_evaluate, seed=11, max_evaluations=40
        )
        second = run_search(
            "annealing", space, synthetic_evaluate, seed=11, max_evaluations=40
        )
        assert [r.point for r in first.evaluated] == [
            r.point for r in second.evaluated
        ]
        assert {r.point.dram_channels for r in first.evaluated} == {1}


class TestParetoUtilities:
    def test_hypervolume_hand_example(self):
        # Front {(1, 3), (2, 1)} against reference (4, 4):
        # (4-1)*(4-3) rectangle split at cycles=2 → (2-1)*(4-3) + (4-2)*(4-1) = 7
        results = [
            PointResult(DesignPoint.make({"m": 16}), cycles=1, utilization={"l": 3.0}),
            PointResult(DesignPoint.make({"m": 32}), cycles=2, utilization={"l": 1.0}),
        ]
        assert hypervolume(results, reference=(4.0, 4.0)) == pytest.approx(7.0)

    def test_hypervolume_ignores_points_beyond_reference(self):
        inside = PointResult(DesignPoint.make({"m": 16}), cycles=1, utilization={"l": 1.0})
        outside = PointResult(DesignPoint.make({"m": 32}), cycles=9, utilization={"l": 0.5})
        both = hypervolume([inside, outside], reference=(4.0, 4.0))
        assert both == hypervolume([inside], reference=(4.0, 4.0))

    def test_hypervolume_empty(self):
        assert hypervolume([]) == 0.0


class TestStrategyRegistry:
    def test_names_resolve(self):
        assert available_strategies() == ["annealing", "exhaustive"]
        assert isinstance(get_strategy("annealing"), AnnealingStrategy)
        assert isinstance(get_strategy("exhaustive"), ExhaustiveStrategy)
        assert isinstance(get_strategy(None), ExhaustiveStrategy)

    def test_instance_passes_through(self):
        strategy = AnnealingStrategy()
        assert get_strategy(strategy) is strategy

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown search strategy"):
            get_strategy("simulated-annealing")

    @pytest.mark.parametrize("name", ["hill-climb", "genetic"])
    def test_removed_names_raise_naming_the_remaining_two(self, name):
        with pytest.raises(ValueError, match=r"available: \['annealing', 'exhaustive'\]"):
            get_strategy(name)


class TestExhaustive:
    def test_evaluates_every_point_in_space_order(self):
        space = synthetic_space()
        outcome = run_search("exhaustive", space, synthetic_evaluate)
        assert [r.point for r in outcome.evaluated] == list(space)
        assert outcome.evaluations == len(space)

    def test_budget_trims_the_grid(self):
        space = synthetic_space()
        outcome = run_search("exhaustive", space, synthetic_evaluate, max_evaluations=10)
        assert outcome.evaluations == 10


class TestSearchInvariants:
    """Annealing's front, budget, determinism and empty-space behaviour."""

    def test_front_points_not_dominated_by_any_evaluated_point(self):
        space = synthetic_space()
        for seed in range(5):
            outcome = run_search("annealing", space, synthetic_evaluate, seed=seed)
            for result in outcome.front:
                assert not dominated_by_any(result, outcome.evaluated)

    def test_search_front_subset_of_grid_front(self):
        """With full budget on a small, smooth space the search converges:
        every returned front point is Pareto-optimal in the *whole* space."""
        space = synthetic_space()
        grid = run_search("exhaustive", space, synthetic_evaluate)
        grid_front = {r.point for r in grid.front}
        for seed in range(5):
            outcome = run_search("annealing", space, synthetic_evaluate, seed=seed)
            searched_front = {r.point for r in outcome.front}
            assert searched_front <= grid_front

    def test_deterministic_under_fixed_seed(self):
        space = synthetic_space()
        first = run_search("annealing", space, synthetic_evaluate, seed=7)
        second = run_search("annealing", space, synthetic_evaluate, seed=7)
        assert [r.point for r in first.evaluated] == [r.point for r in second.evaluated]

    def test_budget_respected_and_points_in_space(self):
        space = synthetic_space()
        members = set(space)
        budget = max(1, len(space) // 4)
        outcome = run_search("annealing", space, synthetic_evaluate, max_evaluations=budget)
        assert outcome.evaluations <= budget
        assert all(r.point in members for r in outcome.evaluated)

    def test_no_duplicate_evaluations(self):
        space = synthetic_space()
        outcome = run_search("annealing", space, synthetic_evaluate, seed=3)
        points = [r.point for r in outcome.evaluated]
        assert len(points) == len(set(points))

    def test_empty_space(self):
        outcome = run_search("annealing", DesignSpace(), synthetic_evaluate)
        assert outcome.evaluated == [] and outcome.evaluations == 0


class TestChannelGene:
    """Annealing on the synthetic space with a (1, 2, 4) DRAM-channel gene."""

    @staticmethod
    def _space() -> DesignSpace:
        return synthetic_space(channels=(1, 2, 4))

    def test_front_points_not_dominated_by_any_evaluated_point(self):
        space = self._space()
        for seed in range(5):
            outcome = run_search("annealing", space, synthetic_evaluate, seed=seed)
            for result in outcome.front:
                assert not dominated_by_any(result, outcome.evaluated)

    def test_deterministic_under_fixed_seed(self):
        space = self._space()
        first = run_search("annealing", space, synthetic_evaluate, seed=7)
        second = run_search("annealing", space, synthetic_evaluate, seed=7)
        assert [r.point for r in first.evaluated] == [r.point for r in second.evaluated]

    def test_budget_respected_and_points_in_space(self):
        space = self._space()
        members = set(space)
        budget = max(1, len(space) // 4)
        outcome = run_search("annealing", space, synthetic_evaluate, max_evaluations=budget)
        assert outcome.evaluations <= budget
        assert all(r.point in members for r in outcome.evaluated)

    def test_no_duplicate_evaluations(self):
        space = self._space()
        outcome = run_search("annealing", space, synthetic_evaluate, seed=3)
        points = [r.point for r in outcome.evaluated]
        assert len(points) == len(set(points))

    def test_every_channel_count_is_evaluated(self):
        """The anchors hold the channel extremes; walkers reach the middle."""
        space = self._space()
        budget = len(space) // 5
        for seed in range(5):
            outcome = run_search(
                "annealing", space, synthetic_evaluate, seed=seed, max_evaluations=budget
            )
            assert {r.point.dram_channels for r in outcome.evaluated} == {1, 2, 4}

    def test_reaches_most_of_the_grid_hypervolume_cheaply(self):
        space = self._space()
        grid = run_search("exhaustive", space, synthetic_evaluate)
        reference = (
            max(r.cycles for r in grid.evaluated) * 1.05,
            max(r.max_utilization for r in grid.evaluated) * 1.05,
        )
        target = hypervolume(grid.evaluated, reference)
        budget = int(0.4 * len(space))
        for seed in range(5):
            outcome = run_search(
                "annealing", space, synthetic_evaluate, seed=seed, max_evaluations=budget
            )
            assert outcome.evaluations <= budget
            achieved = hypervolume(outcome.evaluated, reference)
            assert achieved >= 0.95 * target, f"seed {seed}: {achieved / target:.1%}"


@given(seed=st.integers(0, 2**31 - 1), budget_div=st.integers(2, 8))
@settings(max_examples=20, deadline=None)
def test_property_invariants_hold_across_seeds(seed, budget_div):
    """Across random seeds and budgets: no returned point is dominated by
    any evaluated point, budgets hold, and all points come from the space."""
    space = synthetic_space()
    members = set(space)
    budget = max(1, len(space) // budget_div)
    outcome = run_search(
        "annealing", space, synthetic_evaluate, seed=seed, max_evaluations=budget
    )
    assert outcome.evaluations <= budget
    assert all(r.point in members for r in outcome.evaluated)
    for result in outcome.front:
        assert not dominated_by_any(result, outcome.evaluated)


class TestSearchQuality:
    def test_searches_reach_most_of_the_grid_hypervolume_cheaply(self):
        """The bench_dse acceptance targets, on the synthetic landscape:
        ≥95% of the exhaustive hypervolume from ≤40% of the evaluations."""
        space = synthetic_space()
        grid = run_search("exhaustive", space, synthetic_evaluate)
        reference = (
            max(r.cycles for r in grid.evaluated) * 1.05,
            max(r.max_utilization for r in grid.evaluated) * 1.05,
        )
        target = hypervolume(grid.evaluated, reference)
        budget = int(0.4 * len(grid.evaluated))
        outcome = run_search(
            "annealing", space, synthetic_evaluate, seed=1, max_evaluations=budget
        )
        assert outcome.evaluations <= budget
        achieved = hypervolume(outcome.evaluated, reference)
        assert achieved >= 0.95 * target, f"{achieved / target:.1%}"


class TestAgainstRealEngine:
    SIZES = {"m": 256, "n": 256, "p": 256}

    def _space(self):
        return default_space(
            {name: self.SIZES[name] for name in ("m", "n", "p")},
            pars=(8, 16),
            max_tiles_per_dim=2,
        )

    def test_annealing_front_subset_of_grid_front_on_gemm(self):
        from repro.dse.cache import ANALYSIS_CACHE
        from repro.dse.engine import explore

        ANALYSIS_CACHE.clear()
        space = self._space()
        grid = explore("gemm", sizes=self.SIZES, space=space)
        searched = explore(
            "gemm", sizes=self.SIZES, space=space, strategy="annealing", search_seed=2
        )
        grid_front = {r.point for r in grid.pareto}
        assert {r.point for r in searched.pareto} <= grid_front
        # Identical numbers for the points both paths evaluated.
        grid_by_point = {r.point: r for r in grid.evaluated}
        for result in searched.evaluated:
            assert result.cycles == grid_by_point[result.point].cycles

    def test_explore_reports_strategy_and_space_size(self):
        from repro.dse.cache import ANALYSIS_CACHE
        from repro.dse.engine import explore

        ANALYSIS_CACHE.clear()
        space = self._space()
        result = explore(
            "gemm", sizes=self.SIZES, space=space, strategy="annealing", eval_fraction=0.5
        )
        assert result.strategy == "annealing"
        assert result.space_size == len(space)
        assert len(result.evaluated) <= max(1, int(0.5 * len(space)))
        assert "annealing" in result.summary()
