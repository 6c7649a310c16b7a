"""Design-space enumeration and the analytical area pre-filter."""

import pytest

from repro.config import CompileConfig
from repro.dse.space import (
    DesignPoint,
    DesignSpace,
    default_space,
    estimate_point_area,
    tile_candidates,
)
from repro.target.device import DEFAULT_BOARD


class TestDesignPoint:
    def test_baseline_point_has_untiled_config(self):
        point = DesignPoint.make(None, par=8)
        config = point.config()
        assert not config.tiling and not config.metapipelining
        assert config.default_par == 8
        assert point.label == "baseline/par8"

    def test_tiled_point_round_trips_through_config(self):
        point = DesignPoint.make({"n": 64, "m": 128}, par=32, metapipelining=True)
        config = point.config()
        assert config.tiling and config.metapipelining
        assert dict(config.tile_sizes) == {"n": 64, "m": 128}
        assert config.par_factors["inner"] == 32

    def test_points_are_hashable_value_objects(self):
        a = DesignPoint.make({"n": 64}, par=16)
        b = DesignPoint.make({"n": 64}, par=16)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


class TestSpaceEnumeration:
    def test_tile_candidates_are_powers_of_two_within_extent(self):
        assert tile_candidates(256) == [16, 32, 64, 128, 256]
        assert tile_candidates(20) == [16]
        assert tile_candidates(8) == [8]
        assert tile_candidates(6) == [6]

    def test_default_space_covers_the_cartesian_product(self):
        space = default_space({"n": 256}, pars=(8, 16), metapipelining=(False, True))
        labels = {p.label for p in space}
        assert len(labels) == len(space.points)  # duplicate-free
        baselines = [p for p in space if not p.tiling]
        tiled = [p for p in space if p.tiling]
        assert len(baselines) == 2
        assert len(tiled) == 4 * 2 * 2  # 4 tiles x 2 pars x 2 meta

    def test_max_points_decimates_deterministically(self):
        full = default_space({"n": 1024, "m": 1024})
        capped = default_space({"n": 1024, "m": 1024}, max_points=10)
        again = default_space({"n": 1024, "m": 1024}, max_points=10)
        assert len(capped) == 10 < len(full)
        assert capped.points == again.points

    def test_design_space_extend_deduplicates(self):
        space = DesignSpace()
        point = DesignPoint.make({"n": 32})
        space.extend([point, point])
        assert len(space) == 1


class TestAreaPreFilter:
    SHAPES = {"x": (1 << 14, 1 << 14)}
    SIZES = {"m": 1 << 14, "n": 1 << 14}

    def test_small_tiles_are_feasible(self):
        point = DesignPoint.make({"m": 64, "n": 64}, par=16)
        decision = estimate_point_area(self.SHAPES, self.SIZES, point, DEFAULT_BOARD)
        assert decision.feasible

    def test_huge_tiles_are_pruned_on_bram(self):
        point = DesignPoint.make({"m": 1 << 14, "n": 1 << 14}, par=16, metapipelining=True)
        decision = estimate_point_area(self.SHAPES, self.SIZES, point, DEFAULT_BOARD)
        assert not decision.feasible
        assert "KiB" in decision.reason
        assert decision.bram_bits > DEFAULT_BOARD.device.bram_bits

    def test_huge_par_is_pruned_on_compute(self):
        point = DesignPoint.make({"m": 64, "n": 64}, par=1 << 12)
        decision = estimate_point_area(self.SHAPES, self.SIZES, point, DEFAULT_BOARD)
        assert not decision.feasible

    def test_budget_tightens_the_filter(self):
        point = DesignPoint.make({"m": 512, "n": 512}, par=16, metapipelining=True)
        loose = estimate_point_area(self.SHAPES, self.SIZES, point, DEFAULT_BOARD, budget=1.0)
        tight = estimate_point_area(self.SHAPES, self.SIZES, point, DEFAULT_BOARD, budget=0.05)
        assert loose.feasible and not tight.feasible

    def test_baseline_points_never_prune_on_memory(self):
        point = DesignPoint.make(None, par=16)
        decision = estimate_point_area(self.SHAPES, self.SIZES, point, DEFAULT_BOARD)
        assert decision.feasible
        assert decision.bram_bits == 0


class TestPipelineAxis:
    """The pass-pipeline variant as a design-space gene."""

    def test_default_point_uses_default_pipeline(self):
        point = DesignPoint.make({"m": 64}, par=8)
        assert point.pipeline == "default"
        assert "default" not in point.label

    def test_variant_appears_in_label(self):
        point = DesignPoint.make({"m": 64}, par=8, pipeline="no-fusion")
        assert point.label.endswith("/no-fusion")
        baseline = DesignPoint.make(None, par=8, pipeline="no-cse")
        assert baseline.label == "baseline/par8/no-cse"

    def test_points_differing_only_in_pipeline_are_distinct(self):
        a = DesignPoint.make({"m": 64}, par=8)
        b = DesignPoint.make({"m": 64}, par=8, pipeline="no-fusion")
        assert a != b
        assert len(DesignSpace().extend([a, b])) == 2

    def test_default_space_sweeps_pipeline_variants(self):
        single = default_space({"m": 1 << 12}, pars=(8, 16))
        multi = default_space({"m": 1 << 12}, pars=(8, 16), pipelines=("default", "no-fusion"))
        assert len(multi) == 2 * len(single)
        variants = {point.pipeline for point in multi}
        assert variants == {"default", "no-fusion"}

    def test_axes_expose_pipeline_gene(self):
        from repro.dse.search import SpaceAxes

        space = default_space(
            {"m": 1 << 12}, pars=(8,), pipelines=("default", "no-fusion")
        )
        axes = SpaceAxes.from_space(space)
        assert axes.pipelines == ("default", "no-fusion")
        tiled = next(p for p in space if p.tiling and p.pipeline == "default")
        neighbors = axes.neighbors(tiled)
        flipped = [p for p in neighbors if p.pipeline == "no-fusion"]
        assert flipped, "pipeline flip must be a one-gene move"
        assert all(p in space for p in neighbors)

    def test_single_variant_space_has_no_pipeline_moves(self):
        from repro.dse.search import SpaceAxes

        space = default_space({"m": 1 << 12}, pars=(8, 16))
        axes = SpaceAxes.from_space(space)
        point = next(p for p in space if p.tiling)
        assert all(n.pipeline == "default" for n in axes.neighbors(point))


class TestChannelAxis:
    """The DRAM channel count as a design-space gene."""

    def test_default_point_uses_one_channel(self):
        point = DesignPoint.make({"m": 64}, par=8)
        assert point.dram_channels == 1
        assert "/ch" not in point.label

    def test_channel_count_appears_in_label(self):
        point = DesignPoint.make({"m": 64}, par=8, metapipelining=True, dram_channels=2)
        assert point.label.endswith("/ch2")
        baseline = DesignPoint.make(None, par=8, dram_channels=4)
        assert baseline.label == "baseline/par8/ch4"

    def test_points_differing_only_in_channels_are_distinct(self):
        a = DesignPoint.make({"m": 64}, par=8)
        b = DesignPoint.make({"m": 64}, par=8, dram_channels=2)
        assert a != b
        assert len(DesignSpace().extend([a, b])) == 2

    def test_channels_do_not_leak_into_the_compile_config(self):
        # The channel count parameterises the *performance model* a point
        # is timed under, never the compiled artifact.
        a = DesignPoint.make({"m": 64}, par=8, dram_channels=1)
        b = DesignPoint.make({"m": 64}, par=8, dram_channels=4)
        assert a.config() == b.config()

    def test_default_space_sweeps_channels(self):
        single = default_space({"m": 1 << 12}, pars=(8, 16))
        multi = default_space({"m": 1 << 12}, pars=(8, 16), channels=(1, 2))
        assert len(multi) == 2 * len(single)
        assert {point.dram_channels for point in multi} == {1, 2}
        assert {point.dram_channels for point in single} == {1}

    def test_axes_expose_channel_gene(self):
        from repro.dse.search import SpaceAxes

        space = default_space({"m": 1 << 12}, pars=(8,), channels=(1, 2, 4))
        axes = SpaceAxes.from_space(space)
        assert axes.channels == (1, 2, 4)
        tiled = next(p for p in space if p.tiling and p.dram_channels == 2)
        neighbors = axes.neighbors(tiled)
        stepped = {p.dram_channels for p in neighbors if p.dram_channels != 2}
        assert stepped == {1, 4}, "channel steps must move one rung at a time"
        assert all(p in space for p in neighbors)

    def test_single_channel_space_has_no_channel_moves(self):
        from repro.dse.search import SpaceAxes

        space = default_space({"m": 1 << 12}, pars=(8, 16))
        axes = SpaceAxes.from_space(space)
        point = next(p for p in space if p.tiling)
        assert all(n.dram_channels == 1 for n in axes.neighbors(point))
