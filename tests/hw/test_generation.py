"""Hardware generation: template selection, memory allocation, metapipelines."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import get_benchmark
from repro.pipeline import Session
from repro.config import BASELINE, CompileConfig
from repro.dse.cache import ANALYSIS_CACHE
from repro.dse.engine import evaluate_point
from repro.dse.space import DesignPoint
from repro.hw.controllers import MetapipelineController, ParallelController, SequentialController
from repro.hw.generation import GenerationShared
from repro.hw.templates import (
    Buffer,
    MainMemoryStream,
    ReductionTree,
    TileLoad,
    TileStore,
    VectorUnit,
)

SIZES = {
    "outerprod": {"m": 512, "n": 512},
    "sumrows": {"m": 2048, "n": 128},
    "gemm": {"m": 128, "n": 128, "p": 128},
    "tpchq6": {"n": 65536},
    "gda": {"n": 2048, "d": 16},
    "kmeans": {"n": 4096, "k": 16, "d": 16},
}


def _compile(name, config):
    bench = get_benchmark(name)
    bindings = bench.bindings(SIZES[name], np.random.default_rng(0))
    return Session().compile(bench.build(), config, bindings)


def _tiled_config(name, metapipelining=True):
    bench = get_benchmark(name)
    return CompileConfig(
        tiling=True, metapipelining=metapipelining, tile_sizes=dict(bench.tile_sizes)
    )


class TestBaselineDesigns:
    @pytest.mark.parametrize("name", list(SIZES))
    def test_baseline_has_stream_and_compute(self, name):
        design = _compile(name, BASELINE).design
        assert design.modules_of(MainMemoryStream)
        assert design.modules_of(VectorUnit) or design.modules_of(ReductionTree)
        assert not design.modules_of(TileLoad) or all(
            not m.name.startswith("load_") for m in design.modules_of(TileLoad)
        )
        assert design.modules_of(ParallelController)

    def test_baseline_accounts_output_writes(self):
        design = _compile("outerprod", BASELINE).design
        assert design.main_memory_write_bytes == 512 * 512 * 4


class TestTiledDesigns:
    @pytest.mark.parametrize("name", ["sumrows", "gemm", "kmeans", "gda", "tpchq6", "outerprod"])
    def test_tile_loads_and_buffers(self, name):
        design = _compile(name, _tiled_config(name)).design
        assert design.modules_of(TileLoad)
        assert design.modules_of(Buffer)
        assert design.modules_of(TileStore)

    def test_metapipeline_controllers_only_when_enabled(self):
        with_meta = _compile("kmeans", _tiled_config("kmeans", True)).design
        without = _compile("kmeans", _tiled_config("kmeans", False)).design
        assert with_meta.modules_of(MetapipelineController)
        assert not without.modules_of(MetapipelineController)
        assert without.modules_of(SequentialController)

    def test_kmeans_centroids_preloaded(self):
        design = _compile("kmeans", _tiled_config("kmeans")).design
        preloads = [m for m in design.modules_of(TileLoad) if m.name == "preload_centroids"]
        assert preloads
        assert any(m.source == "centroids" for m in design.modules_of(Buffer))

    def test_gda_class_means_preloaded(self):
        design = _compile("gda", _tiled_config("gda")).design
        preload_sources = {m.source for m in design.modules_of(TileLoad)}
        assert {"mu0", "mu1"} <= preload_sources

    def test_tiled_traffic_much_lower_than_baseline(self):
        baseline = _compile("kmeans", BASELINE).design
        tiled = _compile("kmeans", _tiled_config("kmeans")).design
        assert tiled.main_memory_read_bytes < baseline.main_memory_read_bytes / 4

    def test_double_buffers_in_metapipelines(self):
        design = _compile("gda", _tiled_config("gda")).design
        assert design.double_buffers

    def test_design_summary_renders(self):
        design = _compile("gemm", _tiled_config("gemm")).design
        text = design.summary()
        assert "templates" in text
        assert "DRAM reads" in text

    def test_template_inventory_has_no_controllers(self):
        design = _compile("gemm", _tiled_config("gemm")).design
        assert not any(kind.endswith("Controller") for kind in design.template_inventory())


# Drawn sizes per app.  The ranges of kmeans' ``k``/``d`` and gda's ``d``
# reach past PRELOAD_LIMIT_BYTES, so their preloadable inputs land on either
# side of it.
PLAN_SIZE_RANGES = {
    "outerprod": {"m": (1, 4096), "n": (1, 4096)},
    "sumrows": {"m": (1, 4096), "n": (1, 4096)},
    "gemm": {"m": (1, 1024), "n": (1, 1024), "p": (1, 1024)},
    "tpchq6": {"n": (1, 1 << 20)},
    "gda": {"n": (1, 4096), "d": (1, 1 << 19)},
    "kmeans": {"n": (1, 4096), "k": (1, 1024), "d": (1, 1024)},
}
# Two workloads on one tiled program whose preloadable input sits under,
# then over, the limit: (app, sizes under, sizes over, tiles, input).
STRADDLING = [
    ("kmeans", {"n": 4096, "k": 16, "d": 16}, {"n": 4096, "k": 512, "d": 1024},
     {"n": 256}, "centroids"),
    ("gda", {"n": 2048, "d": 16}, {"n": 2048, "d": 300_000}, {"n": 256}, "mu0"),
]


@st.composite
def _plan_cases(draw):
    name = draw(st.sampled_from(sorted(PLAN_SIZE_RANGES)))
    ranges = PLAN_SIZE_RANGES[name]

    def sizes():
        return {size: draw(st.integers(lo, hi)) for size, (lo, hi) in ranges.items()}

    tiles = {
        dim: tile
        for dim in get_benchmark(name).tile_sizes
        if (tile := draw(st.sampled_from([None, 1, 16, 64, 256, 1024]))) is not None
    }
    return name, sizes(), sizes(), tiles


def _memo_and_direct_plans(name, sizes_a, sizes_b, tiles):
    """Compile ``name`` under ``sizes_a``; plan its tiled program for both.

    Both workloads share the one tiled program (same structural hash and
    inputs), so only the workload half of the memo key tells them apart.
    Returns the direct plans after checking the memoised ones against them.
    """
    bench = get_benchmark(name)
    config = CompileConfig(tiling=True, tile_sizes=tiles)
    tiled = Session().compile(bench.build(), config, bench.workload(sizes_a)).tiled_program
    plans = []
    for sizes in (sizes_a, sizes_b):
        workload = bench.workload(sizes)
        with ANALYSIS_CACHE.disabled():
            direct = GenerationShared(tiled, workload).preload_plan()
        assert GenerationShared(tiled, workload).preload_plan() == direct
        plans.append(direct)
    return plans


class TestPreloadPlanMemo:
    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        ANALYSIS_CACHE.clear()
        yield
        ANALYSIS_CACHE.clear()

    @given(case=_plan_cases())
    @example(case=STRADDLING[0][:4])
    @example(case=STRADDLING[1][:4])
    @settings(max_examples=60, deadline=None)
    def test_memoised_plan_equals_the_direct_walk(self, case):
        _memo_and_direct_plans(*case)

    @pytest.mark.parametrize("name, under, over, tiles, array", STRADDLING)
    def test_one_tiled_program_serves_both_sides_of_the_limit(
        self, name, under, over, tiles, array
    ):
        plan_under, plan_over = _memo_and_direct_plans(name, under, over, tiles)
        assert array in dict(plan_under) and array not in dict(plan_over)

    def test_scalar_points_sharing_a_tiling_walk_the_program_once(self):
        bench = get_benchmark("kmeans")
        program, workload = bench.build(), bench.workload(SIZES["kmeans"])
        points = [
            DesignPoint.make(bench.tile_sizes, par=par, metapipelining=meta)
            for par in (1, 2, 4, 8)
            for meta in (False, True)
        ]
        for point in points:
            evaluate_point(program, workload, point)
        stats = ANALYSIS_CACHE.stats()
        assert stats["point_results"]["misses"] == len(points)
        assert stats["preload_plan"]["misses"] == 1
        assert stats["preload_plan"]["hits"] == len(points) - 1

    def test_plan_is_served_from_a_persisted_store(self, tmp_path, monkeypatch):
        bench = get_benchmark("kmeans")
        workload = bench.workload(SIZES["kmeans"])
        tiled = _compile("kmeans", _tiled_config("kmeans")).tiled_program
        plan = GenerationShared(tiled, workload).preload_plan()
        assert dict(plan) == {"centroids": 16 * 16}
        store = tmp_path / "analysis.pkl"
        assert ANALYSIS_CACHE.save_disk(store)
        ANALYSIS_CACHE.clear()
        assert ANALYSIS_CACHE.load_disk(store) > 0

        def walk(shared):
            raise AssertionError("the plan was walked, not served from the store")

        monkeypatch.setattr(GenerationShared, "_walk_preload_plan", walk)
        assert GenerationShared(tiled, workload).preload_plan() == plan
        assert ANALYSIS_CACHE.stats()["preload_plan"]["hits"] == 1
        assert ANALYSIS_CACHE.stats()["preload_plan"]["misses"] == 0
