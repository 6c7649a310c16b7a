"""E8 — Figure 6: the hardware structure generated for k-means."""

from __future__ import annotations

import pytest

from repro.apps import get_benchmark
from repro.codegen import design_report, generate_maxj
from repro.config import CompileConfig
from repro.hw.controllers import MetapipelineController, SequentialController
from repro.hw.templates import Buffer, TileLoad, TileStore
from repro.pipeline import Session

SESSION = Session()


def _compile_kmeans(sizes):
    bench = get_benchmark("kmeans")
    config = CompileConfig(
        tiling=True, metapipelining=True, tile_sizes=dict(bench.tile_sizes)
    )
    return bench.compile(config, sizes, session=SESSION)


def test_figure6_kmeans_hardware_structure(benchmark, eval_sizes):
    result = benchmark(_compile_kmeans, eval_sizes["kmeans"])
    design = result.design

    # Step 1 (Pipe 0): the centroids are preloaded into an on-chip buffer.
    preloads = [m for m in design.modules_of(TileLoad) if m.name.startswith("preload_")]
    assert any(m.source == "centroids" for m in preloads)

    # Step 2 (Metapipeline A): point tiles stream through load → compute stages.
    metapipelines = design.modules_of(MetapipelineController)
    assert metapipelines
    point_loop = metapipelines[0]
    assert point_loop.iterations > 1
    assert any(isinstance(stage, TileLoad) for stage in point_loop.stages)
    assert point_loop.num_stages >= 2

    # Double buffers decouple the metapipeline stages; results return to DRAM.
    assert design.double_buffers
    assert design.modules_of(TileStore)

    # The design renders to MaxJ-like HGL and a report (Figure 6 analogue).
    maxj = generate_maxj(design)
    assert "Metapipeline" in maxj and "tileLoad" in maxj
    report = design_report(design)
    print("\n" + report)
