"""E6 — Table 4: hardware templates inferred per IR construct."""

from __future__ import annotations

import pytest

from repro.apps import get_benchmark
from repro.config import CompileConfig
from repro.hw.controllers import MetapipelineController
from repro.hw.templates import Buffer, ReductionTree, TileLoad, TileStore, VectorUnit
from repro.pipeline import Session

SESSION = Session()


def _compile(name, metapipelining, sizes):
    bench = get_benchmark(name)
    config = CompileConfig(
        tiling=True, metapipelining=metapipelining, tile_sizes=dict(bench.tile_sizes)
    )
    return bench.compile(config, sizes, session=SESSION)


@pytest.mark.parametrize("name", ["outerprod", "sumrows", "gemm", "tpchq6", "gda", "kmeans"])
def test_table4_template_inventory(benchmark, name, eval_sizes):
    result = benchmark(_compile, name, True, eval_sizes[name])
    design = result.design
    inventory = design.template_inventory()
    print(f"\n[Table 4] {name}: {inventory}")

    # Every tiled design has tile memories (transformer-inserted array copies)
    # and on-chip buffers.
    assert design.modules_of(TileLoad), name
    assert design.modules_of(Buffer), name
    # Pipelined execution units for the inner patterns.
    assert design.modules_of(VectorUnit) or design.modules_of(ReductionTree), name
    # Metapipeline controllers coordinate the nested patterns.
    assert design.modules_of(MetapipelineController), name
    # Results are written back to DRAM.
    assert design.modules_of(TileStore), name


def test_table4_double_buffers_only_with_metapipelining(benchmark, eval_sizes):
    result = benchmark(_compile, "kmeans", True, eval_sizes["kmeans"])
    assert result.design.double_buffers
    sequential = _compile("kmeans", False, eval_sizes["kmeans"])
    assert not sequential.design.double_buffers
