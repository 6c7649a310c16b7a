"""E5 — Table 3: pattern interchange on strip-mined matrix multiplication."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import get_benchmark
from repro.config import CompileConfig
from repro.pipeline import Session
from repro.ppl.interp import run_program
from repro.ppl.traversal import find_patterns


def _tiling(bench, config, sizes):
    """The stage snapshots of one compile of ``bench`` at ``sizes``."""
    return Session().compile(bench.build(), config, bench.workload(sizes)).tiling


def test_table3_gemm_interchange(benchmark):
    bench = get_benchmark("gemm")
    sizes = {"m": 8, "n": 8, "p": 12}
    config = CompileConfig(tiling=True, tile_sizes={"m": 4, "n": 4, "p": 4})
    result = benchmark(_tiling, bench, config, sizes)

    # The strided reduction fold moved out of the output-tile Map (rule 1).
    interchanged = [p for p in find_patterns(result.tiled.body) if p.meta.get("interchanged")]
    assert interchanged
    assert result.applied_interchanges

    bindings = bench.bindings(sizes, np.random.default_rng(5))
    np.testing.assert_allclose(
        run_program(result.tiled, bindings),
        np.asarray(bindings["x"]) @ np.asarray(bindings["y"]),
        rtol=1e-9,
    )


def test_table3_kmeans_split_interchange(benchmark):
    """The Figure 5 walkthrough: split + interchange on k-means."""
    bench = get_benchmark("kmeans")
    sizes = {"n": 16, "k": 4, "d": 3}
    config = CompileConfig(tiling=True, tile_sizes={"n": 8, "k": 4})
    result = benchmark(_tiling, bench, config, sizes)
    assert "split" in result.applied_interchanges

    bindings = bench.bindings(sizes, np.random.default_rng(6))
    np.testing.assert_allclose(
        run_program(result.tiled, bindings),
        bench.reference(bindings),
        rtol=1e-9,
    )
