"""The Section 4 tiling flow of the default pipeline (strip mine → cleanup →
interchange → cleanup), run through the pipeline and the session."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.apps import all_benchmarks, get_benchmark
from repro.config import BASELINE, CompileConfig
from repro.pipeline import PassContext, Session, default_pipeline
from repro.ppl.interp import run_program
from repro.ppl.ir import ArrayCopy
from repro.ppl.traversal import collect

BENCHMARKS = [bench.name for bench in all_benchmarks()]

#: The default flow's transform prefix: everything before hardware generation.
TILING_FLOW = default_pipeline().without("generate-hardware", "build-schedule", "estimate-area")


def _config_for(bench, scale=2):
    return CompileConfig(tiling=True, tile_sizes={k: scale for k in bench.tile_sizes})


def _tiled(program, config):
    """The tiled program the default flow hands to hardware generation."""
    return TILING_FLOW.run(program, PassContext(config=config)).program


def _tiling(bench, config):
    """The session's stage snapshots of one compile at test sizes."""
    return Session().compile(bench.build(), config, bench.workload()).tiling


class TestFlowStages:
    def test_baseline_config_is_identity(self):
        result = _tiling(get_benchmark("gemm"), BASELINE)
        assert result.tiled.body is result.fused.body

    def test_stages_recorded(self):
        bench = get_benchmark("gemm")
        result = _tiling(bench, _config_for(bench))
        stages = result.stages()
        assert set(stages) == {"original", "fused", "strip_mined", "interchanged", "tiled"}
        assert stages["strip_mined"] is not stages["original"]

    def test_tiled_program_contains_copies(self):
        for name in ["sumrows", "gemm", "kmeans", "gda"]:
            bench = get_benchmark(name)
            tiled = _tiled(bench.build(), _config_for(bench))
            assert collect(tiled.body, lambda n: isinstance(n, ArrayCopy)), name

    def test_interchange_recorded_for_gemm_and_kmeans(self):
        gemm = get_benchmark("gemm")
        result = _tiling(gemm, CompileConfig(tiling=True, tile_sizes={"m": 2, "n": 2, "p": 2}))
        assert result.applied_interchanges

        kmeans = get_benchmark("kmeans")
        result = _tiling(kmeans, CompileConfig(tiling=True, tile_sizes={"n": 4, "k": 2}))
        assert "split" in result.applied_interchanges


class TestEndToEndSemantics:
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_tiled_program_matches_original(self, name, rng):
        bench = get_benchmark(name)
        program = bench.build()
        tiled = _tiled(program, _config_for(bench))
        bindings = bench.bindings(rng=rng)
        np.testing.assert_allclose(
            np.asarray(run_program(tiled, bindings), dtype=float),
            np.asarray(run_program(program, bindings), dtype=float),
            rtol=1e-9,
        )

    @pytest.mark.parametrize("name", ["sumrows", "gemm", "kmeans"])
    def test_tiled_program_matches_with_evaluation_tile_keys(self, name, rng):
        bench = get_benchmark(name)
        program = bench.build()
        config = CompileConfig(tiling=True, tile_sizes=dict(bench.tile_sizes))
        tiled = _tiled(program, config)
        bindings = bench.bindings(rng=rng)
        np.testing.assert_allclose(
            np.asarray(run_program(tiled, bindings), dtype=float),
            np.asarray(run_program(program, bindings), dtype=float),
            rtol=1e-9,
        )


class TestPropertyBasedTiling:
    """Property-based check: tiling is semantics preserving for random shapes/tiles."""

    @given(
        m=st.integers(2, 7),
        n=st.integers(2, 9),
        bm=st.integers(1, 4),
        bn=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_sumrows_random_shapes_and_tiles(self, m, n, bm, bn, seed):
        bench = get_benchmark("sumrows")
        program = bench.build()
        config = CompileConfig(tiling=True, tile_sizes={"m": bm, "n": bn})
        tiled = _tiled(program, config)
        bindings = bench.bindings({"m": m, "n": n}, np.random.default_rng(seed))
        np.testing.assert_allclose(
            run_program(tiled, bindings), run_program(program, bindings), rtol=1e-9
        )

    @given(
        m=st.integers(2, 5),
        n=st.integers(2, 5),
        p=st.integers(2, 6),
        tile=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_gemm_random_shapes_and_tiles(self, m, n, p, tile, seed):
        bench = get_benchmark("gemm")
        program = bench.build()
        config = CompileConfig(tiling=True, tile_sizes={"m": tile, "n": tile, "p": tile + 1})
        tiled = _tiled(program, config)
        bindings = bench.bindings({"m": m, "n": n, "p": p}, np.random.default_rng(seed))
        np.testing.assert_allclose(
            run_program(tiled, bindings), run_program(program, bindings), rtol=1e-9
        )

    @given(
        n=st.integers(3, 10),
        k=st.integers(1, 4),
        d=st.integers(1, 4),
        bn=st.integers(1, 4),
        bk=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_kmeans_random_shapes_and_tiles(self, n, k, d, bn, bk, seed):
        assume(n >= k)  # the input generator guarantees non-empty clusters only when n >= k
        bench = get_benchmark("kmeans")
        program = bench.build()
        config = CompileConfig(tiling=True, tile_sizes={"n": bn, "k": bk})
        tiled = _tiled(program, config)
        bindings = bench.bindings({"n": n, "k": k, "d": d}, np.random.default_rng(seed))
        np.testing.assert_allclose(
            run_program(tiled, bindings), run_program(program, bindings), rtol=1e-9
        )
