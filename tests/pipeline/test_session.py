"""CompilerSession behaviour: compilation, instrumentation, caches."""

import numpy as np
import pytest

from repro.apps import all_benchmarks, get_benchmark
from repro.config import BASELINE, CompileConfig
from repro.dse.cache import ANALYSIS_CACHE, AnalysisCache
from repro.dse.space import DesignPoint
from repro.evaluation.figure5c import run_figure5c
from repro.pipeline import Session, default_pipeline
from repro.ppl.interp import run_program


@pytest.fixture(autouse=True)
def _fresh_cache():
    ANALYSIS_CACHE.clear()
    yield
    ANALYSIS_CACHE.clear()


def _small_workload(name="gemm"):
    bench = get_benchmark(name)
    bindings = bench.bindings(rng=np.random.default_rng(0))
    config = CompileConfig(tiling=True, metapipelining=True, tile_sizes=dict(bench.tile_sizes))
    return bench, bindings, config


class TestSessionCompile:
    def test_compile_produces_full_result_with_report(self):
        bench, bindings, config = _small_workload()
        session = Session()
        result = session.compile(bench.build(), config, bindings)
        assert result.design is not None
        assert result.area.total.logic > 0
        assert result.report is not None
        assert result.report.passes_run == len(session.pipeline)
        assert session.simulate(result).cycles > 0
        assert session.compilations == 1
        assert session.last_report is result.report

    def test_baseline_compile_collapses_stages(self):
        bench, bindings, _ = _small_workload()
        session = Session()
        result = session.compile(bench.build(), BASELINE, bindings)
        assert result.tiling.strip_mined is result.tiling.tiled
        assert result.tiled_program.body.structural_hash() == (
            result.tiling.fused.body.structural_hash()
        )

    def test_transform_only_pipeline_still_generates_hardware(self):
        bench, bindings, config = _small_workload()
        session = Session(pipeline=default_pipeline().without("generate-hardware", "build-schedule", "estimate-area"))
        result = session.compile(bench.build(), config, bindings)
        assert result.design is not None
        assert result.area.total.logic > 0

    def test_compile_point_uses_pipeline_gene(self):
        bench, bindings, _ = _small_workload()
        session = Session()
        tiles = {name: 2 for name in bench.tile_sizes}
        default_point = DesignPoint.make(tiles, par=4)
        variant_point = DesignPoint.make(tiles, par=4, pipeline="no-fusion")
        assert session.compile_point(bench.build(), default_point, bindings).report.pipeline == (
            "default"
        )
        assert session.compile_point(bench.build(), variant_point, bindings).report.pipeline == (
            "no-fusion"
        )

    def test_warm_recompile_hits_pass_memo(self):
        bench, bindings, config = _small_workload()
        session = Session(cache=AnalysisCache())
        session.compile(bench.build(), config, bindings)
        warm = session.compile(bench.build(), config, bindings)
        transform_records = [
            record
            for record in warm.report.records
            if record.name not in ("generate-hardware", "build-schedule", "estimate-area")
        ]
        assert all(record.cached for record in transform_records)

    def test_pass_totals_aggregate_across_compiles(self):
        bench, bindings, config = _small_workload()
        session = Session(cache=AnalysisCache())
        session.compile(bench.build(), config, bindings)
        session.compile(bench.build(), config, bindings)
        assert session.pass_totals["strip-mine"]["runs"] == 2
        assert session.pass_totals["strip-mine"]["cache_hits"] == 1
        assert "strip-mine" in session.pass_summary()

    def test_reports_are_bounded(self):
        bench, bindings, config = _small_workload()
        session = Session(cache=AnalysisCache(), keep_reports=2)
        for _ in range(4):
            session.compile(bench.build(), config, bindings)
        assert len(session.reports) == 2
        assert session.compilations == 4


class TestStageSnapshots:
    """The paper's stage snapshots, checked against the source program."""

    @pytest.mark.parametrize("tile", [2, 5])
    @pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda bench: bench.name)
    def test_every_snapshot_computes_the_source_program(self, bench, tile):
        """Every tiled loop ends in a partial tile: 5 divides none of the
        tiled test sizes, and for tile 2 each even tiled extent is raised by
        one."""
        program = bench.build()
        sizes = dict(bench.test_sizes)
        if tile == 2:
            sizes.update((name, sizes[name] | 1) for name in bench.tile_sizes)
        bindings = bench.bindings(sizes, rng=np.random.default_rng(3))
        config = CompileConfig(tiling=True, tile_sizes={name: tile for name in bench.tile_sizes})
        tiling = Session(cache=AnalysisCache()).compile(program, config, bindings).tiling
        assert tiling.config is config and tiling.original is program
        assert tiling.strip_mined is not tiling.fused
        expected = np.asarray(run_program(program, bindings), dtype=float)
        for stage in ("fused", "strip_mined", "interchanged", "tiled"):
            snapshot = getattr(tiling, stage)
            np.testing.assert_allclose(
                np.asarray(run_program(snapshot, bindings), dtype=float),
                expected,
                rtol=1e-9,
                err_msg=stage,
            )

    def test_figure5c_reads_the_session_snapshots(self):
        report = run_figure5c(sizes={"n": 512, "k": 16, "d": 4}, tiles={"n": 32, "k": 4})
        assert report.all_match
        strip_mined = report.row("strip_mined", "centroids").reads
        assert report.row("interchanged", "centroids").reads < strip_mined


class TestClearCaches:
    def test_cleared_session_recompiles_cold(self):
        bench, bindings, config = _small_workload()
        session = Session()
        session.compile(bench.build(), config, bindings)
        warm = session.compile(bench.build(), config, bindings)
        assert warm.report.cache_hits > 0

        session.clear_caches()
        cold = session.compile(bench.build(), config, bindings)
        assert cold.report.cache_hits == 0

    def test_clear_compilation_caches_resets_disk_state(self, tmp_path):
        bench, bindings, config = _small_workload()
        session = Session()
        store = tmp_path / "analysis.pkl"
        session.compile(bench.build(), config, bindings)
        assert ANALYSIS_CACHE.save_disk(store)
        # Clean against the store: a dirty-gated save is skipped.
        assert not ANALYSIS_CACHE.save_disk(store, only_if_dirty=True)

        ANALYSIS_CACHE.clear()
        assert not ANALYSIS_CACHE.dirty
        # The cleared cache recompiles cold...
        cold = session.compile(bench.build(), config, bindings)
        assert cold.report.cache_hits == 0
        # ...and no longer considers itself clean against the old store, so
        # the dirty-gated save writes the fresh state instead of skipping.
        assert ANALYSIS_CACHE.save_disk(store, only_if_dirty=True)


class TestPipelineOverride:
    def test_pipeline_without_fusion_drops_the_pass(self):
        bench, bindings, config = _small_workload()
        session = Session()
        direct = session.compile(
            bench.build(), config, bindings, pipeline=session.pipeline.without("fusion")
        )
        assert direct.design is not None
        assert "fusion" not in [record.name for record in direct.report.records]
