"""The composable pass pipeline: composition, instrumentation, memoisation."""

import pytest

from repro.apps import all_benchmarks, get_benchmark
from repro.config import BASELINE, CompileConfig
from repro.dse.cache import AnalysisCache
from repro.dse.space import default_space
from repro.errors import PipelineError
from repro.pipeline import (
    PassContext,
    Pipeline,
    PipelinePass,
    Session,
    TransformationStage,
    default_pipeline,
    get_pipeline,
    pipeline_variants,
)
from repro.pipeline.variants import variant_signature
from repro.ppl.ir import Pattern
from repro.ppl.traversal import walk
from repro.rewrite import InvariantCodeMotion, LetCse, StripMine, VerticalFusion
from repro.utils.naming import fresh_naming_scope


def _gemm_program():
    return get_benchmark("gemm").build()


def _fingerprint(program):
    """Structural hash, pattern meta in walk order (the hash ignores meta)
    and the pre-order index of each non-leaf node's first occurrence."""
    nodes = list(walk(program.body))
    first = {}
    return (
        program.body.structural_hash(),
        [dict(node.meta) for node in nodes if isinstance(node, Pattern)],
        [first.setdefault(id(node), index) for index, node in enumerate(nodes) if node.children()],
    )


def _tiling_config():
    return CompileConfig(tiling=True, tile_sizes=dict(get_benchmark("gemm").tile_sizes))


# The signature of every pass, as point-result keys embed it: a renamed
# class or stage changes these tuples and with them every point key.
_FUSION = ("TransformationStage[VerticalFusion]", "fusion")
_STRIP = ("TransformationStage[StripMine]", "strip-mine")
_COPIES = ("TransformationStage[TileCopies]", "tile-copies")
_CSE = ("TransformationStage[LetCse]", "cse")
_MOTION = ("TransformationStage[InvariantCodeMotion]", "code-motion")
_INTERCHANGE = ("TransformationStage[Interchange]", "interchange")
_POST_CSE = ("TransformationStage[LetCse]", "post-cse")
_POST_MOTION = ("TransformationStage[InvariantCodeMotion]", "post-code-motion")
_HARDWARE = ("GenerateHardwareStage", "generate-hardware")
_SCHEDULE = ("BuildScheduleStage", "build-schedule")
_AREA = ("EstimateAreaStage", "estimate-area")

PINNED_SIGNATURES = {
    "default": (
        _FUSION, _STRIP, _COPIES, _CSE, _MOTION, _INTERCHANGE, _POST_CSE,
        _POST_MOTION, _HARDWARE, _SCHEDULE, _AREA,
    ),
    "no-fusion": (
        _STRIP, _COPIES, _CSE, _MOTION, _INTERCHANGE, _POST_CSE, _POST_MOTION,
        _HARDWARE, _SCHEDULE, _AREA,
    ),
    "no-cse": (
        _FUSION, _STRIP, _COPIES, _MOTION, _INTERCHANGE, _POST_MOTION,
        _HARDWARE, _SCHEDULE, _AREA,
    ),
    "late-cleanup": (
        _FUSION, _STRIP, _COPIES, _INTERCHANGE, _POST_CSE, _POST_MOTION,
        _HARDWARE, _SCHEDULE, _AREA,
    ),
    "rewrite": (
        _FUSION, _STRIP, _COPIES, _CSE, _MOTION, _INTERCHANGE, _POST_CSE,
        _POST_MOTION, _HARDWARE, _SCHEDULE,
        ("TransformationStage[ScheduleRewrite[bf=2.0,cs=analytical]]", "rewrite-schedule"),
        _AREA,
    ),
    "rewrite-profiled": (
        _FUSION, _STRIP, _COPIES, _CSE, _MOTION, _INTERCHANGE, _POST_CSE,
        _POST_MOTION, _HARDWARE, _SCHEDULE,
        ("TransformationStage[ScheduleRewrite[bf=auto,cs=event]]", "rewrite-schedule"),
        _AREA,
    ),
    "auto:fusion,strip-mine,tile-copies,cse,code-motion,interchange,post-cse,"
    "post-code-motion,flatten-degenerate-groups,coalesce-transfers,"
    "rebalance-stages": (
        _FUSION, _STRIP, _COPIES, _CSE, _MOTION, _INTERCHANGE, _POST_CSE,
        _POST_MOTION, _HARDWARE, _SCHEDULE,
        ("TransformationStage[FlattenDegenerateGroups]", "flatten-degenerate-groups"),
        ("TransformationStage[CoalesceTransfers]", "coalesce-transfers"),
        (
            "TransformationStage[RebalanceStages[bf=2.0,cs=analytical]]",
            "rebalance-stages",
        ),
        _AREA,
    ),
}


class NoOpPass(PipelinePass):
    """A pass that returns its input unchanged (still memoisable)."""

    name = "noop"

    def run(self, program, ctx):
        return program

    def cache_key(self, ctx):
        return ()


class TestComposition:
    def test_empty_pipeline_returns_program_unchanged(self):
        program = _gemm_program()
        outcome = Pipeline([], name="empty").run(program, PassContext(config=BASELINE))
        assert outcome.program is program
        assert outcome.report.records == []
        assert outcome.trace == [("input", program)]

    def test_duplicate_pass_names_raise(self):
        with pytest.raises(PipelineError, match="duplicate pass names"):
            Pipeline([TransformationStage(LetCse()), TransformationStage(LetCse())])

    def test_duplicate_names_avoidable_with_explicit_names(self):
        pipeline = Pipeline(
            [TransformationStage(LetCse()), TransformationStage(LetCse(), name="post-cse")]
        )
        assert pipeline.pass_names == ["cse", "post-cse"]

    def test_without_removes_and_preserves_order(self):
        pipeline = default_pipeline().without("fusion", "post-cse")
        assert "fusion" not in pipeline
        assert "post-cse" not in pipeline
        assert pipeline.pass_names[0] == "strip-mine"

    def test_without_unknown_name_raises(self):
        with pytest.raises(PipelineError, match="no pass named"):
            default_pipeline().without("no-such-pass")

    def test_replaced_swaps_in_place(self):
        pipeline = default_pipeline().replaced("cse", NoOpPass("cse"))
        index = pipeline.pass_names.index("cse")
        assert isinstance(pipeline.passes[index], NoOpPass)
        assert len(pipeline) == len(default_pipeline())

    def test_insertion_before_and_after(self):
        pipeline = default_pipeline().inserted_before("fusion", NoOpPass("pre"))
        assert pipeline.pass_names[0] == "pre"
        pipeline = pipeline.inserted_after("fusion", NoOpPass("post"))
        names = pipeline.pass_names
        assert names.index("post") == names.index("fusion") + 1

    def test_editing_returns_new_pipelines(self):
        base = default_pipeline()
        edited = base.without("fusion")
        assert "fusion" in base
        assert len(base) == len(edited) + 1

    def test_signature_distinguishes_orderings(self):
        assert default_pipeline().signature() != default_pipeline().without("cse").signature()
        assert default_pipeline().signature() == default_pipeline().signature()


class TestVariants:
    def test_registry_contains_shipped_variants(self):
        assert {"default", "no-fusion", "no-cse", "late-cleanup"} <= set(pipeline_variants())

    def test_get_pipeline_resolves_names_and_instances(self):
        assert "fusion" not in get_pipeline("no-fusion")
        no_cse = get_pipeline("no-cse")
        assert "cse" not in no_cse and "post-cse" not in no_cse
        custom = Pipeline([TransformationStage(VerticalFusion())], name="mine")
        assert get_pipeline(custom) is custom
        assert get_pipeline(None).pass_names == default_pipeline().pass_names

    def test_unknown_variant_raises(self):
        with pytest.raises(ValueError, match="unknown pipeline variant"):
            get_pipeline("no-such-variant")
        with pytest.raises(ValueError):
            variant_signature("no-such-variant")


class TestPinnedSignatures:
    def test_every_registered_variant_is_pinned(self):
        assert set(pipeline_variants()) <= set(PINNED_SIGNATURES)

    @pytest.mark.parametrize("name", sorted(PINNED_SIGNATURES))
    def test_variant_signature_is_pinned(self, name):
        assert variant_signature(name) == PINNED_SIGNATURES[name]


class TestInstrumentation:
    def test_report_records_every_pass_with_node_counts(self):
        cache = AnalysisCache()
        pipeline = default_pipeline().without("generate-hardware", "build-schedule", "estimate-area")
        ctx = PassContext(config=_tiling_config(), cache=cache)
        outcome = pipeline.run(_gemm_program(), ctx)
        report = outcome.report
        assert [record.name for record in report.records] == pipeline.pass_names
        assert all(record.nodes_before > 0 and record.nodes_after > 0 for record in report.records)
        assert report.record("strip-mine").node_delta > 0
        assert report.record("strip-mine").changed
        assert report.total_seconds >= sum(r.seconds for r in report.records) * 0.5
        assert "strip-mine" in report.table()

    def test_report_table_and_dict_follow_the_records(self):
        cache = AnalysisCache()
        pipeline = default_pipeline().without("generate-hardware", "build-schedule", "estimate-area")
        report = pipeline.run(
            _gemm_program(), PassContext(config=_tiling_config(), cache=cache)
        ).report
        lines = report.table().splitlines()
        assert lines[1].split() == ["pass", "time", "budget", "cached", "nodes", "delta"]
        assert [line.split()[0] for line in lines[3:]] == pipeline.pass_names
        as_dict = report.as_dict()
        assert as_dict["cache_hits"] == report.cache_hits
        assert [
            (p["name"], p["cached"], p["nodes_before"], p["nodes_after"])
            for p in as_dict["passes"]
        ] == [
            (r.name, r.cached, r.nodes_before, r.nodes_after) for r in report.records
        ]
        assert set(as_dict["passes"][0]) == {
            "name", "seconds", "budget_seconds", "cached", "nodes_before",
            "nodes_after", "details",
        }

    def test_trace_keeps_intermediate_programs(self):
        cache = AnalysisCache()
        pipeline = default_pipeline().without("generate-hardware", "build-schedule", "estimate-area")
        outcome = pipeline.run(_gemm_program(), PassContext(config=_tiling_config(), cache=cache))
        strip_mined = outcome.stage("strip-mine")
        assert strip_mined is not None
        assert outcome.stage("interchange") is not None
        assert outcome.stage("no-such-pass") is None


class TestMemoisation:
    def test_second_run_hits_every_transform_pass(self):
        cache = AnalysisCache()
        pipeline = default_pipeline().without("generate-hardware", "build-schedule", "estimate-area")
        config = _tiling_config()
        program = _gemm_program()
        first = pipeline.run(program, PassContext(config=config, cache=cache))
        second = pipeline.run(program, PassContext(config=config, cache=cache))
        assert all(record.cached for record in second.report.records)
        assert second.program.body.structural_hash() == first.program.body.structural_hash()

    def test_structurally_identical_pass_output_still_hits_downstream(self):
        """A no-op pass inserted mid-pipeline must not break downstream hits."""
        cache = AnalysisCache()
        pipeline = default_pipeline().without("generate-hardware", "build-schedule", "estimate-area")
        config = _tiling_config()
        program = _gemm_program()
        pipeline.run(program, PassContext(config=config, cache=cache))

        edited = pipeline.inserted_before("strip-mine", NoOpPass())
        outcome = edited.run(program, PassContext(config=config, cache=cache))
        downstream = [record for record in outcome.report.records if record.name != "noop"]
        assert all(record.cached for record in downstream)

    def test_repeated_cleanup_shares_entries_across_positions(self):
        """post-cse hits the memo entry cse created for the identical input."""
        cache = AnalysisCache()
        pipeline = default_pipeline().without("generate-hardware", "build-schedule", "estimate-area")
        outcome = pipeline.run(
            _gemm_program(), PassContext(config=_tiling_config(), cache=cache)
        )
        records = {record.name: record for record in outcome.report.records}
        # interchange leaves gemm unchanged on this config, so the second
        # cleanup sees the programs the first cleanup already processed.
        if not records["interchange"].changed:
            assert records["post-cse"].cached or records["post-code-motion"].cached

    def test_disabled_cache_recomputes(self):
        cache = AnalysisCache()
        cache.enabled = False
        pipeline = default_pipeline().without("generate-hardware", "build-schedule", "estimate-area")
        config = _tiling_config()
        program = _gemm_program()
        pipeline.run(program, PassContext(config=config, cache=cache))
        second = pipeline.run(program, PassContext(config=config, cache=cache))
        assert not any(record.cached for record in second.report.records)

    def test_different_tile_sizes_share_strip_mining(self):
        """A second tile size of the same structure is served by the first
        run's symbolic entry and instantiates to its own cache-off result."""
        pipeline = Pipeline([TransformationStage(StripMine())], name="strip")
        other = CompileConfig(tiling=True, tile_sizes={"m": 32, "n": 32, "p": 32})
        uncached = AnalysisCache()
        uncached.enabled = False

        def run(config, cache):
            with fresh_naming_scope():
                return pipeline.run(_gemm_program(), PassContext(config=config, cache=cache))

        cache = AnalysisCache()
        first = run(_tiling_config(), cache)
        second = run(other, cache)
        direct = run(other, uncached)
        assert second.report.records[0].cached
        assert second.program is not first.program
        assert second.program.body.structural_hash() != first.program.body.structural_hash()
        assert _fingerprint(second.program) == _fingerprint(direct.program)


class TestCleanupSweep:
    """The default pipeline's second cleanup (post-cse, post-code-motion)
    leaves nothing for a further sweep: rerunning the pair on its output
    changes no tiled program of any app's default design space."""

    @pytest.mark.parametrize("name", [bench.name for bench in all_benchmarks()])
    def test_a_second_sweep_changes_nothing(self, name):
        bench = get_benchmark(name)
        sizes = bench.default_sizes
        workload = bench.workload(sizes)
        space = default_space({dim: sizes[dim] for dim in bench.tile_sizes})
        tilings = sorted({tuple(sorted(p.tiles.items())) for p in space.points if p.tiles})
        swept = default_pipeline().inserted_after(
            "post-code-motion", TransformationStage(LetCse(), name="again-cse")
        ).inserted_after(
            "again-cse", TransformationStage(InvariantCodeMotion(), name="again-code-motion")
        )
        session = Session(cache=AnalysisCache())
        assert tilings
        for tiles in tilings:
            config = CompileConfig(tiling=True, tile_sizes=dict(tiles))
            plain = session.compile(bench.build(), config, workload)
            again = session.compile(bench.build(), config, workload, pipeline=swept)
            assert not again.report.record("again-cse").changed, tiles
            assert not again.report.record("again-code-motion").changed, tiles
            assert again.tiled_program.body.structural_hash() == (
                plain.tiled_program.body.structural_hash()
            ), tiles
