"""The transformation framework: apply, stages, invariants."""

import numpy as np
import pytest

from repro.analysis.traffic import schedule_traffic
from repro.apps import all_benchmarks
from repro.config import BASELINE, CompileConfig
from repro.dse.cache import AnalysisCache
from repro.pipeline import Session
from repro.pipeline.passes import PassContext, TransformationStage
from repro.rewrite import (
    CoalesceTransfers,
    FlattenDegenerateGroups,
    Interchange,
    InvariantCodeMotion,
    LetCse,
    RebalanceStages,
    ScheduleRewrite,
    StripMine,
    TileCopies,
    VerticalFusion,
)

SIZES = {
    "outerprod": {"m": 2048, "n": 2048},
    "sumrows": {"m": 4096, "n": 128},
    "gemm": {"m": 256, "n": 256, "p": 256},
    "tpchq6": {"n": 262144},
    "gda": {"n": 4096, "d": 16},
    "kmeans": {"n": 8192, "k": 16, "d": 16},
}


def _bench(name):
    return next(b for b in all_benchmarks() if b.name == name)


def _meta_config(bench):
    return CompileConfig(
        tiling=True,
        metapipelining=True,
        tile_sizes=dict(bench.tile_sizes),
        par_factors=dict(bench.par_factors),
    )


def _ctx(config):
    return PassContext(config=config, cache=AnalysisCache())


def _compiled(name, pipeline=None):
    bench = _bench(name)
    bindings = bench.bindings(SIZES[name], np.random.default_rng(0))
    return Session().compile(
        bench.build(), _meta_config(bench), bindings, pipeline=pipeline
    )


#: Transformations the default pipeline has already run to a fixed point
#: on its tiled output.  StripMine is not one: on sumrows it tiles the
#: tiled output again.
SETTLED = (VerticalFusion, LetCse, InvariantCodeMotion, TileCopies, Interchange)


class TestApplyIdentity:
    """An apply that fires nothing returns the program it was given."""

    @pytest.mark.parametrize("name", list(SIZES))
    def test_settled_transforms_return_their_input(self, name):
        bench = _bench(name)
        config = _meta_config(bench)
        source = bench.build()
        workload = bench.workload(bench.default_sizes)
        tiled = Session().compile(source, config, workload).tiled_program
        ctx = _ctx(config)
        for transformation in SETTLED:
            assert transformation().apply(tiled, ctx) is tiled, transformation.name
        # Before strip mining no pattern is strided, so no tile is copied.
        assert TileCopies().apply(source, ctx) is source


class TestScheduleTransformations:
    def test_apply_never_mutates_the_input_schedule(self):
        schedule = _compiled("tpchq6").schedule
        ctx = _ctx(_meta_config(_bench("tpchq6")))
        transfers_before = len(schedule.transfers)
        rewritten, details = CoalesceTransfers().apply_schedule(schedule, ctx)
        assert len(schedule.transfers) == transfers_before
        assert len(rewritten.transfers) < transfers_before
        assert details["rewrite_hits"]["coalesce-transfers"] > 0
        assert details["rewrite_rounds"] >= 1

    def test_verify_rewrite_guards_traffic(self):
        schedule = _compiled("tpchq6").schedule
        ctx = _ctx(_meta_config(_bench("tpchq6")))
        before = schedule_traffic(schedule)
        for t in (FlattenDegenerateGroups(), CoalesceTransfers(), RebalanceStages()):
            rewritten, _ = t.apply_schedule(schedule, ctx)
            after = schedule_traffic(rewritten)
            assert after.read_bytes == before.read_bytes
            assert after.write_bytes == before.write_bytes

    def test_composite_reports_legacy_details(self):
        compiled = _compiled("tpchq6", pipeline="rewrite")
        record = compiled.report.record("rewrite-schedule")
        assert {
            "rewrite_hits",
            "rewrite_rounds",
            "balance_factor",
            "cost_source",
            "event_runs",
            "event_reuses",
        } <= set(record.details)

    def test_composite_signature_embeds_knobs(self):
        assert "bf=auto" in ScheduleRewrite(
            balance_factor="auto", cost_source="event"
        ).signature()
        assert "cs=event" in ScheduleRewrite(cost_source="event").signature()


class TestTransformationStage:
    def test_stage_skips_ppl_transform_on_untiled_config(self):
        stage = TransformationStage(StripMine())
        program = _bench("gemm").build()
        assert stage.run(program, _ctx(BASELINE)) is program

    def test_stage_cache_key_varies_with_tiling_and_config(self):
        bench = _bench("gemm")
        stage = TransformationStage(StripMine())
        tiled_key = stage.cache_key(_ctx(_meta_config(bench)))
        untiled_key = stage.cache_key(_ctx(BASELINE))
        assert tiled_key != untiled_key
        assert stage.cache_key(_ctx(_meta_config(bench))) == tiled_key

    def test_schedule_stage_is_never_memoised(self):
        stage = TransformationStage(CoalesceTransfers())
        assert stage.cache_key(_ctx(_meta_config(_bench("gemm")))) is None
