"""Ordering legality, enumeration, auto: variant names, DSE integration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import all_benchmarks
from repro.config import CompileConfig
from repro.dse.engine import explore
from repro.dse.space import default_space
from repro.errors import TransformError
from repro.pipeline import Session
from repro.pipeline.variants import get_pipeline, variant_signature
from repro.ppl.interp import run_program
from repro.ppl.traversal import structurally_equal
from repro.rewrite import (
    DEFAULT_ORDERING,
    TransformationError,
    enumerate_legal_orderings,
    guided_orderings,
    is_legal_ordering,
    ordering_name,
    parse_ordering_name,
    pipeline_for_name,
    pipeline_for_ordering,
)

SIZES = {"gemm": {"m": 256, "n": 256, "p": 256}, "tpchq6": {"n": 262144}}


def _bench(name):
    return next(b for b in all_benchmarks() if b.name == name)


def _meta_config(bench):
    return CompileConfig(
        tiling=True,
        metapipelining=True,
        tile_sizes=dict(bench.tile_sizes),
        par_factors=dict(bench.par_factors),
    )


class TestLegality:
    def test_default_ordering_is_legal(self):
        ok, reason = is_legal_ordering(DEFAULT_ORDERING)
        assert ok, reason

    def test_unknown_and_duplicate_steps_are_illegal(self):
        assert not is_legal_ordering(("strip-mine", "tile-copies", "nope"))[0]
        assert not is_legal_ordering(("strip-mine", "tile-copies", "cse", "cse"))[0]

    def test_phase_order_is_enforced(self):
        # tile-copies before strip-mine breaks the rank order.
        ok, reason = is_legal_ordering(("tile-copies", "strip-mine"))
        assert not ok and "later-phase" in reason
        # fusion after strip mining likewise.
        assert not is_legal_ordering(("strip-mine", "fusion", "tile-copies"))[0]

    def test_required_steps_must_be_present(self):
        assert not is_legal_ordering(("fusion", "tile-copies"))[0]
        assert not is_legal_ordering(("fusion", "strip-mine"))[0]

    def test_post_cleanups_must_follow_their_base(self):
        base = ("strip-mine", "tile-copies")
        assert not is_legal_ordering(base + ("post-cse", "cse"))[0]
        assert is_legal_ordering(base + ("cse", "post-cse"))[0]
        # post-* without the base step present is fine (late-cleanup).
        assert is_legal_ordering(base + ("post-cse",))[0]

    def test_composite_schedule_rewrites_are_exclusive(self):
        base = ("strip-mine", "tile-copies")
        assert is_legal_ordering(base + ("rewrite-schedule",))[0]
        assert not is_legal_ordering(
            base + ("coalesce-transfers", "rewrite-schedule")
        )[0]
        assert not is_legal_ordering(
            base + ("rewrite-schedule", "rewrite-schedule-profiled")
        )[0]
        assert is_legal_ordering(
            base + ("flatten-degenerate-groups", "coalesce-transfers", "rebalance-stages")
        )[0]


class TestEnumeration:
    def test_enumeration_is_deterministic_and_legal(self):
        first = list(itertools.islice(enumerate_legal_orderings(), 200))
        second = list(itertools.islice(enumerate_legal_orderings(), 200))
        assert first == second
        assert len(set(first)) == len(first)
        for ordering in first:
            ok, reason = is_legal_ordering(ordering)
            assert ok, (ordering, reason)

    def test_enumeration_covers_the_interesting_axes(self):
        pool = set(enumerate_legal_orderings())
        assert any("rewrite-schedule" in o for o in pool)
        assert any("coalesce-transfers" in o for o in pool)
        assert any("fusion" not in o for o in pool)

    def test_guided_sampling_is_seeded_and_legal(self):
        a = guided_orderings(seed=7, count=25)
        b = guided_orderings(seed=7, count=25)
        c = guided_orderings(seed=8, count=25)
        assert a == b
        assert a != c
        assert len(set(a)) == len(a) == 25
        for ordering in a:
            ok, reason = is_legal_ordering(ordering)
            assert ok, (ordering, reason)


class TestAutoNames:
    def test_name_round_trip(self):
        name = ordering_name(DEFAULT_ORDERING)
        assert name.startswith("auto:")
        assert parse_ordering_name(name) == DEFAULT_ORDERING

    def test_illegal_names_raise(self):
        with pytest.raises(TransformationError):
            parse_ordering_name("auto:tile-copies,strip-mine")
        with pytest.raises(TransformationError):
            parse_ordering_name("default")
        # TransformationError sits in the TransformError hierarchy.
        assert issubclass(TransformationError, TransformError)

    def test_get_pipeline_resolves_auto_names_without_registration(self):
        name = ordering_name(DEFAULT_ORDERING + ("rewrite-schedule",))
        pipeline = get_pipeline(name)
        assert pipeline.name == name
        assert "rewrite-schedule" in pipeline.pass_names
        assert variant_signature(name) == pipeline.signature()

    def test_get_pipeline_rejects_illegal_auto_names(self):
        with pytest.raises(ValueError, match="illegal ordering"):
            get_pipeline("auto:tile-copies,strip-mine")

    def test_pipeline_for_name_matches_pipeline_for_ordering(self):
        steps = DEFAULT_ORDERING + ("coalesce-transfers",)
        assert (
            pipeline_for_name(ordering_name(steps)).signature()
            == pipeline_for_ordering(steps).signature()
        )


class TestReexpressedVariants:
    def test_auto_default_equals_registered_default(self):
        bench = _bench("gemm")
        bindings = bench.bindings(SIZES["gemm"], np.random.default_rng(0))
        program = bench.build()
        config = _meta_config(bench)
        registered = Session().compile(program, config, bindings)
        auto = Session().compile(
            program, config, bindings, pipeline=ordering_name(DEFAULT_ORDERING)
        )
        assert structurally_equal(registered.program.body, auto.program.body)
        assert registered.area.total == auto.area.total

    def test_novel_ordering_compiles_and_preserves_semantics(self):
        # interchange before any cleanup — an ordering no registered
        # variant expresses.
        steps = ("fusion", "strip-mine", "tile-copies", "interchange", "cse", "code-motion")
        ok, reason = is_legal_ordering(steps)
        assert ok, reason
        bench = _bench("gemm")
        small = {"m": 32, "n": 32, "p": 32}
        bindings = bench.bindings(small, np.random.default_rng(0))
        config = _meta_config(bench)
        base = Session().compile(bench.build(), config, bindings)
        novel = Session().compile(
            bench.build(), config, bindings, pipeline=ordering_name(steps)
        )
        np.testing.assert_array_equal(
            np.asarray(run_program(base.tiled_program, bindings)),
            np.asarray(run_program(novel.tiled_program, bindings)),
        )

    def test_dse_sweeps_auto_orderings_through_the_pipeline_gene(self):
        names = ["default", ordering_name(DEFAULT_ORDERING + ("rewrite-schedule",))]
        space = default_space(
            {"n": SIZES["tpchq6"]["n"]},
            pars=(16,),
            metapipelining=(True,),
            max_tiles_per_dim=1,
            include_baseline=False,
            pipelines=names,
        )
        result = explore(
            "tpchq6", sizes=SIZES["tpchq6"], space=space, workers=1, prune=False
        )
        swept = {r.point.pipeline for r in result.evaluated if not r.failed}
        assert set(names) <= swept
        by_pipeline = {r.point.pipeline: r.cycles for r in result.evaluated}
        assert all(cycles > 0 for cycles in by_pipeline.values())


PPL_ORDERINGS = list(enumerate_legal_orderings(include_schedule=False))


@given(
    bench=st.sampled_from(all_benchmarks()),
    steps=st.sampled_from(PPL_ORDERINGS),
    tile=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_every_legal_ordering_computes_the_reference(bench, steps, tile, seed):
    """Any legal PPL ordering at any small tile size (partial tiles included,
    since tiles of 1-5 rarely divide the test sizes) still computes what the
    app's numpy reference computes."""
    bindings = bench.bindings(rng=np.random.default_rng(seed))
    config = CompileConfig(tiling=True, tile_sizes={name: tile for name in bench.tile_sizes})
    compiled = Session().compile(bench.build(), config, bindings, pipeline=ordering_name(steps))
    np.testing.assert_allclose(
        np.asarray(run_program(compiled.tiled_program, bindings), dtype=float),
        np.asarray(bench.reference(bindings), dtype=float),
        rtol=1e-9,
        err_msg=ordering_name(steps),
    )
