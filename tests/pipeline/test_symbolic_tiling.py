"""Symbolic tiling: one PPL prefix run per tiling structure, instantiated exactly.

With the cache on, the tiling transforms run on placeholder tile sizes and
every configuration is instantiated from the shared entry
(:mod:`repro.transforms.symbolic`).  The oracle is the cache-off compile,
which emits constant tile sizes directly: each stage snapshot of a served
compile must equal it in structural hash, in pattern meta (which the hash
ignores), in interior node sharing and in the interchange log.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import all_benchmarks, get_benchmark
from repro.config import CompileConfig
from repro.dse.cache import ANALYSIS_CACHE, AnalysisCache
from repro.dse.engine import evaluate_point, explore
from repro.dse.space import DesignPoint, default_space
from repro.pipeline import Session
from repro.ppl.ir import Pattern
from repro.ppl.traversal import structurally_equal, walk
from repro.rewrite import StripMine
from repro.rewrite.orderings import guided_orderings, ordering_name
from repro.utils.naming import fresh_naming_scope

STAGES = ("fused", "strip_mined", "interchanged", "tiled")
PIPELINES = ["default", "fixed-point-cleanup"] + [
    ordering_name(steps) for steps in guided_orderings(0, 4)
]
BENCHMARKS = [bench.name for bench in all_benchmarks()]


@pytest.fixture(autouse=True)
def _fresh_cache():
    ANALYSIS_CACHE.clear()
    yield
    ANALYSIS_CACHE.clear()


def _metas(program):
    """Pattern meta in walk order."""
    return [dict(node.meta) for node in walk(program.body) if isinstance(node, Pattern)]


def _sharing(program):
    """The pre-order index of each non-leaf node's first occurrence."""
    first = {}
    return [
        first.setdefault(id(node), index)
        for index, node in enumerate(walk(program.body))
        if node.children()
    ]


def _uncached() -> AnalysisCache:
    cache = AnalysisCache()
    cache.enabled = False
    return cache


def _tile_configs(bench, sizes):
    space = default_space(
        {name: sizes[name] for name in bench.tile_sizes},
        pars=(16,),
        metapipelining=(False,),
        include_baseline=False,
    )
    return [point.config() for point in space.points]


def _compile_in_scope(bench, config, sizes, pipeline, cache):
    """Build and compile under one fresh naming scope, as a direct compile."""
    with fresh_naming_scope():
        session = Session(cache=cache, pipeline=pipeline)
        return session.compile(bench.build(), config, bench.workload(sizes))


@pytest.mark.parametrize("name", BENCHMARKS)
def test_every_default_space_configuration_instantiates_exactly(name):
    bench = get_benchmark(name)
    served = 0
    for sizes in (bench.default_sizes, bench.test_sizes):
        configs = _tile_configs(bench, sizes)
        for pipeline in PIPELINES:
            cache = AnalysisCache()
            # A sibling of the same structure fills the shared entries first.
            _compile_in_scope(bench, configs[-1], sizes, pipeline, cache)
            for config in configs:
                shared = _compile_in_scope(bench, config, sizes, pipeline, cache)
                direct = _compile_in_scope(bench, config, sizes, pipeline, _uncached())
                served += shared.report.record("strip-mine").cached
                where = (sizes, pipeline, dict(config.tile_sizes))
                for stage in STAGES:
                    got = getattr(shared.tiling, stage)
                    want = getattr(direct.tiling, stage)
                    assert got.body.structural_hash() == want.body.structural_hash(), where
                    assert _metas(got) == _metas(want), where
                    assert _sharing(got) == _sharing(want), where
                assert shared.tiling.applied_interchanges == direct.tiling.applied_interchanges
    assert served >= len(PIPELINES) * 2


@st.composite
def _drawn_tilings(draw):
    """An app at 1-3x its test sizes, any subset of its size names tiled
    (tiles 1 to extent + 2, for a target and a sibling) and a split budget."""
    bench = get_benchmark(draw(st.sampled_from(BENCHMARKS)))
    sizes = {
        name: extent * draw(st.integers(1, 3))
        for name, extent in sorted(bench.test_sizes.items())
    }
    tiled = sorted(draw(st.sets(st.sampled_from(sorted(sizes)))))

    def tiles():
        return {name: draw(st.integers(1, sizes[name] + 2)) for name in tiled}

    budget = draw(st.sampled_from([None, 4, 8, 16, 32]))
    return bench, sizes, tiles(), tiles(), budget


@given(drawn=_drawn_tilings(), pipeline=st.sampled_from(PIPELINES))
@settings(max_examples=60, deadline=None)
def test_drawn_tilings_instantiate_exactly(drawn, pipeline):
    """Names may differ (a pass rerun after memo hits mints its own bound
    names), so programs compare up to alpha-renaming."""
    bench, sizes, target, sibling, budget = drawn
    program = bench.build()
    workload = bench.workload(sizes)

    def config(tiles):
        return CompileConfig(tiling=True, tile_sizes=tiles, split_threshold_words=budget)

    session = Session(cache=AnalysisCache(), pipeline=pipeline)
    session.compile(program, config(sibling), workload)
    shared = session.compile(program, config(target), workload)
    direct = Session(cache=_uncached(), pipeline=pipeline).compile(
        program, config(target), workload
    )
    for stage in STAGES:
        got, want = getattr(shared.tiling, stage), getattr(direct.tiling, stage)
        assert structurally_equal(got.body, want.body), stage
        assert _metas(got) == _metas(want), stage
        assert _sharing(got) == _sharing(want), stage
    assert shared.tiling.applied_interchanges == direct.tiling.applied_interchanges


@st.composite
def _drawn_points(draw):
    """A design point of an app at 1-3x its test sizes, and a sibling of
    the same structure priced first."""
    bench = get_benchmark(draw(st.sampled_from(BENCHMARKS)))
    sizes = {
        name: extent * draw(st.integers(1, 3))
        for name, extent in sorted(bench.test_sizes.items())
    }
    tiled = sorted(draw(st.sets(st.sampled_from(sorted(bench.tile_sizes)), min_size=1)))

    def point():
        return DesignPoint.make(
            tile_sizes={name: draw(st.integers(1, sizes[name] + 2)) for name in tiled},
            par=draw(st.sampled_from([1, 4, 16])),
            metapipelining=draw(st.booleans()),
            pipeline=draw(st.sampled_from(["default", "rewrite"])),
        )

    return bench, sizes, point(), point()


@given(drawn=_drawn_points())
@settings(max_examples=30, deadline=None)
def test_drawn_points_price_bit_identically(drawn):
    bench, sizes, target, sibling = drawn
    ANALYSIS_CACHE.clear()
    program = bench.build()
    workload = bench.workload(sizes)
    evaluate_point(program, workload, sibling)
    shared = evaluate_point(program, workload, target)
    with ANALYSIS_CACHE.disabled():
        direct = evaluate_point(program, workload, target)
    assert shared == direct


@pytest.mark.parametrize("sizes_of", ["test_sizes", "default_sizes"])
def test_cold_sweep_strip_mines_once_per_structure_and_guard_outcome(monkeypatch, sizes_of):
    """Each app's default space has one tiled structure; a tile of 1 is the
    one guard strip mining decides, so each set of unit-tiled keys is one
    outcome."""
    calls = Counter()
    apply = StripMine.apply

    def counted(self, program, ctx):
        calls[program.name] += 1
        return apply(self, program, ctx)

    monkeypatch.setattr(StripMine, "apply", counted)
    expected = Counter()
    for bench in all_benchmarks():
        sizes = getattr(bench, sizes_of)
        space = default_space({name: sizes[name] for name in bench.tile_sizes})
        explore(bench.name, sizes=sizes, space=space, prune=False)
        outcomes = {
            frozenset(name for name, tile in point.tile_sizes if tile == 1)
            for point in space.points
            if point.tiling
        }
        expected[bench.build().name] = len(outcomes)
    assert calls == expected
