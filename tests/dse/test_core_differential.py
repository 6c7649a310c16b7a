"""Generated-input differential test of the evaluation core.

Each example draws benchmarks at their test sizes, a search strategy with
an evaluation budget, pipeline genes and a cycle model, then runs the same
search four ways, each from a cold cache: ``explore`` per benchmark,
``MultiBenchmarkExplorer`` (batched in-process lanes), the same explorer
through a compile farm (``SyncClient`` over an inline ``CompileFarm``),
and scalar ``evaluate_point`` with the cache disabled for every point the
searches evaluated.  All four must agree field by field.  The three lane
paths bind shape-only workloads; the scalar reference binds generated
arrays.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import all_benchmarks, get_benchmark
from repro.dse.cache import ANALYSIS_CACHE
from repro.dse.engine import MultiBenchmarkExplorer, evaluate_point, explore
from repro.pipeline.variants import pipeline_variants
from repro.serve import CompileFarm, SyncClient

BENCH_NAMES = [bench.name for bench in all_benchmarks()]
SEED = 3


@st.composite
def searches(draw):
    return dict(
        names=draw(st.lists(st.sampled_from(BENCH_NAMES), min_size=1, max_size=2, unique=True)),
        strategy=draw(st.sampled_from(["exhaustive", "annealing"])),
        max_evaluations=draw(st.integers(2, 6)),
        search_seed=draw(st.integers(0, 2**16)),
        pipelines=tuple(
            draw(st.lists(st.sampled_from(pipeline_variants()), min_size=1, max_size=2, unique=True))
        ),
        cycle_model=draw(st.sampled_from(["analytical", "event"])),
    )


@given(search=searches())
@settings(max_examples=40, deadline=None)
def test_explore_multibench_farm_and_scalar_agree(search):
    names = search.pop("names")
    sizes = {name: dict(get_benchmark(name).test_sizes) for name in names}

    ANALYSIS_CACHE.clear()
    single = {
        name: explore(name, sizes=sizes[name], seed=SEED, **search).evaluated for name in names
    }
    ANALYSIS_CACHE.clear()
    multi = MultiBenchmarkExplorer(names, sizes=sizes, **search).run()
    ANALYSIS_CACHE.clear()
    farm = CompileFarm(names, sizes=sizes, workers=1, seed=SEED)
    with SyncClient(farm) as client:
        farmed = MultiBenchmarkExplorer(names, sizes=sizes, farm=client, **search).run()
    ANALYSIS_CACHE.clear()

    for name in names:
        evaluated = single[name]
        assert evaluated and not any(r.failed for r in evaluated)
        # Dataclass equality: every field, the utilization dict included.
        assert multi[name].evaluated == evaluated
        assert farmed[name].evaluated == evaluated
        bench = get_benchmark(name)
        program = bench.build()
        bindings = bench.bindings(sizes[name], np.random.default_rng(SEED))
        with ANALYSIS_CACHE.disabled():
            scalar = [
                evaluate_point(
                    program, bindings, result.point, cycle_model=search["cycle_model"]
                )
                for result in evaluated
            ]
        assert scalar == evaluated
