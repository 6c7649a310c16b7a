"""Generated-input differential test: batched == scalar over legal orderings.

Each example draws pass orderings — legal PPL prefixes from
``enumerate_legal_orderings`` combined with schedule suffixes (individual
schedule rules in any order, or either composite), plus an ordering from
``guided_orderings`` and a registered variant — then a benchmark at its
test sizes and a shuffled mix of design points across those genes.  With
the analysis cache disabled, ``evaluate_point_batch`` over the benchmark's
shape-only workload must equal scalar ``evaluate_point`` over generated
arrays field by field, and its engagement counter must show that every
point took the vector path.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import all_benchmarks, get_benchmark
from repro.dse.batch import evaluate_point_batch
from repro.dse.cache import ANALYSIS_CACHE
from repro.dse.engine import evaluate_point
from repro.dse.space import default_space
from repro.pipeline.variants import pipeline_variants
from repro.rewrite.orderings import (
    SCHEDULE_TRIPLE,
    enumerate_legal_orderings,
    guided_orderings,
    ordering_name,
)

BENCH_NAMES = [bench.name for bench in all_benchmarks()]

#: Every legal ordering without schedule steps.
PPL_ORDERINGS = list(enumerate_legal_orderings(include_schedule=False))

#: A legal schedule suffix: a permuted subset of the individual rules, or
#: one of the two composites alone.
SCHEDULE_SUFFIXES = st.one_of(
    st.permutations(SCHEDULE_TRIPLE).flatmap(
        lambda rules: st.integers(0, len(rules)).map(lambda k: tuple(rules[:k]))
    ),
    st.sampled_from([("rewrite-schedule",), ("rewrite-schedule-profiled",)]),
)

FIELDS = (
    "point",
    "cycles",
    "seconds",
    "logic",
    "ffs",
    "bram_bits",
    "dsps",
    "utilization",
    "read_bytes",
    "write_bytes",
)


@st.composite
def genes(draw):
    """Pipeline genes; several share a PPL prefix, so they share designs."""
    prefixes = draw(st.lists(st.sampled_from(PPL_ORDERINGS), min_size=1, max_size=2))
    suffixes = draw(st.lists(SCHEDULE_SUFFIXES, min_size=1, max_size=3))
    names = {ordering_name(prefix + suffix) for prefix in prefixes for suffix in suffixes}
    names.update(
        ordering_name(steps)
        for steps in guided_orderings(draw(st.integers(0, 2**16)), count=1)
    )
    names.add(draw(st.sampled_from(pipeline_variants())))
    return sorted(names)


@st.composite
def workloads(draw):
    bench = get_benchmark(draw(st.sampled_from(BENCH_NAMES)))
    space = list(
        default_space(
            {name: bench.test_sizes[name] for name in bench.tile_sizes},
            pars=(4, 8),
            max_tiles_per_dim=2,
            pipelines=tuple(draw(genes())),
        )
    )
    picks = draw(
        st.lists(
            st.integers(0, len(space) - 1), min_size=3, max_size=16, unique=True
        )
    )
    return bench, [space[index] for index in picks]


@given(workload=workloads(), seed=st.integers(0, 2**16))
@settings(max_examples=80, deadline=None)
def test_batched_equals_scalar_on_generated_orderings(workload, seed):
    bench, points = workload
    program = bench.build()
    bindings = bench.bindings(rng=np.random.default_rng(seed))
    engagement = Counter()
    with ANALYSIS_CACHE.disabled():
        scalar = [evaluate_point(program, bindings, point) for point in points]
        batched = evaluate_point_batch(
            program, bench.workload(), points, engagement=engagement
        )
    assert len(batched) == len(scalar)
    for left, right in zip(scalar, batched):
        for field in FIELDS:
            assert getattr(left, field) == getattr(right, field), (field, left.label)
    assert engagement == Counter({"vector": len(points)})
