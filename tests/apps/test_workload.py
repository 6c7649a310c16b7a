"""Shape-only workloads: declared input dimensions agree with the generators.

Every compile-only path binds ``Benchmark.workload`` — the sizes plus one
data-free stand-in per input, shaped by the benchmark's ``input_dims``.
A missing or wrong declaration would be priced silently (the traffic
analyses read an unbound input's shape as ``()``), so these tests pin the
declarations to ``generate_inputs`` and to the program, at the test sizes
and at drawn sizes, and check that generated bindings and the workload
give the same workload signature and point keys.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.estimate import input_shapes, workload_env
from repro.apps import all_benchmarks, get_benchmark
from repro.dse.engine import PointLedger
from repro.dse.space import default_space
from repro.pipeline.session import CompilerSession
from repro.ppl.interp import run_program

BENCH_NAMES = [bench.name for bench in all_benchmarks()]


@st.composite
def cases(draw):
    """A benchmark at its test sizes or at drawn sizes, plus a design point."""
    bench = get_benchmark(draw(st.sampled_from(BENCH_NAMES)))
    names = [size.name for size in bench.build().sizes]
    sizes = draw(
        st.one_of(
            st.just(dict(bench.test_sizes)),
            st.fixed_dictionaries({name: st.integers(1, 24) for name in names}),
        )
    )
    space = list(
        default_space(
            {name: sizes[name] for name in bench.tile_sizes},
            pars=(4, 8),
            max_tiles_per_dim=2,
            pipelines=("default", "rewrite"),
        )
    )
    point = draw(st.sampled_from(space))
    return bench, sizes, point


@given(case=cases(), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_generators_return_exactly_the_declared_inputs(case, seed):
    bench, sizes, _ = case
    program = bench.build()
    ranks = {array.name: array.ty.rank for array in program.inputs}
    assert {name: len(dims) for name, dims in bench.input_dims.items()} == ranks
    data = bench.generate_inputs(sizes, np.random.default_rng(seed))
    assert set(data) == set(bench.input_dims)
    for name, dims in bench.input_dims.items():
        assert data[name].shape == tuple(sizes[dim] for dim in dims), name


@given(
    case=cases(),
    seed=st.integers(0, 2**16),
    cycle_model=st.sampled_from(["analytical", "event"]),
)
@settings(max_examples=60, deadline=None)
def test_workload_keys_like_generated_bindings(case, seed, cycle_model):
    bench, sizes, point = case
    program = bench.build()
    bindings = bench.bindings(sizes, np.random.default_rng(seed))
    workload = bench.workload(sizes)
    assert workload_env(program, workload) == workload_env(program, bindings)
    assert input_shapes(program, workload) == input_shapes(program, bindings)
    ledger = PointLedger(CompilerSession())
    ref = ledger.locate(program, workload, point, cycle_model)
    assert ref.key is not None
    assert ref == ledger.locate(program, bindings, point, cycle_model)


@pytest.mark.parametrize("name", BENCH_NAMES)
def test_reading_a_stand_in_fails_loudly(name):
    bench = get_benchmark(name)
    workload = bench.workload()
    with pytest.raises(TypeError, match="holds no data"):
        run_program(bench.build(), workload)
    with pytest.raises(TypeError):
        bench.reference(workload)
