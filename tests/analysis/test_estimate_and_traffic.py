"""Static estimators: size evaluation, op counting, traffic analysis, area."""

import numpy as np
import pytest

from repro.analysis.area import area_of_module, estimate_area, relative_area
from repro.analysis.estimate import (
    StaticEvaluator,
    count_scalar_ops,
    input_accesses,
    traffic_records,
    workload_env,
)
from repro.analysis.traffic import minimum_reads
from repro.apps import get_benchmark
from repro.config import CompileConfig
from repro.hw.templates import Buffer, ReductionTree, VectorUnit
from repro.ppl import builder as b
from repro.pipeline import Session
from repro.ppl.ir import Domain
from repro.ppl.program import Program
from repro.ppl.types import INDEX


class TestStaticEvaluator:
    def test_eval_arithmetic(self):
        n = b.size_sym("n")
        ev = StaticEvaluator({n: 100})
        assert ev.eval(b.add(n, 4)) == 104
        assert ev.eval(b.mul(n, 2)) == 200
        assert ev.eval(b.div(n, 3)) == 33

    def test_min_uses_known_bound(self):
        n = b.size_sym("n")
        ii = b.index_sym("ii")
        ev = StaticEvaluator({n: 100})
        clamp = b.minimum(b.idx(16), b.sub(n, ii))
        assert ev.eval(clamp) == 16

    def test_unknown_symbol_returns_none(self):
        unknown = b.size_sym("zz")
        ev = StaticEvaluator({})
        assert ev.eval(unknown) is None
        assert ev.eval_or(unknown, 7) == 7

    def test_domain_trips_with_stride(self):
        n = b.size_sym("n")
        ev = StaticEvaluator({n: 100})
        strided = Domain((n,), (b.idx(16),))
        assert ev.domain_trips(strided) == 7  # ceil(100 / 16)
        assert ev.domain_elements(strided) == 100


class TestOpCounting:
    def test_map_ops_scale_with_domain(self):
        n = b.size_sym("n")
        x = b.array_sym("x", 1)
        body = b.pmap(b.domain(n), lambda i: b.add(b.apply_array(x, i), 1.0))
        ev = StaticEvaluator({n: 64})
        assert count_scalar_ops(body, ev) == pytest.approx(64.0)

    def test_nested_fold_ops(self):
        bench = get_benchmark("gemm")
        program = bench.build()
        ev = StaticEvaluator(workload_env(program, {"m": 8, "n": 8, "p": 4}))
        ops = count_scalar_ops(program.body, ev)
        # At least one multiply-add per (i, j, k).
        assert ops >= 8 * 8 * 4 * 2


class TestInputAccesses:
    def test_loop_stack_is_outermost_first(self):
        n, m = b.size_sym("n"), b.size_sym("m")
        x, y = b.array_sym("x", 2), b.array_sym("y", 2)

        def row(i):
            def step(j, acc):
                return b.add(acc, b.mul(b.apply_array(x, i, j), b.apply_array(y, j, i)))

            return b.fold(b.domain(m), b.flt(0.0), step)

        body = b.pmap(b.domain(n), row)
        ev = StaticEvaluator({n: 4, m: 3}, {"x": (4, 3), "y": (3, 4)})
        [(node, loops)] = list(input_accesses(body, {"x"}, ev))
        inner = body.func.body.value_func.params
        assert node.array is x
        assert loops == ((body.func.params, 4), (inner, 3))
        records = traffic_records(Program("stack", [x, y], [n, m], body), ev)
        assert [(r.array, r.trips) for r in records] == [("x", 12), ("y", 12)]

    def test_combine_functions_are_not_entered(self):
        n = b.size_sym("n")
        x = b.array_sym("x", 1)
        lhs, rhs = b.sym("a", x.ty.element), b.sym("c", x.ty.element)
        combine = b.lam([lhs, rhs], b.add(b.add(lhs, rhs), b.apply_array(x, 0)))
        body = b.fold(
            b.domain(n), b.flt(0.0), lambda i, acc: b.add(acc, b.apply_array(x, i)), combine
        )
        accesses = list(input_accesses(body, {"x"}, StaticEvaluator({n: 8})))
        assert [node for node, _ in accesses] == [body.value_func.body.rhs]
        assert [loops for _, loops in accesses] == [((body.value_func.params, 8),)]

    def test_let_yields_its_value_before_its_body(self):
        x, y = b.array_sym("x", 1), b.array_sym("y", 1)
        body = b.let("t", b.apply_array(y, 0), lambda t: b.add(b.apply_array(x, 0), t))
        accesses = input_accesses(body, {"x", "y"}, StaticEvaluator({}))
        assert [node.array.name for node, _ in accesses] == ["y", "x"]

    def test_a_copy_visits_its_offsets_under_its_loops(self):
        n = b.size_sym("n")
        x, starts = b.array_sym("x", 1), b.array_sym("starts", 1, INDEX)

        def first_of_tile(i):
            tile = b.copy_tile(x, [b.apply_array(starts, i)], [4])
            return b.let("tile", tile, lambda bound: b.apply_array(bound, 0))

        body = b.pmap(b.domain(n), first_of_tile)
        copy = body.func.body.value
        ev = StaticEvaluator({n: 5}, {"x": (64,), "starts": (5,)})
        accesses = list(input_accesses(body, {"x", "starts"}, ev))
        assert [node for node, _ in accesses] == [copy, copy.offsets[0]]
        assert {loops for _, loops in accesses} == {((body.func.params, 5),)}


class TestTrafficRecords:
    def test_baseline_gemm_traffic_scales_with_reuse(self):
        bench = get_benchmark("gemm")
        program = bench.build()
        bindings = {"m": 16, "n": 16, "p": 8}
        ev = StaticEvaluator(workload_env(program, bindings), {"x": (16, 8), "y": (8, 16)})
        words = {}
        for record in traffic_records(program, ev):
            words[record.array] = words.get(record.array, 0) + record.total_words
        # Both matrices are re-read once per output element in the baseline.
        assert words["x"] == 16 * 16 * 8
        assert words["y"] == 16 * 16 * 8

    def test_stream_classification(self):
        bench = get_benchmark("gemm")
        program = bench.build()
        bindings = {"m": 16, "n": 16, "p": 8}
        ev = StaticEvaluator(workload_env(program, bindings), {"x": (16, 8), "y": (8, 16)})
        records = traffic_records(program, ev)
        by_array = {}
        for record in records:
            by_array.setdefault(record.array, set()).add(record.stream)
        assert "sequential" in by_array["x"]  # row-major walk of x
        assert "strided" in by_array["y"]  # column walk of y


class TestMinimumReads:
    def test_fused_kmeans_matches_formulas(self):
        bench = get_benchmark("kmeans")
        program = bench.build()
        sizes = {"n": 128, "k": 8, "d": 4}
        bindings = bench.bindings(sizes, np.random.default_rng(0))
        report = minimum_reads(program, bindings)
        assert report.words_read("points") == 128 * 4
        assert report.words_read("centroids") == 128 * 8 * 4
        assert report.storage("points") == 4

    def test_tiled_kmeans_centroid_reuse(self):
        bench = get_benchmark("kmeans")
        config = CompileConfig(tiling=True, tile_sizes={"n": 16, "k": 4})
        sizes = {"n": 128, "k": 8, "d": 4}
        bindings = bench.bindings(sizes, np.random.default_rng(0))
        tiled = Session().compile(bench.build(), config, bindings).tiled_program
        report = minimum_reads(tiled, bindings)
        assert report.words_read("centroids") == (128 // 16) * 8 * 4
        assert report.storage("points") == 16 * 4

    def test_a_copy_reached_twice_is_read_once(self):
        """Figure 5c counts a shared node once; hardware generation keeps a
        record per occurrence."""
        x = b.array_sym("x", 1)
        tile = b.copy_tile(x, [0], [4])
        program = Program("twice", [x], [], b.tup(tile, tile))
        assert minimum_reads(program, {"x": np.zeros(8)}).words_read("x") == 4
        records = traffic_records(program, StaticEvaluator({}, {"x": (8,)}))
        assert [record.total_words for record in records] == [4, 4]


class TestAreaModel:
    def test_vector_unit_scales_with_lanes(self):
        small = area_of_module(VectorUnit(name="v", lanes=4))
        large = area_of_module(VectorUnit(name="v", lanes=16))
        assert large.logic == pytest.approx(4 * small.logic)
        assert large.dsps == pytest.approx(4 * small.dsps)

    def test_double_buffer_doubles_bram(self):
        single = area_of_module(Buffer(name="b", depth_words=1024))
        double = area_of_module(Buffer(name="b", depth_words=1024, double=True))
        assert double.bram_bits == pytest.approx(2 * single.bram_bits)

    def test_design_area_report(self, rng):
        from repro.pipeline import Session
        from repro.config import BASELINE

        bench = get_benchmark("sumrows")
        bindings = bench.bindings({"m": 256, "n": 64}, rng)
        result = Session().compile(bench.build(), BASELINE, bindings)
        report = estimate_area(result.design)
        assert report.total.logic > 0
        assert 0 <= report.logic_utilization < 1.0

    def test_relative_area_of_identical_designs_is_one(self, rng):
        from repro.pipeline import Session
        from repro.config import BASELINE

        bench = get_benchmark("sumrows")
        bindings = bench.bindings({"m": 256, "n": 64}, rng)
        report = estimate_area(Session().compile(bench.build(), BASELINE, bindings).design)
        rel = relative_area(report, report)
        assert rel == {"logic": 1.0, "FF": 1.0, "mem": 1.0}
