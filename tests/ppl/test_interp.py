"""Tests for the reference interpreter (the semantic oracle)."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import all_benchmarks, get_benchmark
from repro.config import CompileConfig
from repro.errors import InterpreterError
from repro.ppl import builder as b
from repro.ppl.interp import Interpreter, evaluate, run_program
from repro.pipeline import Session
from repro.ppl.ir import ArrayLit, BinOp, Cmp, Const, EmptyArray, Lambda, MakeTuple, Select, UnaryOp
from repro.ppl.program import Program
from repro.ppl.types import FLOAT32, INDEX


def _env(**kwargs):
    """Build an environment keyed by fresh symbols, returning (syms, env)."""
    syms = {}
    env = {}
    for name, value in kwargs.items():
        rank = getattr(value, "ndim", 0)
        if rank:
            sym = b.array_sym(name, rank)
        elif isinstance(value, float):
            sym = b.sym(name, FLOAT32)
        else:
            sym = b.sym(name, INDEX)
        syms[name] = sym
        env[sym] = value
    return syms, env


class TestScalarEvaluation:
    def test_arithmetic(self):
        syms, env = _env(x=3.0, y=4.0)
        expr = (syms["x"] + syms["y"]) * syms["x"]
        assert evaluate(expr, env) == pytest.approx(21.0)

    def test_division_index_is_floor(self):
        syms, env = _env(n=17, bsz=4)
        expr = BinOp("/", syms["n"], syms["bsz"])
        assert evaluate(expr, env) == 4

    def test_min_max(self):
        syms, env = _env(x=3.0, y=4.0)
        assert evaluate(b.minimum(syms["x"], syms["y"]), env) == 3.0
        assert evaluate(b.maximum(syms["x"], syms["y"]), env) == 4.0

    def test_select(self):
        syms, env = _env(x=3.0, y=4.0)
        expr = Select(Cmp("<", syms["x"], syms["y"]), syms["x"], syms["y"])
        assert evaluate(expr, env) == 3.0

    def test_tuple_roundtrip(self):
        syms, env = _env(x=3.0)
        t = MakeTuple((syms["x"], Const(7)))
        assert evaluate(b.tget(t, 0), env) == 3.0
        assert evaluate(b.tget(t, 1), env) == 7

    def test_unary_ops(self):
        syms, env = _env(x=4.0)
        assert evaluate(b.square(syms["x"]), env) == 16.0
        assert evaluate(UnaryOp("sqrt", syms["x"]), env) == 2.0
        assert evaluate(UnaryOp("neg", syms["x"]), env) == -4.0


class TestArrayEvaluation:
    def test_array_apply(self, rng):
        x = rng.normal(size=(4, 3))
        syms, env = _env(x=x)
        expr = b.apply_array(syms["x"], 2, 1)
        assert evaluate(expr, env) == pytest.approx(x[2, 1])

    def test_array_slice_row(self, rng):
        x = rng.normal(size=(4, 3))
        syms, env = _env(x=x)
        row = b.slice_row(syms["x"], 1)
        np.testing.assert_allclose(evaluate(row, env), x[1, :])

    def test_array_copy_tile(self, rng):
        x = rng.normal(size=(8,))
        syms, env = _env(x=x)
        tile = b.copy_tile(syms["x"], offsets=(4,), sizes=(2,))
        np.testing.assert_allclose(evaluate(tile, env), x[4:6])

    def test_array_copy_full_dim(self, rng):
        x = rng.normal(size=(6, 5))
        syms, env = _env(x=x)
        tile = b.copy_tile(syms["x"], offsets=(2, 0), sizes=(2, None))
        np.testing.assert_allclose(evaluate(tile, env), x[2:4, :])

    def test_zeros(self):
        syms, env = _env(n=3)
        z = b.zeros((syms["n"], 2))
        np.testing.assert_allclose(evaluate(z, env), np.zeros((3, 2)))

    def test_array_dim(self, rng):
        x = rng.normal(size=(6, 5))
        syms, env = _env(x=x)
        assert evaluate(b.dim(syms["x"], 1), env) == 5


class TestMapEvaluation:
    def test_elementwise_map(self, rng):
        x = rng.normal(size=(10,))
        syms, env = _env(x=x, n=10)
        m = b.pmap(b.domain(syms["n"]), lambda i: b.apply_array(syms["x"], i) * 2.0)
        np.testing.assert_allclose(evaluate(m, env), 2 * x)

    def test_2d_map(self, rng):
        x = rng.normal(size=(4, 3))
        y = rng.normal(size=(4, 3))
        syms, env = _env(x=x, y=y, m=4, n=3)
        zipped = b.pmap(
            b.domain(syms["m"], syms["n"]),
            lambda i, j: b.apply_array(syms["x"], i, j) + b.apply_array(syms["y"], i, j),
        )
        np.testing.assert_allclose(evaluate(zipped, env), x + y)

    def test_strided_map_produces_tile_count_outputs(self, rng):
        x = rng.normal(size=(8,))
        syms, env = _env(x=x, n=8)
        m = b.pmap(
            b.domain(syms["n"], strides=[4]),
            lambda i: b.apply_array(syms["x"], i),
        )
        np.testing.assert_allclose(evaluate(m, env), x[[0, 4]])


class TestFoldEvaluation:
    def test_sum_fold(self, rng):
        x = rng.normal(size=(16,))
        syms, env = _env(x=x, n=16)
        f = b.fold(b.domain(syms["n"]), b.flt(0.0), lambda i, acc: acc + b.apply_array(syms["x"], i))
        assert evaluate(f, env) == pytest.approx(x.sum())

    def test_product_fold(self, rng):
        x = rng.uniform(0.5, 1.5, size=(8,))
        syms, env = _env(x=x, n=8)
        a, bb = b.sym("a", FLOAT32), b.sym("b", FLOAT32)
        f = b.fold(
            b.domain(syms["n"]),
            b.flt(1.0),
            lambda i, acc: acc * b.apply_array(syms["x"], i),
            combine=Lambda((a, bb), BinOp("*", a, bb)),
        )
        assert evaluate(f, env) == pytest.approx(np.prod(x))

    def test_multifold_row_sums(self, rng):
        x = rng.normal(size=(4, 6))
        syms, env = _env(x=x, m=4, n=6)
        mf = b.multi_fold(
            b.domain(syms["m"], syms["n"]),
            rshape=(syms["m"],),
            init=b.zeros((syms["m"],)),
            index_builder=lambda i, j: i,
            value_builder=lambda i, j, acc: acc + b.apply_array(syms["x"], i, j),
            combine=None,
            acc_ty=FLOAT32,
        )
        np.testing.assert_allclose(evaluate(mf, env), x.sum(axis=1))

    def test_argmin_fold_with_tuple_accumulator(self, rng):
        x = rng.normal(size=(12,))
        syms, env = _env(x=x, n=12)

        def step(i, acc):
            dist = b.apply_array(syms["x"], i)
            better = Cmp("<", b.tget(acc, 0), dist)
            return Select(better, acc, b.tup(dist, i))

        def combiner():
            a = b.sym("a", b.tup(b.flt(0.0), b.idx(0)).ty)
            c = b.sym("c", a.ty)
            return Lambda((a, c), Select(Cmp("<", b.tget(a, 0), b.tget(c, 0)), a, c))

        f = b.fold(b.domain(syms["n"]), b.tup(b.MAX_FLOAT, b.idx(-1)), step, combine=combiner())
        dist, index = evaluate(f, env)
        assert index == int(np.argmin(x))
        assert dist == pytest.approx(x.min())

    @pytest.mark.parametrize("strides", [[1, 1], [2, 1], [1, 3], [3, 2], [4, 5]])
    def test_strided_multifold_writes_raw_index_locations(self, rng, strides):
        x = rng.normal(size=(9, 11))
        syms, env = _env(x=x, m=9, n=11)
        mf = b.multi_fold(
            b.domain(syms["m"], syms["n"], strides=strides),
            rshape=(syms["m"],),
            init=b.zeros((syms["m"],)),
            index_builder=lambda i, j: i,
            value_builder=lambda i, j, acc: acc + b.apply_array(syms["x"], i, j),
            combine=None,
            acc_ty=FLOAT32,
        )
        expected = np.zeros(9)
        expected[:: strides[0]] = x[:: strides[0], :: strides[1]].sum(axis=1)
        np.testing.assert_allclose(evaluate(mf, env), expected, rtol=1e-12)

    def test_parallel_partitions_match_sequential(self, rng):
        x = rng.normal(size=(32,))
        syms, env = _env(x=x, n=32)
        f = b.fold(b.domain(syms["n"]), b.flt(0.0), lambda i, acc: acc + b.apply_array(syms["x"], i))
        sequential = Interpreter(1).evaluate(f, env)
        parallel = Interpreter(4).evaluate(f, env)
        assert parallel == pytest.approx(sequential)

    def test_partitioned_multifold_without_combine_raises(self):
        x = b.array_sym("x", 1)
        mf = b.multi_fold(
            b.domain(6),
            rshape=(2,),
            init=b.zeros((2,)),
            index_builder=lambda i: b.mod(i, 2),
            value_builder=lambda i, acc: acc + b.apply_array(x, i),
            combine=None,
            acc_ty=FLOAT32,
        )
        env = {x: np.arange(6.0)}
        np.testing.assert_array_equal(Interpreter(1).evaluate(mf, env), [6.0, 9.0])
        with pytest.raises(InterpreterError, match="requires a combine function"):
            Interpreter(2).evaluate(mf, env)

    def test_empty_domain_fold_returns_init(self):
        x = b.array_sym("x", 1)
        f = b.fold(b.domain(0), b.flt(5.0), lambda i, acc: acc + b.apply_array(x, i))
        assert evaluate(f, {x: np.zeros(0)}) == 5.0

    def test_empty_domain_multifold_returns_init(self):
        x = b.array_sym("x", 2)
        mf = b.multi_fold(
            b.domain(0, 4),
            rshape=(3,),
            init=b.zeros((3,)),
            index_builder=lambda i, j: i,
            value_builder=lambda i, j, acc: acc + b.apply_array(x, i, j),
            combine=None,
            acc_ty=FLOAT32,
        )
        result = evaluate(mf, {x: np.zeros((0, 4))})
        assert result.shape == (3,) and not result.any()


class TestFlatMapAndGroupBy:
    def test_filter_via_flatmap(self, rng):
        x = rng.normal(size=(20,))
        syms, env = _env(x=x, n=20)
        fm = b.flat_map(
            b.domain(syms["n"]),
            lambda i: Select(
                Cmp(">", b.apply_array(syms["x"], i), Const(0.0)),
                _singleton(syms["x"], i),
                _empty(),
            ),
        )
        result = evaluate(fm, env)
        np.testing.assert_allclose(result, x[x > 0])

    def test_flatmap_two_outputs(self, rng):
        x = rng.normal(size=(5,))
        syms, env = _env(x=x, n=5)
        from repro.ppl.ir import ArrayLit, UnaryOp

        fm = b.flat_map(
            b.domain(syms["n"]),
            lambda i: ArrayLit(
                (b.apply_array(syms["x"], i), UnaryOp("neg", b.apply_array(syms["x"], i)))
            ),
        )
        result = evaluate(fm, env)
        assert result.shape == (10,)
        np.testing.assert_allclose(result[::2], x)
        np.testing.assert_allclose(result[1::2], -x)

    def test_histogram_groupbyfold(self):
        x = np.array([1.0, 2.0, 2.0, 3.0, 2.0, 1.0])
        syms, env = _env(x=x, n=6)
        g = b.group_by_fold(
            b.domain(syms["n"]),
            init=b.flt(0.0),
            key_builder=lambda i: b.apply_array(syms["x"], i),
            value_builder=lambda i, acc: acc + 1.0,
        )
        result = evaluate(g, env)
        buckets = {k: v for k, v in result}
        assert buckets == {1: 2.0, 2: 3.0, 3: 1.0}
        assert sum(v for _, v in result) == 6.0

    def test_groupbyfold_parallel_matches_sequential(self, rng):
        x = rng.integers(0, 5, size=(40,)).astype(float)
        syms, env = _env(x=x, n=40)
        g = b.group_by_fold(
            b.domain(syms["n"]),
            init=b.flt(0.0),
            key_builder=lambda i: b.apply_array(syms["x"], i),
            value_builder=lambda i, acc: acc + 1.0,
        )
        seq = {k: v for k, v in Interpreter(1).evaluate(g, env)}
        par = {k: v for k, v in Interpreter(4).evaluate(g, env)}
        assert seq == par

    @pytest.mark.parametrize(
        "values, negate, copies, strides, expected",
        [
            ([1.0, -2.0, 3.0, -4.0, 5.0], False, 1, None, [1.0, 3.0, 5.0]),
            ([1.0, -2.0, 3.0, -4.0], True, 1, None, [-2.0, -4.0]),
            ([2.0, -1.0, 3.0], False, 2, None, [2.0, 4.0, 3.0, 6.0]),
            ([-1.0, -2.0], False, 1, None, []),
            ([1.0, 2.0, 3.0], False, 1, None, [1.0, 2.0, 3.0]),
            ([], False, 1, None, []),
            ([1.0, -2.0, 3.0, -4.0, 5.0, 6.0], False, 1, [2], [1.0, 3.0, 5.0]),
        ],
        ids=[
            "keep",
            "negated",
            "two-per-match",
            "none-survive",
            "all-survive",
            "empty-domain",
            "strided",
        ],
    )
    def test_filter_variants(self, values, negate, copies, strides, expected):
        x = b.array_sym("x", 1)

        def body(i):
            kept = ArrayLit(tuple(b.mul(b.apply_array(x, i), float(k + 1)) for k in range(copies)))
            pred = Cmp(">", b.apply_array(x, i), Const(0.0))
            return Select(pred, _empty(), kept) if negate else Select(pred, kept, _empty())

        fm = b.flat_map(b.domain(len(values), strides=strides), body)
        result = evaluate(fm, {x: np.asarray(values, dtype=float)})
        assert result.dtype == np.float64
        np.testing.assert_array_equal(result, expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_filters_match_a_boolean_mask(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=rng.integers(0, 64))
        copies = int(rng.integers(1, 3))
        x = b.array_sym("x", 1)
        fm = b.flat_map(
            b.domain(len(values)),
            lambda i: Select(
                Cmp(">", b.apply_array(x, i), Const(0.0)),
                ArrayLit(tuple(b.mul(b.apply_array(x, i), float(k + 1)) for k in range(copies))),
                _empty(),
            ),
        )
        kept = values[values > 0]
        expected = np.outer(kept, np.arange(1.0, copies + 1)).ravel()
        np.testing.assert_array_equal(evaluate(fm, {x: values}), expected)

    def test_select_guarded_past_the_end_read_in_a_filter(self):
        msym = b.size_sym("m")
        x = b.array_sym("x", 1)
        fm = b.flat_map(
            b.domain(msym),
            lambda i: Select(
                Cmp("<", b.add(i, 1), msym), _singleton(x, b.add(i, 1)), _empty()
            ),
        )
        program = Program(name="next", inputs=[x], sizes=[msym], body=fm)
        result = run_program(program, {"m": 4, "x": np.arange(4.0)})
        np.testing.assert_array_equal(result, [1.0, 2.0, 3.0])

    def test_tuple_valued_filter(self):
        x = b.array_sym("x", 1)
        fm = b.flat_map(
            b.domain(3),
            lambda i: Select(
                Cmp(">", b.apply_array(x, i), Const(0.0)),
                _singleton_of(MakeTuple((i, b.apply_array(x, i)))),
                _empty(),
            ),
        )
        result = evaluate(fm, {x: np.array([1.0, -1.0, 2.0])})
        assert list(result) == [(0, 1.0), (2, 2.0)]

    def test_integer_filter_keeps_int64(self):
        x = b.array_sym("x", 1)
        fm = b.flat_map(
            b.domain(4),
            lambda i: Select(
                Cmp(">", b.apply_array(x, i), Const(0)),
                _singleton_of(b.mul(b.apply_array(x, i), b.idx(2))),
                _empty(),
            ),
        )
        result = evaluate(fm, {x: np.array([1, -2, 3, -4], dtype=np.int64)})
        assert result.dtype == np.int64
        np.testing.assert_array_equal(result, [2, 6])

    @pytest.mark.parametrize("op", ["+", "min", "max", "*"])
    @pytest.mark.parametrize("stride", [1, 3])
    def test_groupbyfold_combiners_and_strides(self, rng, op, stride):
        n = 64
        keys_val, values_val = rng.integers(0, 7, n), rng.standard_normal(n)
        keys, values = b.array_sym("k", 1), b.array_sym("v", 1)
        init = {"+": 0.0, "min": float("inf"), "max": float("-inf"), "*": 1.0}[op]
        g = b.group_by_fold(
            b.domain(n, strides=[stride]),
            b.flt(init),
            lambda i: b.apply_array(keys, i),
            lambda i, acc: BinOp(op, acc, b.apply_array(values, i)),
        )
        python_op = {"+": lambda a, c: a + c, "min": min, "max": max, "*": lambda a, c: a * c}[op]
        expected = {}
        for i in range(0, n, stride):
            key = int(keys_val[i])
            expected[key] = python_op(expected.get(key, init), float(values_val[i]))
        result = evaluate(g, {keys: keys_val, values: values_val})
        assert [key for key, _ in result] == sorted(expected)
        assert {key: value for key, value in result} == expected

    @pytest.mark.parametrize(
        "key_builder, expected_keys",
        [
            (lambda k, i: b.tup(b.apply_array(k, i), b.idx(0)), [(0, 0), (1, 0), (2, 0)]),
            (lambda k, i: b.add(b.apply_array(k, i), 0.5), [0.5, 1.5, 2.5]),
        ],
        ids=["tuple-keys", "non-integral-keys"],
    )
    def test_group_keys_keep_their_kind(self, key_builder, expected_keys):
        keys = b.array_sym("k", 1)
        g = b.group_by_fold(
            b.domain(6), b.idx(0), lambda i: key_builder(keys, i), lambda i, acc: acc + b.idx(1)
        )
        result = evaluate(g, {keys: np.array([2.0, 0.0, 1.0, 2.0, 0.0, 2.0])})
        assert [key for key, _ in result] == expected_keys
        assert [count for _, count in result] == [2, 1, 3]

    def test_integer_counts_stay_python_ints(self):
        keys_val = np.random.default_rng(2).integers(0, 9, 301)
        keys = b.array_sym("k", 1)
        g = b.group_by_fold(
            b.domain(301), b.idx(0), lambda i: b.apply_array(keys, i), lambda i, acc: acc + b.idx(1)
        )
        result = evaluate(g, {keys: keys_val})
        assert all(type(key) is int and type(count) is int for key, count in result)
        expected = np.bincount(keys_val)
        assert {key: count for key, count in result} == {
            key: int(count) for key, count in enumerate(expected) if count
        }

    def test_bucket_update_is_a_left_fold_in_index_order(self, rng):
        n = 64
        keys_val, values_val = rng.integers(0, 5, n), rng.standard_normal(n)
        keys, values = b.array_sym("k", 1), b.array_sym("v", 1)
        g = b.group_by_fold(
            b.domain(n),
            b.flt(0.0),
            lambda i: b.apply_array(keys, i),
            lambda i, acc: BinOp("+", BinOp("*", acc, b.flt(0.5)), b.apply_array(values, i)),
        )
        expected = {}
        for key, value in zip(keys_val.tolist(), values_val.tolist()):
            expected[key] = expected.get(key, 0.0) * 0.5 + value
        result = evaluate(g, {keys: keys_val, values: values_val})
        assert {key: value for key, value in result} == expected

    def test_groupbyfold_empty_domain(self):
        keys = b.array_sym("k", 1)
        g = b.group_by_fold(
            b.domain(0), b.flt(0.0), lambda i: b.apply_array(keys, i), lambda i, acc: acc + 1.0
        )
        assert evaluate(g, {keys: np.zeros(0)}).shape == (0,)


def _singleton_of(element):
    return ArrayLit((element,))


def _singleton(array_sym, i):
    return _singleton_of(b.apply_array(array_sym, i))


def _empty():
    return EmptyArray()


class TestPrograms:
    def test_run_program_binding(self, rng):
        x = rng.normal(size=(6,))
        n = b.sym("n", INDEX)
        arr = b.array_sym("x", 1)
        body = b.pmap(b.domain(n), lambda i: b.apply_array(arr, i) + 1.0)
        program = Program("inc", inputs=[arr], sizes=[n], body=body)
        result = run_program(program, {"x": x, "n": 6})
        np.testing.assert_allclose(result, x + 1)

    def test_program_missing_binding_raises(self):
        n = b.sym("n", INDEX)
        arr = b.array_sym("x", 1)
        body = b.pmap(b.domain(n), lambda i: b.apply_array(arr, i))
        program = Program("ident", inputs=[arr], sizes=[n], body=body)
        with pytest.raises(KeyError):
            run_program(program, {"x": np.zeros(4)})

    def test_program_unbound_symbol_rejected(self):
        n = b.sym("n", INDEX)
        arr = b.array_sym("x", 1)
        stray = b.array_sym("y", 1)
        body = b.pmap(b.domain(n), lambda i: b.apply_array(stray, i))
        with pytest.raises(Exception):
            Program("bad", inputs=[arr], sizes=[n], body=body)


def _map1(body_builder, values):
    """``m => body(x, i)`` over a rank-1 input ``x`` bound to ``values``."""
    msym = b.size_sym("m")
    x = b.array_sym("x", 1)
    body = b.pmap(b.domain(msym), lambda i: body_builder(x, i, msym))
    program = Program(name="map1", inputs=[x], sizes=[msym], body=body)
    return program, {"m": len(values), "x": np.asarray(values)}


def _fold1(op, values, init):
    """``acc op x(i)`` folded over a rank-1 input ``x`` bound to ``values``."""
    msym = b.size_sym("m")
    x = b.array_sym("x", 1)
    body = b.fold(b.domain(msym), init, lambda i, acc: BinOp(op, acc, b.apply_array(x, i)))
    program = Program(name="fold1", inputs=[x], sizes=[msym], body=body)
    return program, {"m": len(values), "x": np.asarray(values)}


class TestScalarSemantics:
    """Python number semantics, which the interpreter keeps on purpose."""

    def test_nan_min_fold_keeps_python_min_semantics(self):
        program, bindings = _fold1("min", [3.0, float("nan"), 1.0, 2.0], b.flt(float("inf")))
        assert run_program(program, bindings) == 1.0  # min(a, nan) keeps a

    def test_int64_product_fold_is_a_python_bigint(self):
        program, bindings = _fold1("*", np.full(5, 2**13, dtype=np.int64), b.idx(1))
        result = run_program(program, bindings)
        assert type(result) is int and result == 2**65

    def test_taken_zero_divisor_raises(self):
        program, bindings = _map1(
            lambda x, i, m: b.div(b.flt(1.0), b.apply_array(x, i)), [1.0, 0.0, 2.0]
        )
        with pytest.raises(ZeroDivisionError):
            run_program(program, bindings)

    def test_storing_a_bigint_into_an_int64_map_overflows(self):
        msym = b.size_sym("m")

        def square_shifted(i):
            shifted = b.add(i, b.idx(4_000_000_000))
            return b.mul(shifted, shifted)

        body = b.pmap(b.domain(msym), square_shifted)
        program = Program(name="bigint", inputs=[], sizes=[msym], body=body)
        with pytest.raises(OverflowError):
            run_program(program, {"m": 4})

    def test_negative_sqrt_raises(self):
        program, bindings = _map1(
            lambda x, i, m: UnaryOp("sqrt", b.apply_array(x, i)), [1.0, -4.0, 9.0]
        )
        with pytest.raises(ValueError):
            run_program(program, bindings)

    @pytest.mark.parametrize(
        "values",
        [
            np.random.default_rng(0).uniform(1e5, 1e6, 64).astype(np.float32),
            np.full(8, 70_000, dtype=np.int32),
        ],
        ids=["float32", "int32"],
    )
    def test_narrow_inputs_compute_at_64_bits(self, values):
        program, bindings = _map1(
            lambda x, i, m: b.mul(b.apply_array(x, i), b.apply_array(x, i)), values
        )
        wide = values.astype(np.float64 if values.dtype.kind == "f" else np.int64)
        np.testing.assert_array_equal(run_program(program, bindings), wide * wide)


NAN, INF = float("nan"), float("inf")
_FLOAT32_WIDE = np.random.default_rng(0).uniform(1e5, 1e6, 64).astype(np.float32)
_FLOAT32_NARROW = np.random.default_rng(1).uniform(0.1, 1.0, 50).astype(np.float32)
_INT32_SQUARE_OVERFLOWS = np.full(8, 70_000, dtype=np.int32)


def _guarded(cond_op, taken):
    """``x(i) cond_op 0 ? taken(x(i)) : 0.0`` — the untaken branch would fail."""
    return lambda x, i, m: Select(
        Cmp(cond_op, b.apply_array(x, i), Const(0.0)), taken(b.apply_array(x, i)), b.flt(0.0)
    )


# Each case: the program, and its result computed with plain Python numbers.
PYTHON_SEMANTICS_CASES = {
    # min/max keep an operand as Python's builtins do; numpy's propagate NaN.
    "nan-min-fold": (lambda: _fold1("min", [3.0, NAN, 1.0, 2.0], b.flt(INF)), 1.0),
    "nan-max-fold": (lambda: _fold1("max", [NAN, 4.0, 2.0], b.flt(-INF)), 4.0),
    "nan-first-min-fold": (lambda: _fold1("min", [NAN, 5.0, 7.0], b.flt(INF)), 5.0),
    "nan-init-max-fold": (lambda: _fold1("max", [1.0, 2.0], b.flt(NAN)), NAN),
    "nan-elementwise-min": (
        lambda: _map1(lambda x, i, m: b.minimum(b.apply_array(x, i), 2.0), [1.0, NAN, 5.0]),
        np.array([1.0, NAN, 2.0]),
    ),
    "nan-elementwise-max": (
        lambda: _map1(lambda x, i, m: b.maximum(b.apply_array(x, i), 2.0), [NAN, 1.0, 5.0]),
        np.array([NAN, 2.0, 5.0]),
    ),
    # Narrow inputs are read as 64-bit Python numbers and rounded once on store.
    "narrow-float32-map": (
        lambda: _map1(
            lambda x, i, m: b.add(
                b.mul(b.apply_array(x, i), b.apply_array(x, i)), b.apply_array(x, i)
            ),
            _FLOAT32_WIDE,
        ),
        np.array([v * v + v for v in _FLOAT32_WIDE.tolist()]),
    ),
    "narrow-int32-map": (
        lambda: _map1(
            lambda x, i, m: b.mul(b.apply_array(x, i), b.apply_array(x, i)),
            _INT32_SQUARE_OVERFLOWS,
        ),
        np.array([float(v * v) for v in _INT32_SQUARE_OVERFLOWS.tolist()]),
    ),
    "narrow-float32-sum-fold": (
        lambda: _fold1("+", _FLOAT32_NARROW, b.flt(0.0)),
        functools.reduce(lambda acc, v: acc + v, _FLOAT32_NARROW.tolist(), 0.0),
    ),
    # Integer folds accumulate Python ints, which never wrap at 64 bits.
    "big-int-product-fold": (
        lambda: _fold1("*", np.full(5, 2**13, dtype=np.int64), b.idx(1)),
        2**65,
    ),
    "big-int-sum-fold": (
        lambda: _fold1("+", np.full(4, 2**61, dtype=np.int64), b.idx(0)),
        2**63,
    ),
    # A Select evaluates only the branch it takes.
    "zero-divisor-guarded-map": (
        lambda: _map1(_guarded("!=", lambda v: b.div(b.flt(1.0), v)), [2.0, 0.0, 4.0]),
        np.array([0.5, 0.0, 0.25]),
    ),
    "negative-sqrt-guarded-map": (
        lambda: _map1(_guarded(">=", lambda v: UnaryOp("sqrt", v)), [4.0, -1.0, 9.0]),
        np.array([2.0, 0.0, 3.0]),
    ),
    # Index division floors, as Python's // does, also below zero.
    "negative-index-floor-division": (
        lambda: _map1(lambda x, i, m: b.div(b.sub(i, 3), b.idx(2)), np.zeros(6)),
        np.array([(i - 3) // 2 for i in range(6)]),
    ),
}


@pytest.mark.parametrize("case", sorted(PYTHON_SEMANTICS_CASES))
def test_python_number_semantics(case):
    build, expected = PYTHON_SEMANTICS_CASES[case]
    program, bindings = build()
    result = run_program(program, bindings)
    if isinstance(expected, np.ndarray):
        assert isinstance(result, np.ndarray) and result.dtype == expected.dtype
        np.testing.assert_array_equal(result, expected)
    else:
        assert type(result) is type(expected)
        assert result == expected or (result != result and expected != expected)


class TestResultShapes:
    def test_integer_map_keeps_int64(self):
        msym = b.size_sym("m")
        body = b.pmap(b.domain(msym), lambda i: b.mul(i, 3))
        program = Program(name="ints", inputs=[], sizes=[msym], body=body)
        result = run_program(program, {"m": 8})
        assert result.dtype == np.int64
        np.testing.assert_array_equal(result, np.arange(8) * 3)

    def test_stride_two_map_over_nine_elements(self):
        msym = b.size_sym("m")
        x = b.array_sym("x", 1)
        body = b.pmap(b.domain(msym, strides=[2]), lambda i: b.add(b.apply_array(x, i), 1.0))
        program = Program(name="strided", inputs=[x], sizes=[msym], body=body)
        result = run_program(program, {"m": 9, "x": np.arange(9.0)})
        assert result.shape == (5,)
        np.testing.assert_array_equal(result, np.arange(9.0)[::2] + 1.0)

    def test_empty_domain_keeps_the_domain_shape(self):
        msym, nsym = b.size_sym("m"), b.size_sym("n")
        x = b.array_sym("x", 2)
        body = b.pmap(b.domain(msym, nsym), lambda i, j: b.apply_array(x, i, j))
        program = Program(name="empty", inputs=[x], sizes=[msym, nsym], body=body)
        result = run_program(program, {"m": 0, "n": 4, "x": np.zeros((0, 4))})
        assert result.shape == (0, 4)

    def test_integral_float_group_keys_bucket_as_int(self):
        nsym = b.size_sym("n")
        keys = b.array_sym("k", 1)
        values = b.array_sym("v", 1)
        body = b.group_by_fold(
            b.domain(nsym),
            b.flt(0.0),
            lambda i: b.mul(b.apply_array(keys, i), 1.0),
            lambda i, acc: BinOp("+", acc, b.apply_array(values, i)),
        )
        program = Program(name="float-keys", inputs=[keys, values], sizes=[nsym], body=body)
        bindings = {"n": 5, "k": np.array([4.0, 1.0, 4.0, 2.0, 1.0]), "v": np.arange(5.0)}
        result = run_program(program, bindings)
        assert [key for key, _ in result] == [1, 2, 4]
        assert all(type(key) is int for key, _ in result)
        assert {key: value for key, value in result} == {1: 5.0, 2: 3.0, 4: 2.0}


class TestBoundsChecks:
    """Out-of-range accesses raise instead of wrapping around or clamping."""

    def test_select_guarded_past_the_end_read_is_never_taken(self):
        program, bindings = _map1(
            lambda x, i, m: Select(
                Cmp("<", b.add(i, 1), m), b.apply_array(x, b.add(i, 1)), b.flt(0.0)
            ),
            np.arange(6.0),
        )
        np.testing.assert_array_equal(run_program(program, bindings), [1, 2, 3, 4, 5, 0])

    def test_past_the_end_read_raises(self):
        program, bindings = _map1(lambda x, i, m: b.apply_array(x, b.add(i, 1)), np.arange(4.0))
        with pytest.raises(InterpreterError, match="out of bounds"):
            run_program(program, bindings)

    def test_negative_array_index_raises(self):
        program, bindings = _map1(lambda x, i, m: b.apply_array(x, b.sub(i, 1)), np.arange(4.0))
        with pytest.raises(InterpreterError, match="negative array index"):
            run_program(program, bindings)

    def test_negative_slice_index_raises(self, rng):
        syms, env = _env(x=rng.normal(size=(4, 3)))
        with pytest.raises(InterpreterError, match="negative slice index"):
            evaluate(b.slice_row(syms["x"], -1), env)

    def test_negative_tile_offset_raises(self, rng):
        syms, env = _env(x=rng.normal(size=(8,)))
        with pytest.raises(InterpreterError, match="negative tile offset"):
            evaluate(b.copy_tile(syms["x"], offsets=(-2,), sizes=(2,)), env)

    def test_past_the_end_tile_copy_truncates_at_the_edge(self, rng):
        x = rng.normal(size=(8,))
        syms, env = _env(x=x)
        tile = evaluate(b.copy_tile(syms["x"], offsets=(6,), sizes=(4,)), env)
        np.testing.assert_array_equal(tile, x[6:])

    def test_non_positive_domain_stride_raises(self):
        x = b.array_sym("x", 1)
        m = b.pmap(b.domain(4, strides=[0]), lambda i: b.apply_array(x, i))
        with pytest.raises(InterpreterError, match="non-positive domain stride"):
            evaluate(m, {x: np.arange(4.0)})

    def test_negative_accumulator_location_raises(self):
        msym = b.size_sym("m")
        x = b.array_sym("x", 1)
        body = b.multi_fold(
            b.domain(msym),
            rshape=(msym,),
            init=b.zeros((msym,)),
            index_builder=lambda i: b.sub(i, 1),
            value_builder=lambda i, acc: acc + b.apply_array(x, i),
            combine=None,
            acc_ty=FLOAT32,
        )
        program = Program(name="shifted", inputs=[x], sizes=[msym], body=body)
        with pytest.raises(InterpreterError, match="negative accumulator location"):
            run_program(program, {"m": 4, "x": np.arange(4.0)})


BENCH_NAMES = [bench.name for bench in all_benchmarks()]


class TestEveryApp:
    """Each app's program on the interpreter against its numpy reference."""

    @pytest.mark.parametrize("name", BENCH_NAMES)
    def test_partitioned_evaluation_matches_sequential(self, name):
        """Three partial accumulators, merged by each fold's combine function."""
        bench = get_benchmark(name)
        bindings = bench.bindings(rng=np.random.default_rng(2))
        program = bench.build()
        np.testing.assert_allclose(
            np.asarray(run_program(program, bindings, parallel_partitions=3), dtype=float),
            np.asarray(run_program(program, bindings), dtype=float),
            rtol=1e-12,
        )

    # outerprod's and gemm's tiled programs write tiles back through a
    # MultiFold with no combine function, so they cannot be partitioned.
    @pytest.mark.parametrize("name", ["sumrows", "tpchq6", "gda", "kmeans"])
    def test_partitioned_tiled_program_matches_the_reference(self, name):
        """The combine functions tiling attaches to tile-level folds run only
        when a fold is partitioned.  5 divides none of the tiled test sizes,
        so every tiled loop ends in a partial tile."""
        bench = get_benchmark(name)
        bindings = bench.bindings(rng=np.random.default_rng(7))
        config = CompileConfig(
            tiling=True, metapipelining=True, tile_sizes={k: 5 for k in bench.tile_sizes}
        )
        tiled = Session().compile(bench.build(), config, bindings).tiled_program
        np.testing.assert_allclose(
            np.asarray(run_program(tiled, bindings, parallel_partitions=3), dtype=float),
            np.asarray(bench.reference(bindings), dtype=float),
            rtol=1e-9,
        )

    @pytest.mark.parametrize("name", BENCH_NAMES)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.integers(1, 6))
    @settings(max_examples=12, deadline=None)
    def test_drawn_sizes_match_the_reference(self, name, seed, scale):
        bench = get_benchmark(name)
        sizes = {key: max(1, value * scale // 2) for key, value in bench.test_sizes.items()}
        bindings = bench.bindings(sizes, np.random.default_rng(seed))
        np.testing.assert_allclose(
            np.asarray(run_program(bench.build(), bindings), dtype=float),
            np.asarray(bench.reference(bindings), dtype=float),
            rtol=1e-9,
        )


class TestPropertyBased:
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_fold_sum_matches_numpy(self, values):
        x = np.array(values)
        arr = b.array_sym("x", 1)
        n = b.sym("n", INDEX)
        f = b.fold(b.domain(n), b.flt(0.0), lambda i, acc: acc + b.apply_array(arr, i))
        result = evaluate(f, {arr: x, n: len(values)})
        assert result == pytest.approx(x.sum(), rel=1e-9, abs=1e-9)

    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_map_shape_matches_domain(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, cols))
        arr = b.array_sym("x", 2)
        m = b.pmap(
            b.domain(rows, cols), lambda i, j: b.apply_array(arr, i, j) * 3.0
        )
        result = evaluate(m, {arr: x})
        assert result.shape == (rows, cols)
        np.testing.assert_allclose(result, 3 * x)

    @given(st.integers(2, 5), st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_parallel_fold_partitions_equivalent(self, partitions, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(24,))
        arr = b.array_sym("x", 1)
        f = b.fold(b.domain(24), b.flt(0.0), lambda i, acc: acc + b.apply_array(arr, i))
        seq = Interpreter(1).evaluate(f, {arr: x})
        par = Interpreter(partitions).evaluate(f, {arr: x})
        assert par == pytest.approx(seq)
