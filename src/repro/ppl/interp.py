"""Reference interpreter for PPL programs.

The interpreter executes any PPL expression against concrete numpy inputs.
It is the semantic oracle of the whole reproduction: every transformation
(fusion, strip mining, interchange) is tested by checking that the
interpreted result is unchanged.  There is one evaluation path, a
recursive walk that calls each pattern's lambda once per index.

Value representation:

* tensors   → ``numpy.ndarray`` (``dtype=object`` when elements are tuples)
* tuples    → Python tuples
* scalars   → Python ``float`` / ``int`` / ``bool``

``MultiFold`` follows the paper's semantics: the value function consumes the
current accumulator slice at the generated location and returns the new
slice.  The optional ``parallel_partitions`` argument evaluates folds with
multiple partial accumulators and merges them with the combine function,
which is how the associativity requirements of the paper are exercised in
the property-based tests.

Array accesses are bounds-checked: a negative element index, slice index,
tile-copy offset or accumulator location raises :class:`InterpreterError`
instead of wrapping around, and so does an element read past the end.  A
tile copy that runs past the end truncates at the array edge, which is
what the partial last tile of a strip-mined loop relies on.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Sequence, Union

import numpy as np

from repro.errors import InterpreterError
from repro.ppl.ir import (
    ArrayApply,
    ArrayCopy,
    ArrayDim,
    ArrayLen,
    ArrayLit,
    ArraySlice,
    BinOp,
    Cmp,
    Const,
    Domain,
    EmptyArray,
    Expr,
    FlatMap,
    Full,
    GroupByFold,
    Lambda,
    Let,
    MakeTuple,
    Map,
    MultiFold,
    Select,
    Sym,
    TupleGet,
    UnaryOp,
    Zeros,
)
from repro.ppl.program import Program
from repro.ppl.types import ScalarType, TupleType, is_tensor

__all__ = ["Interpreter", "evaluate", "run_program"]

Value = Union[int, float, bool, tuple, np.ndarray]


def _numpy_dtype(element) -> object:
    if isinstance(element, TupleType):
        return object
    if isinstance(element, ScalarType):
        if element.is_bool:
            return np.bool_
        if element.is_float:
            return np.float64
        return np.int64
    return np.float64


class Interpreter:
    """Evaluates PPL expressions in an environment mapping symbols to values."""

    def __init__(self, parallel_partitions: int = 1) -> None:
        if parallel_partitions < 1:
            raise InterpreterError("parallel_partitions must be >= 1")
        self.parallel_partitions = parallel_partitions

    # -- public API ----------------------------------------------------------
    def evaluate(self, expr: Expr, env: Mapping[Sym, Value]) -> Value:
        return self._eval(expr, dict(env))

    # -- dispatch -------------------------------------------------------------
    def _eval(self, expr: Expr, env: Dict[Sym, Value]) -> Value:
        method = getattr(self, f"_eval_{type(expr).__name__}", None)
        if method is None:
            raise InterpreterError(f"interpreter does not support {type(expr).__name__}")
        return method(expr, env)

    # -- scalars --------------------------------------------------------------
    def _eval_Const(self, expr: Const, env) -> Value:
        return expr.value

    def _eval_Sym(self, expr: Sym, env) -> Value:
        if expr not in env:
            raise InterpreterError(f"unbound symbol {expr.name!r}")
        return env[expr]

    def _eval_BinOp(self, expr: BinOp, env) -> Value:
        lhs = self._eval(expr.lhs, env)
        rhs = self._eval(expr.rhs, env)
        op = expr.op
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "/":
            if isinstance(expr.ty, ScalarType) and expr.ty.is_int:
                return int(lhs) // int(rhs)
            return lhs / rhs
        if op == "%":
            return lhs % rhs
        if op == "min":
            return np.minimum(lhs, rhs) if _is_array(lhs) or _is_array(rhs) else min(lhs, rhs)
        if op == "max":
            return np.maximum(lhs, rhs) if _is_array(lhs) or _is_array(rhs) else max(lhs, rhs)
        if op == "and":
            return bool(lhs) and bool(rhs)
        if op == "or":
            return bool(lhs) or bool(rhs)
        raise InterpreterError(f"unknown binary operator {op!r}")

    def _eval_UnaryOp(self, expr: UnaryOp, env) -> Value:
        value = self._eval(expr.operand, env)
        op = expr.op
        if op == "neg":
            return -value
        if op == "abs":
            return abs(value)
        if op == "sqrt":
            return math.sqrt(value) if not _is_array(value) else np.sqrt(value)
        if op == "exp":
            return math.exp(value) if not _is_array(value) else np.exp(value)
        if op == "log":
            return math.log(value) if not _is_array(value) else np.log(value)
        if op == "recip":
            return 1.0 / value
        if op == "not":
            return not bool(value)
        raise InterpreterError(f"unknown unary operator {op!r}")

    def _eval_Cmp(self, expr: Cmp, env) -> Value:
        lhs = self._eval(expr.lhs, env)
        rhs = self._eval(expr.rhs, env)
        op = expr.op
        if op == "<":
            return lhs < rhs
        if op == "<=":
            return lhs <= rhs
        if op == ">":
            return lhs > rhs
        if op == ">=":
            return lhs >= rhs
        if op == "==":
            return lhs == rhs
        if op == "!=":
            return lhs != rhs
        raise InterpreterError(f"unknown comparison {op!r}")

    def _eval_Select(self, expr: Select, env) -> Value:
        cond = self._eval(expr.cond, env)
        return self._eval(expr.if_true if cond else expr.if_false, env)

    def _eval_Let(self, expr: Let, env) -> Value:
        inner = dict(env)
        inner[expr.sym] = self._eval(expr.value, env)
        return self._eval(expr.body, inner)

    def _eval_MakeTuple(self, expr: MakeTuple, env) -> Value:
        return tuple(self._eval(e, env) for e in expr.elements)

    def _eval_TupleGet(self, expr: TupleGet, env) -> Value:
        value = self._eval(expr.tup, env)
        return value[expr.index]

    # -- arrays ---------------------------------------------------------------
    def _eval_ArrayApply(self, expr: ArrayApply, env) -> Value:
        array = self._eval(expr.array, env)
        indices = tuple(_index(self._eval(i, env), "array index") for i in expr.indices)
        try:
            value = array[indices]
        except IndexError as exc:
            raise InterpreterError(f"array index {indices} out of bounds") from exc
        return value.item() if isinstance(value, np.generic) else value

    def _eval_ArraySlice(self, expr: ArraySlice, env) -> Value:
        array = self._eval(expr.array, env)
        spec = []
        for s in expr.specs:
            if s is None:
                spec.append(slice(None))
            else:
                spec.append(_index(self._eval(s, env), "slice index"))
        return array[tuple(spec)]

    def _eval_ArrayCopy(self, expr: ArrayCopy, env) -> Value:
        array = self._eval(expr.array, env)
        spec = []
        for offset, size in zip(expr.offsets, expr.sizes):
            start = _index(self._eval(offset, env), "tile offset")
            if size is None:
                spec.append(slice(None))
            else:
                extent = int(self._eval(size, env))
                spec.append(slice(start, start + extent))
        return np.array(array[tuple(spec)], copy=True)

    def _eval_ArrayDim(self, expr: ArrayDim, env) -> Value:
        array = self._eval(expr.array, env)
        return int(array.shape[expr.axis])

    _eval_ArrayLen = _eval_ArrayDim

    def _eval_Zeros(self, expr: Zeros, env) -> Value:
        shape = tuple(int(self._eval(s, env)) for s in expr.shape)
        dtype = _numpy_dtype(expr.element)
        if dtype is object:
            out = np.empty(shape, dtype=object)
            out.fill(tuple(0 for _ in expr.element.fields))
            return out
        return np.zeros(shape, dtype=dtype)

    def _eval_Full(self, expr: Full, env) -> Value:
        shape = tuple(int(self._eval(s, env)) for s in expr.shape)
        fill = self._eval(expr.fill, env)
        if isinstance(fill, tuple):
            out = np.empty(shape, dtype=object)
            out.fill(fill)
            return out
        return np.full(shape, fill, dtype=np.float64 if isinstance(fill, float) else np.int64)

    def _eval_EmptyArray(self, expr: EmptyArray, env) -> Value:
        return np.zeros((0,), dtype=_numpy_dtype(expr.element))

    def _eval_ArrayLit(self, expr: ArrayLit, env) -> Value:
        values = [self._eval(e, env) for e in expr.elements]
        if values and isinstance(values[0], tuple):
            out = np.empty((len(values),), dtype=object)
            for i, v in enumerate(values):
                out[i] = v
            return out
        return np.array(values)

    # -- domains and lambdas --------------------------------------------------
    def _domain_indices(self, domain: Domain, env) -> list[tuple[int, ...]]:
        """All index tuples of a (possibly strided) domain, in row-major order."""
        per_axis: list[list[int]] = []
        for extent_expr, stride_expr in zip(domain.dims, domain.stride_exprs):
            extent = int(self._eval(extent_expr, env))
            stride = int(self._eval(stride_expr, env))
            if stride <= 0:
                raise InterpreterError(f"non-positive domain stride {stride}")
            per_axis.append(list(range(0, extent, stride)))
        indices: list[tuple[int, ...]] = [()]
        for axis_values in per_axis:
            indices = [prev + (v,) for prev in indices for v in axis_values]
        return indices

    def _domain_shape(self, domain: Domain, env) -> tuple[int, ...]:
        shape = []
        for extent_expr, stride_expr in zip(domain.dims, domain.stride_exprs):
            extent = int(self._eval(extent_expr, env))
            stride = int(self._eval(stride_expr, env))
            shape.append(-(-extent // stride))
        return tuple(shape)

    def _call(self, func: Lambda, args: Sequence[Value], env: Dict[Sym, Value]) -> Value:
        if len(args) != len(func.params):
            raise InterpreterError(
                f"lambda expects {len(func.params)} arguments, got {len(args)}"
            )
        inner = dict(env)
        for param, arg in zip(func.params, args):
            inner[param] = arg
        return self._eval(func.body, inner)

    # -- patterns ---------------------------------------------------------------
    def _eval_Map(self, expr: Map, env) -> Value:
        indices = self._domain_indices(expr.domain, env)
        shape = self._domain_shape(expr.domain, env)
        element = expr.ty.element
        out = np.empty(shape, dtype=_numpy_dtype(element))
        strides = [int(self._eval(s, env)) for s in expr.domain.stride_exprs]
        for index in indices:
            value = self._call(expr.func, list(index), env)
            position = tuple(i // s for i, s in zip(index, strides))
            out[position] = value
        return out

    def _eval_MultiFold(self, expr: MultiFold, env) -> Value:
        init = self._eval(expr.init, env)
        indices = self._domain_indices(expr.domain, env)
        partitions = self._partition(indices)

        partials = []
        for part in partitions:
            acc = _copy_value(init)
            for index in part:
                acc = self._multifold_step(expr, acc, index, env)
            partials.append(acc)

        result = partials[0]
        for other in partials[1:]:
            if expr.combine is None:
                raise InterpreterError(
                    "MultiFold evaluated with multiple partitions requires a combine function"
                )
            result = self._call(expr.combine, [result, other], env)
        return result

    def _multifold_step(self, expr: MultiFold, acc: Value, index: tuple[int, ...], env) -> Value:
        if expr.is_scalar_fold:
            return self._call(expr.value_func, list(index) + [acc], env)

        loc = _as_index_tuple(self._call(expr.index_func, list(index), env))
        acc_sym = expr.value_func.params[-1]
        if not isinstance(acc, np.ndarray):
            raise InterpreterError("MultiFold accumulator with a range must be an array")

        if is_tensor(acc_sym.ty):
            # The value function consumes a slice of the accumulator starting
            # at the location; the returned value's shape defines the region.
            view = acc[tuple(slice(l, None) for l in loc)]
            new_slice = self._call(expr.value_func, list(index) + [view], env)
            new_slice = np.asarray(new_slice)
            region = tuple(
                slice(l, l + extent) for l, extent in zip(loc, new_slice.shape)
            )
            acc = np.array(acc, copy=True)
            acc[region] = new_slice
            return acc

        # Scalar slice: read-modify-write of a single element.
        current = acc[loc]
        if isinstance(current, np.generic):
            current = current.item()
        new_value = self._call(expr.value_func, list(index) + [current], env)
        acc = np.array(acc, copy=True)
        acc[loc] = new_value
        return acc

    def _eval_FlatMap(self, expr: FlatMap, env) -> Value:
        indices = self._domain_indices(expr.domain, env)
        chunks = []
        for index in indices:
            chunk = self._call(expr.func, list(index), env)
            chunk = np.asarray(chunk)
            if chunk.size:
                chunks.append(chunk)
        if not chunks:
            return np.zeros((0,), dtype=_numpy_dtype(expr.ty.element))
        return np.concatenate(chunks)

    def _eval_GroupByFold(self, expr: GroupByFold, env) -> Value:
        indices = self._domain_indices(expr.domain, env)
        partitions = self._partition(indices)
        init = self._eval(expr.init, env)

        partial_maps = []
        for part in partitions:
            buckets: Dict[object, Value] = {}
            for index in part:
                key = self._call(expr.key_func, list(index), env)
                key = _normalize_key(key)
                acc = buckets.get(key, _copy_value(init))
                buckets[key] = self._call(expr.value_func, [index[0], acc], env)
            partial_maps.append(buckets)

        merged: Dict[object, Value] = partial_maps[0]
        for other in partial_maps[1:]:
            for key, value in other.items():
                if key in merged:
                    merged[key] = self._call(expr.combine, [merged[key], value], env)
                else:
                    merged[key] = value

        items = sorted(merged.items(), key=lambda kv: kv[0])
        out = np.empty((len(items),), dtype=object)
        for i, (key, value) in enumerate(items):
            out[i] = (key, value)
        return out

    # -- helpers ---------------------------------------------------------------
    def _partition(self, indices: list[tuple[int, ...]]) -> list[list[tuple[int, ...]]]:
        if self.parallel_partitions == 1 or len(indices) <= 1:
            return [indices]
        count = min(self.parallel_partitions, len(indices))
        size = -(-len(indices) // count)
        return [indices[i : i + size] for i in range(0, len(indices), size)]


def _is_array(value: Value) -> bool:
    return isinstance(value, np.ndarray)


def _copy_value(value: Value) -> Value:
    if isinstance(value, np.ndarray):
        return np.array(value, copy=True)
    return value


def _index(value: Value, what: str) -> int:
    """``value`` as an index; a negative one raises where numpy would wrap around."""
    index = int(value)
    if index < 0:
        raise InterpreterError(f"negative {what} {index}")
    return index


def _as_index_tuple(location: Value) -> tuple[int, ...]:
    parts = location if isinstance(location, tuple) else (location,)
    return tuple(_index(v, "accumulator location") for v in parts)


def _normalize_key(key: Value) -> object:
    if isinstance(key, tuple):
        return tuple(_normalize_key(k) for k in key)
    if isinstance(key, (np.generic,)):
        key = key.item()
    if isinstance(key, float) and key.is_integer():
        return int(key)
    return key


def evaluate(expr: Expr, env: Mapping[Sym, Value], parallel_partitions: int = 1) -> Value:
    """Evaluate a single expression in the given environment."""
    return Interpreter(parallel_partitions).evaluate(expr, env)


def run_program(
    program: Program, bindings: Mapping[str, Value], parallel_partitions: int = 1
) -> Value:
    """Run a whole program with ``name -> value`` bindings for inputs and sizes."""
    env = program.bind(bindings)
    return Interpreter(parallel_partitions).evaluate(program.body, env)
