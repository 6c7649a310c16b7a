"""Static estimators used by hardware generation and the performance model.

The estimators operate on (possibly tiled) PPL programs given concrete
workload sizes:

* :class:`StaticEvaluator` — evaluates size expressions (domain extents, tile
  sizes, copy sizes) to integers.  Expressions that reference loop indices
  (e.g. the partial-tile clamp ``min(b, n - ii)``) evaluate to their static
  upper bound.
* :func:`count_scalar_ops` — total number of scalar arithmetic operations a
  program performs, used to size and time the pipelined execution units.  The
  baseline and optimised designs perform the same arithmetic (the paper keeps
  the innermost parallelism factor constant), so this is counted on the IR
  independent of tiling.
* :func:`input_accesses` — the one walk over input accesses: each
  occurrence of an input-array element read, slice or tile copy, with its
  loop stack.  :func:`traffic_records` derives hardware generation's
  per-occurrence :class:`AccessRecord` list from it (trips, words and
  stream class, for the baseline memory model and the unhandled-access
  accounting of tiled designs); Figure 5c's
  :func:`~repro.analysis.traffic.minimum_reads` and the preload plan of
  :class:`~repro.hw.generation.GenerationShared` derive from it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.analysis.access import linear_form
from repro.dse.cache import ANALYSIS_CACHE, env_signature
from repro.ppl.ir import (
    ArrayApply,
    ArrayCopy,
    ArrayDim,
    ArraySlice,
    BinOp,
    Cmp,
    Const,
    Domain,
    Expr,
    FlatMap,
    GroupByFold,
    Lambda,
    Let,
    Map,
    MultiFold,
    Node,
    Pattern,
    Select,
    Sym,
    TupleGet,
    UnaryOp,
)
from repro.ppl.program import Program
from repro.ppl.types import is_tensor

__all__ = [
    "StaticEvaluator",
    "count_scalar_ops",
    "AccessRecord",
    "input_accesses",
    "traffic_records",
    "workload_env",
    "input_shapes",
]


def workload_env(program: Program, bindings: Mapping[str, object]) -> Dict[Sym, int]:
    """Environment mapping the program's size symbols to concrete integers."""
    env: Dict[Sym, int] = {}
    for size in program.sizes:
        value = bindings.get(size.name)
        if value is not None:
            env[size] = int(value)
    return env


def input_shapes(program: Program, bindings: Mapping[str, object]) -> Dict[str, Tuple[int, ...]]:
    """Shapes of the bound input arrays, keyed by input name."""
    shapes: Dict[str, Tuple[int, ...]] = {}
    for array in program.inputs:
        value = bindings.get(array.name)
        if value is not None and hasattr(value, "shape"):
            shapes[array.name] = tuple(int(s) for s in value.shape)
    return shapes


class StaticEvaluator:
    """Evaluates size expressions to integers, with upper bounds for clamps."""

    def __init__(
        self,
        env: Mapping[Sym, int],
        shapes: Optional[Mapping[str, Tuple[int, ...]]] = None,
    ) -> None:
        self.env = dict(env)
        self.shapes = dict(shapes or {})
        # Per-instance result cache keyed by node identity: size expressions
        # (domain extents, tile sizes) are re-evaluated many times during
        # hardware generation, always against this fixed environment.  The
        # node is stored alongside its value so cached ids stay pinned.
        self._eval_cache: Dict[int, Tuple[Expr, Optional[int]]] = {}
        self._signature: Optional[Tuple] = None

    def signature(self) -> Tuple:
        """Name-keyed signature of everything this evaluator can observe.

        Used as the workload half of memoisation keys: two evaluators with
        equal signatures produce identical results for structurally
        identical expressions.  The environment must not be mutated after
        the first call.
        """
        if self._signature is None:
            self._signature = env_signature(self.env, self.shapes)
        return self._signature

    def eval(self, expr: Expr) -> Optional[int]:
        hit = self._eval_cache.get(id(expr))
        if hit is not None:
            return hit[1]
        value = self._eval_uncached(expr)
        self._eval_cache[id(expr)] = (expr, value)
        return value

    def _eval_uncached(self, expr: Expr) -> Optional[int]:
        if isinstance(expr, Const):
            return int(expr.value) if isinstance(expr.value, (int, float)) else None
        if isinstance(expr, Sym):
            value = self.env.get(expr)
            return int(value) if value is not None else None
        if isinstance(expr, ArrayDim):
            if isinstance(expr.array, Sym) and expr.array.name in self.shapes:
                return self.shapes[expr.array.name][expr.axis]
            return None
        if isinstance(expr, UnaryOp) and expr.op == "neg":
            inner = self.eval(expr.operand)
            return None if inner is None else -inner
        if isinstance(expr, BinOp):
            lhs, rhs = self.eval(expr.lhs), self.eval(expr.rhs)
            if expr.op == "min":
                known = [v for v in (lhs, rhs) if v is not None]
                return min(known) if known else None
            if expr.op == "max":
                known = [v for v in (lhs, rhs) if v is not None]
                return max(known) if known else None
            if lhs is None or rhs is None:
                return None
            if expr.op == "+":
                return lhs + rhs
            if expr.op == "-":
                return lhs - rhs
            if expr.op == "*":
                return lhs * rhs
            if expr.op == "/":
                return lhs // rhs if rhs else None
            if expr.op == "%":
                return lhs % rhs if rhs else None
        return None

    def eval_or(self, expr: Expr, default: int) -> int:
        value = self.eval(expr)
        return default if value is None else value

    def domain_trips(self, domain: Domain) -> int:
        """Number of iterations of a (possibly strided) domain."""
        total = 1
        for extent, stride in zip(domain.dims, domain.stride_exprs):
            extent_value = self.eval_or(extent, 1)
            stride_value = self.eval_or(stride, 1)
            stride_value = max(1, stride_value)
            total *= max(1, -(-extent_value // stride_value))
        return total

    def domain_elements(self, domain: Domain) -> int:
        """Total number of points in the domain ignoring strides."""
        total = 1
        for extent in domain.dims:
            total *= max(1, self.eval_or(extent, 1))
        return total

    def copy_words(self, copy: ArrayCopy) -> int:
        """Words one tile copy moves; a full dimension counts its whole extent."""
        shape = self.shapes.get(copy.array.name, ()) if isinstance(copy.array, Sym) else ()
        words = 1
        for axis, size in enumerate(copy.sizes):
            if size is None:
                words *= shape[axis] if axis < len(shape) else 1
            else:
                words *= max(1, self.eval_or(size, 1))
        return words


# ---------------------------------------------------------------------------
# Scalar work estimation
# ---------------------------------------------------------------------------

_OP_NODES = (BinOp, UnaryOp, Cmp, Select, TupleGet)


def count_scalar_ops(node: Node, evaluator: StaticEvaluator) -> float:
    """Total scalar arithmetic operations performed by ``node``.

    Patterns multiply the work of their functions by their trip count.  The
    combine functions of folds are excluded (they run once per partial
    accumulator pair, a negligible fraction of the element work and dependent
    on the parallelisation strategy rather than the program).

    Results are memoised in the process-global analysis cache keyed by
    structural hash + workload signature, so repeated counts of shared
    subtrees — within one hardware generation and across design points —
    cost one dictionary lookup.
    """
    if node is None:
        return 0.0
    if not ANALYSIS_CACHE.enabled:
        return _count_scalar_ops(node, evaluator)
    key = (node.structural_hash(), evaluator.signature())
    return ANALYSIS_CACHE.memoize(
        "scalar_ops", key, lambda: _count_scalar_ops(node, evaluator)
    )


def _count_scalar_ops(node: Node, evaluator: StaticEvaluator) -> float:
    if isinstance(node, Pattern):
        trips = evaluator.domain_trips(node.domain)
        per_iteration = 0.0
        if isinstance(node, Map):
            per_iteration = count_scalar_ops(node.func.body, evaluator)
        elif isinstance(node, MultiFold):
            per_iteration = count_scalar_ops(node.index_func.body, evaluator)
            per_iteration += count_scalar_ops(node.value_func.body, evaluator)
        elif isinstance(node, FlatMap):
            per_iteration = count_scalar_ops(node.func.body, evaluator)
        elif isinstance(node, GroupByFold):
            per_iteration = count_scalar_ops(node.key_func.body, evaluator)
            per_iteration += count_scalar_ops(node.value_func.body, evaluator)
        init_ops = 0.0
        if isinstance(node, (MultiFold, GroupByFold)):
            init_ops = count_scalar_ops(node.init, evaluator)
        return trips * max(per_iteration, 1.0) + init_ops

    total = 1.0 if isinstance(node, _OP_NODES) else 0.0
    if isinstance(node, Lambda):
        return count_scalar_ops(node.body, evaluator)
    if isinstance(node, Let):
        return count_scalar_ops(node.value, evaluator) + count_scalar_ops(node.body, evaluator)
    for child in node.children():
        if isinstance(child, Domain):
            continue
        total += count_scalar_ops(child, evaluator)
    return total


# ---------------------------------------------------------------------------
# Input accesses
# ---------------------------------------------------------------------------

#: One enclosing loop of an access: a pattern lambda's params and the
#: pattern's trip count.
Loop = Tuple[Tuple[Sym, ...], int]


def input_accesses(
    root: Node, inputs: Collection[str], evaluator: StaticEvaluator
) -> Iterator[Tuple[Expr, Tuple[Loop, ...]]]:
    """Each occurrence of an input-array read, slice or tile copy under ``root``.

    Yields the access with its loop stack: one :data:`Loop` per enclosing
    pattern lambda, outermost first.  A node the tree reaches twice is
    yielded twice.  Fold ``combine`` functions and domains are not entered,
    a ``Let`` yields its value's accesses before its body's, and inside an
    access only its index expressions (a copy's offsets and sizes) are
    visited.
    """
    pending: List[Tuple[Node, Tuple[Loop, ...]]] = [(root, ())]
    while pending:
        node, loops = pending.pop()
        if isinstance(node, (ArrayApply, ArraySlice, ArrayCopy)):
            if isinstance(node.array, Sym) and node.array.name in inputs:
                yield node, loops
            nested = [(child, loops) for child in node.children() if child is not node.array]
        elif isinstance(node, Pattern):
            trips = evaluator.domain_trips(node.domain)
            nested = []
            for name, value in node.field_values().items():
                if name == "combine":
                    continue
                if isinstance(value, Lambda):
                    nested.append((value.body, loops + ((value.params, trips),)))
                elif isinstance(value, Expr):
                    nested.append((value, loops))
        else:
            nested = [(child, loops) for child in node.children()]
        pending.extend(reversed(nested))


@dataclass
class AccessRecord:
    """One main-memory access site with its execution context.

    ``stream`` classifies how the site walks memory relative to the innermost
    enclosing loop: ``"sequential"`` (the last array dimension follows the
    innermost index — burst friendly), ``"strided"`` (an outer dimension
    follows the innermost index — a column walk), or ``"random"``
    (data-dependent or loop-invariant).  ``run_words`` is the length of one
    contiguous run in words; the baseline memory model issues one DRAM command
    stream per run.
    """

    array: str
    words_per_trip: int
    trips: int
    is_copy: bool
    stream: str = "sequential"
    run_words: int = 1

    @property
    def total_words(self) -> int:
        return self.words_per_trip * self.trips

    @property
    def runs(self) -> int:
        return max(1, -(-self.total_words // max(1, self.run_words)))


def traffic_records(
    program: Program, evaluator: StaticEvaluator, root: Optional[Node] = None
) -> List[AccessRecord]:
    """One record per input access under ``root`` (default: the body), in walk order.

    A record's trips are the product of its loop stack, and a read's stream
    class follows the scalar params of the innermost loop that has any.

    Memoised on (root structure, program input set, workload): hardware
    generation re-analyzes every pattern it lowers, and a design-space
    sweep re-analyzes the same tiled subtrees across points.  Records are
    treated as immutable by all consumers; the cached tuple is copied into
    a fresh list on every call so mutating the returned list cannot poison
    the cache.
    """
    target = root if root is not None else program.body
    inputs = frozenset(array.name for array in program.inputs)
    if not ANALYSIS_CACHE.enabled:
        return _traffic_records(target, inputs, evaluator)
    key = (target.structural_hash(), tuple(sorted(inputs)), evaluator.signature())
    cached = ANALYSIS_CACHE.memoize(
        "traffic_records", key, lambda: tuple(_traffic_records(target, inputs, evaluator))
    )
    return list(cached)


def _traffic_records(
    root: Node, inputs: Collection[str], evaluator: StaticEvaluator
) -> List[AccessRecord]:
    records: List[AccessRecord] = []
    for node, loops in input_accesses(root, inputs, evaluator):
        is_copy = isinstance(node, ArrayCopy)
        if is_copy:
            words = run_words = evaluator.copy_words(node)
            stream = "sequential"
        else:
            shape = evaluator.shapes.get(node.array.name, ())
            words, stream, run_words = _stream(node, shape, loops)
        records.append(
            AccessRecord(
                array=node.array.name,
                words_per_trip=words,
                trips=math.prod(trips for _, trips in loops),
                is_copy=is_copy,
                stream=stream,
                run_words=run_words,
            )
        )
    return records


def _stream(
    node: Expr, shape: Tuple[int, ...], loops: Tuple[Loop, ...]
) -> Tuple[int, str, int]:
    """Words per trip, stream class, and contiguous run length of a read or slice."""
    if isinstance(node, ArraySlice):
        words = 1
        for axis in node.kept_axes:
            words *= shape[axis] if axis < len(shape) else 1
        return max(1, words), "sequential", max(1, words)

    # The stream follows the scalar params of the innermost loop that has any.
    inner: Set[Sym] = set()
    for params, _ in reversed(loops):
        inner = {param for param in params if not is_tensor(param.ty)}
        if inner:
            break
    forms = [linear_form(index) for index in node.indices]
    if any(form is None for form in forms):
        return 1, "random", 1
    if forms and set(forms[-1].coeffs) & inner:
        # The innermost loop walks the fastest-moving dimension: runs are
        # whole rows (or the whole array for rank-1 inputs).
        return 1, "sequential", max(1, shape[-1] if shape else 1)
    if any(set(form.coeffs) & inner for form in forms[:-1]):
        # Column walk: the innermost loop strides across rows.
        return 1, "strided", 1
    return 1, "random", 1
