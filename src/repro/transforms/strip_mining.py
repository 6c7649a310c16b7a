"""Strip mining of parallel patterns (Table 1 / Table 2 of the paper).

Strip mining is the first half of the automatic tiling transformation.  It is
implemented as two steps, exactly as described in Section 4
(:class:`repro.rewrite.ppl.StripMine` and :class:`repro.rewrite.ppl.TileCopies`
apply them):

1. :class:`_StripMiner` partitions each pattern's iteration domain into
   tiles of the user-specified size by breaking the pattern into a pair of
   perfectly nested patterns (Table 1).  The outer pattern iterates over the
   strided domain ``d/b`` (its index takes the values ``0, b, 2b, …``); the
   inner pattern operates on a tile of size ``b`` and its indices are added to
   the outer index to form the global index.  ``b`` is a constant, or inside
   a memoised pipeline run the tiled key's placeholder size symbol
   (:mod:`repro.transforms.symbolic`), which one run shares across tile
   sizes.

   * ``Map`` becomes a ``MultiFold`` over the strided domain whose value
     function produces one output tile per iteration and whose combine
     function is unused (each location is written exactly once).
   * ``MultiFold`` becomes a ``MultiFold`` of ``MultiFold``s: the inner
     pattern reduces one tile into a private accumulator, the outer pattern
     combines that partial accumulator into the global one.
   * ``FlatMap`` nests directly (concatenation is associative).
   * ``GroupByFold`` keeps its flat form (its output size is dynamic so tiles
     of the output cannot be named statically); strip mining records the tile
     size in metadata and the hardware CAM merges per-tile partial results.
     This is the one documented deviation from Table 1 — see README.md,
     "Deviations from the paper".

2. :class:`_TileCopier` converts array accesses with statically
   predictable (affine) access patterns into accesses of explicitly copied
   array tiles (the ``x.copy(b + ii)`` bindings of Table 2).  Accesses that
   are not affine in the loop indices — e.g. data-dependent reads — are left
   untouched; hardware generation later serves them with caches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.access import LinearForm, linear_form
from repro.config import CompileConfig
from repro.errors import TilingError
from repro.ppl import builder as bld
from repro.ppl.ir import (
    ArrayApply,
    ArrayCopy,
    ArrayDim,
    ArraySlice,
    Const,
    Domain,
    Expr,
    FlatMap,
    GroupByFold,
    Lambda,
    Let,
    MakeTuple,
    Map,
    MultiFold,
    Node,
    Pattern,
    Sym,
    Zeros,
)
from repro.ppl.traversal import (
    Transformer,
    free_syms,
    rebuild,
    substitute,
    walk,
)
from repro.ppl.types import INDEX, TensorType
from repro.transforms.symbolic import TileGuards, placeholder, placeholder_key


_OUTER_NAMES = ["ii", "jj", "kk", "ll"]
_INNER_NAMES = ["i", "j", "k", "l"]


# ---------------------------------------------------------------------------
# Step 1: domain partitioning (Table 1)
# ---------------------------------------------------------------------------


def _extent_key(extent: Expr) -> Optional[str]:
    """The configuration key used to look up a tile size for a domain extent.

    Plain size symbols use their name (``"n"``); extents written as
    ``array.dim(axis)`` (produced by the staging front end) use
    ``"array[axis]"``.
    """
    if isinstance(extent, Sym):
        return extent.name
    if isinstance(extent, ArrayDim) and isinstance(extent.array, Sym):
        return f"{extent.array.name}[{extent.axis}]"
    return None


@dataclass
class _AxisPlan:
    """How one domain axis is handled during strip mining."""

    extent: Expr
    # None = untiled; otherwise the tile value, or its placeholder size
    # symbol in a symbolic run (see :mod:`repro.transforms.symbolic`).
    tile: Union[int, Sym, None]

    @property
    def tiled(self) -> bool:
        return self.tile is not None

    @property
    def size(self) -> Expr:
        """The tile size as an IR expression."""
        return self.tile if isinstance(self.tile, Sym) else Const(self.tile, INDEX)

    @property
    def outer_stride(self) -> Expr:
        return self.size if self.tiled else self.extent


class _StripMiner:
    """Break tiled pattern dimensions into perfectly nested pattern pairs.

    With ``guards`` (a symbolic run) a tile other than 1 becomes the
    extent key's placeholder size symbol, reusing any placeholder already
    listed in ``sizes``; every decision on a tile value goes through the
    guards.  ``placeholders`` holds the symbols the run used.
    """

    def __init__(
        self,
        config: CompileConfig,
        guards: Optional[TileGuards] = None,
        sizes: Sequence[Sym] = (),
    ) -> None:
        self.config = config
        self.guards = guards
        self.placeholders: Dict[str, Sym] = {
            key: size for size in sizes if (key := placeholder_key(size)) is not None
        }

    # -- recursion ------------------------------------------------------------
    def strip(self, node: Node) -> Node:
        if isinstance(node, Pattern):
            plans = self.plan_axes(node.domain)
            if any(plan.tiled for plan in plans):
                return self._strip_pattern(node, plans)
        return self._recurse(node)

    def _recurse(self, node: Node) -> Node:
        if node is None:
            return None
        new_values: Dict[str, object] = {}
        changed = False
        for name in node._fields:
            old = getattr(node, name)
            if isinstance(old, Node):
                new = self.strip(old)
            elif isinstance(old, tuple):
                new = tuple(self.strip(v) if isinstance(v, Node) else v for v in old)
            else:
                new = old
            new_values[name] = new
            if new is not old and not (
                isinstance(old, tuple)
                and isinstance(new, tuple)
                and all(a is b for a, b in zip(old, new))
            ):
                changed = True
        return rebuild(node, new_values) if changed else node

    def plan_axes(self, domain: Domain) -> List[_AxisPlan]:
        plans = []
        for extent, stride in zip(domain.dims, domain.stride_exprs):
            already_strided = not (isinstance(stride, Const) and stride.value == 1)
            key = _extent_key(extent)
            tile = None
            if not already_strided and key is not None:
                tile = self.config.tile_size_for(key)
                if tile is not None and self.guards is not None and not self.guards.unit(key):
                    tile = self._placeholder(key)
            plans.append(_AxisPlan(extent, tile))
        return plans

    def _placeholder(self, key: str) -> Sym:
        if key not in self.placeholders:
            self.placeholders[key] = placeholder(key)
        return self.placeholders[key]

    # -- per-pattern rules -----------------------------------------------------
    def _make_index_syms(self, plans: Sequence[_AxisPlan]) -> tuple[list[Sym], list[Sym], list[Expr]]:
        outer_syms, inner_syms, global_idx = [], [], []
        for axis, plan in enumerate(plans):
            outer = bld.sym(_OUTER_NAMES[axis % len(_OUTER_NAMES)], INDEX)
            inner = bld.sym(_INNER_NAMES[axis % len(_INNER_NAMES)], INDEX)
            outer_syms.append(outer)
            inner_syms.append(inner)
            global_idx.append(bld.add(outer, inner))
        return outer_syms, inner_syms, global_idx

    def _outer_domain(self, plans: Sequence[_AxisPlan]) -> Domain:
        return Domain(
            tuple(plan.extent for plan in plans),
            tuple(plan.outer_stride for plan in plans),
        )

    def _inner_domain(self, plans: Sequence[_AxisPlan], outer_syms: Sequence[Sym]) -> Domain:
        """The tile-local domain, clamped with a min check at partial tiles.

        The paper notes that non-dividing tile sizes are "trivially solved
        with the addition of min checks on the domain of the inner loop";
        the clamp ``min(b, extent - ii)`` is that check.
        """
        dims = []
        for plan, outer in zip(plans, outer_syms):
            if plan.tiled:
                dims.append(bld.minimum(plan.size, bld.sub(plan.extent, outer)))
            else:
                dims.append(plan.extent)
        return Domain(tuple(dims))

    def _strip_pattern(self, node: Pattern, plans: List[_AxisPlan]) -> Node:
        if isinstance(node, Map):
            return self._strip_map(node, plans)
        if isinstance(node, MultiFold):
            return self._strip_multifold(node, plans)
        if isinstance(node, FlatMap):
            return self._strip_flatmap(node, plans)
        if isinstance(node, GroupByFold):
            return self._strip_groupbyfold(node, plans)
        raise TilingError(f"cannot strip mine pattern {type(node).__name__}")  # pragma: no cover

    def _strip_map(self, node: Map, plans: List[_AxisPlan]) -> Node:
        outer_syms, inner_syms, global_idx = self._make_index_syms(plans)
        body = substitute(node.func.body, dict(zip(node.func.params, global_idx)))
        body = self.strip(body)
        inner = Map(self._inner_domain(plans, outer_syms), Lambda(tuple(inner_syms), body))
        inner.with_meta(tile_of="Map", strip_level="inner")

        rank = len(plans)
        location: Expr = MakeTuple(tuple(outer_syms)) if rank > 1 else outer_syms[0]
        acc = bld.sym("acc", TensorType(node.func.return_type, rank))
        outer = MultiFold(
            domain=self._outer_domain(plans),
            rshape=tuple(plan.extent for plan in plans),
            init=Zeros(tuple(plan.extent for plan in plans), node.func.return_type),
            index_func=Lambda(tuple(outer_syms), location),
            value_func=Lambda(tuple(outer_syms) + (acc,), inner),
            combine=None,
        )
        outer.with_meta(
            strip_mined=True,
            tiled_from="Map",
            tile_sizes=tuple(plan.tile for plan in plans),
        )
        return outer

    def _strip_multifold(self, node: MultiFold, plans: List[_AxisPlan]) -> Node:
        outer_syms, inner_syms, global_idx = self._make_index_syms(plans)
        idx_map = dict(zip(node.index_func.params, global_idx))
        val_map = dict(zip(node.value_func.params[:-1], global_idx))

        inner_index = Lambda(tuple(inner_syms), self.strip(substitute(node.index_func.body, idx_map)))
        acc_inner = node.value_func.params[-1]
        inner_value = Lambda(
            tuple(inner_syms) + (acc_inner,),
            self.strip(substitute(node.value_func.body, val_map)),
        )
        init = self.strip(node.init)
        # The combine function is left untiled: it runs once per partial
        # accumulator pair, and hardware generation eliminates the redundant
        # whole-accumulator combine of Table 1's general rule anyway
        # (Section 5, "redundant accumulation functions").
        combine = node.combine

        inner = MultiFold(
            domain=self._inner_domain(plans, outer_syms),
            rshape=node.rshape,
            init=init,
            index_func=inner_index,
            value_func=inner_value,
            combine=combine,
        )
        inner.meta = dict(node.meta)
        inner.with_meta(tile_of="MultiFold", strip_level="inner")

        # Outer pattern: combine each tile's partial accumulator into the
        # global accumulator (the whole-accumulator location, Table 1).
        rank = len(plans)
        zero_loc: Expr = (
            MakeTuple(tuple(Const(0, INDEX) for _ in range(len(node.rshape))))
            if len(node.rshape) > 1
            else Const(0, INDEX)
        )
        acc_outer = bld.sym("acc", node.init.ty)
        if combine is None:
            raise TilingError(
                "strip mining a MultiFold requires an associative combine function"
            )
        # Bind the tile's partial accumulator and combine it into the global
        # accumulator, as in the sumrows example of Table 2
        # (``tile = multiFold(...); (ii, acc => map(b0){acc(j) + tile(j)})``).
        tile_sym = bld.sym("tile", node.init.ty)
        outer_value_body = Let(
            tile_sym, inner, self._apply_combine(combine, acc_outer, tile_sym)
        )
        outer = MultiFold(
            domain=self._outer_domain(plans),
            rshape=node.rshape,
            init=init,
            index_func=Lambda(tuple(outer_syms), zero_loc),
            value_func=Lambda(tuple(outer_syms) + (acc_outer,), outer_value_body),
            combine=combine,
        )
        outer.meta = dict(node.meta)
        outer.with_meta(
            strip_mined=True,
            tiled_from="MultiFold",
            tile_sizes=tuple(plan.tile for plan in plans),
        )
        return outer

    def _strip_flatmap(self, node: FlatMap, plans: List[_AxisPlan]) -> Node:
        outer_syms, inner_syms, global_idx = self._make_index_syms(plans)
        body = substitute(node.func.body, dict(zip(node.func.params, global_idx)))
        body = self.strip(body)
        inner = FlatMap(self._inner_domain(plans, outer_syms), Lambda(tuple(inner_syms), body))
        inner.with_meta(tile_of="FlatMap", strip_level="inner")
        outer = FlatMap(self._outer_domain(plans), Lambda(tuple(outer_syms), inner))
        outer.with_meta(
            strip_mined=True,
            tiled_from="FlatMap",
            tile_sizes=tuple(plan.tile for plan in plans),
        )
        return outer

    def _strip_groupbyfold(self, node: GroupByFold, plans: List[_AxisPlan]) -> Node:
        # Documented deviation: the output key space is dynamic, so the flat
        # form is kept and the tile size is recorded for the hardware CAM and
        # the traffic model (see the module docstring and README.md, "Deviations
        # from the paper").
        new = self._recurse(node)
        if isinstance(new, Pattern):
            new.with_meta(
                strip_mined=True,
                tiled_from="GroupByFold",
                tile_sizes=tuple(plan.tile for plan in plans),
            )
        return new

    # -- helpers ---------------------------------------------------------------
    @staticmethod
    def _apply_combine(combine: Lambda, left: Expr, right: Expr) -> Expr:
        return substitute(combine.body, dict(zip(combine.params, (left, right))))


# ---------------------------------------------------------------------------
# Step 2: tile copy insertion (Table 2)
# ---------------------------------------------------------------------------


@dataclass
class _TilePlan:
    """Planned copy of one array within one strided pattern."""

    array: Sym
    offsets: List[Optional[Expr]] = field(default_factory=list)
    sizes: List[Optional[Expr]] = field(default_factory=list)
    accesses: List[Node] = field(default_factory=list)


class _AccessRewriter(Transformer):
    """Rewrites accesses of an array into accesses of its tile copy."""

    def __init__(self, array: Sym, tile_sym: Sym, outer_syms: set) -> None:
        self.array = array
        self.tile_sym = tile_sym
        self.outer_syms = outer_syms

    def _localize(self, index: Optional[Expr]) -> Optional[Expr]:
        if index is None:
            return None
        form = linear_form(index)
        if form is None or not (set(form.coeffs) & self.outer_syms):
            return index
        local = form.without(self.outer_syms)
        return _form_to_expr(local)

    def rewrite_ArrayApply(self, node: ArrayApply):
        if node.array is not self.array:
            return node
        return ArrayApply(self.tile_sym, tuple(self._localize(i) for i in node.indices))

    def rewrite_ArraySlice(self, node: ArraySlice):
        if node.array is not self.array:
            return node
        return ArraySlice(self.tile_sym, tuple(self._localize(s) for s in node.specs))


def _form_to_expr(form: LinearForm) -> Expr:
    expr: Expr = Const(form.constant, INDEX) if form.constant or not form.coeffs else None
    for sym, coeff in form.coeffs.items():
        term = sym if coeff == 1 else bld.mul(coeff, sym)
        expr = term if expr is None else bld.add(expr, term)
    return expr if expr is not None else Const(0, INDEX)


class _TileCopier:
    """Insert explicit tile copies for affine accesses within strided patterns.

    Only main-memory inputs (``input_arrays``) are copied on chip.
    """

    def __init__(self, input_arrays) -> None:
        self.input_arrays = set(input_arrays)

    # -- recursion ------------------------------------------------------------
    def process(self, node: Node, tile_syms: set) -> Node:
        if isinstance(node, Pattern) and node.domain.is_strided:
            node = self.insert_copies(node, tile_syms)
        if isinstance(node, Let) and isinstance(node.value, ArrayCopy):
            tile_syms = tile_syms | {node.sym}

        new_values: Dict[str, object] = {}
        changed = False
        for name in node._fields:
            old = getattr(node, name)
            if isinstance(old, Node):
                new = self.process(old, tile_syms)
            elif isinstance(old, tuple):
                new = tuple(self.process(v, tile_syms) if isinstance(v, Node) else v for v in old)
            else:
                new = old
            new_values[name] = new
            if not _identical(old, new):
                changed = True
        return rebuild(node, new_values) if changed else node

    # -- the actual copy insertion ----------------------------------------------
    def insert_copies(self, pattern: Pattern, tile_syms: set) -> Pattern:
        strided_info = self._strided_axes(pattern)
        if not strided_info:
            return pattern

        func_name, func = self._main_function(pattern)
        if func is None:
            return pattern

        outer_map = {
            param: stride for param, stride in zip(func.params, pattern.domain.stride_exprs)
        }
        strided_params = {
            param
            for param, stride in outer_map.items()
            if not (isinstance(stride, Const) and stride.value == 1)
        }
        if not strided_params:
            return pattern

        plans = self._plan_copies(pattern, func, strided_params, outer_map, tile_syms)
        if not plans:
            return pattern

        # Rewrite accesses within the pattern's main function only (the value
        # function for folds, the element function for Map/FlatMap) so that
        # every rewritten access stays within the scope of the inserted Lets.
        body = func.body
        lets: List[Tuple[Sym, ArrayCopy]] = []
        for plan in plans:
            tile_sym = bld.sym(f"{plan.array.name}Tile", plan.array.ty)
            copy = ArrayCopy(
                plan.array,
                tuple(Const(0, INDEX) if o is None else o for o in plan.offsets),
                tuple(plan.sizes),
            )
            lets.append((tile_sym, copy))
            body = _AccessRewriter(plan.array, tile_sym, strided_params).transform(body)

        for tile_sym, copy in reversed(lets):
            body = Let(tile_sym, copy, body)
        new_pattern = rebuild(pattern, {func_name: Lambda(func.params, body)})
        return new_pattern

    def _strided_axes(self, pattern: Pattern) -> List[int]:
        return [
            axis
            for axis, stride in enumerate(pattern.domain.stride_exprs)
            if not (isinstance(stride, Const) and stride.value == 1)
        ]

    @staticmethod
    def _main_function(pattern: Pattern) -> Tuple[Optional[str], Optional[Lambda]]:
        """The function holding the pattern's body (value_func or func)."""
        if isinstance(pattern, MultiFold):
            return "value_func", pattern.value_func
        if isinstance(pattern, (Map, FlatMap)):
            return "func", pattern.func
        if isinstance(pattern, GroupByFold):
            return "value_func", pattern.value_func
        return None, None

    def _plan_copies(
        self,
        pattern: Pattern,
        func: Lambda,
        strided_params: set,
        outer_map: Dict[Sym, Expr],
        tile_syms: set,
    ) -> List[_TilePlan]:
        candidates: Dict[Sym, _TilePlan] = {}
        rejected: set = set()
        pattern_free = free_syms(pattern)

        for node in walk(func.body):
            array, indices = _access_parts(node)
            if array is None:
                continue
            if not isinstance(array, Sym) or array in tile_syms:
                continue
            # Only main-memory input collections are worth copying on chip;
            # accumulators and function parameters are already on-chip values.
            if array not in self.input_arrays or array not in pattern_free:
                continue
            if array in rejected:
                continue
            plan = candidates.get(array)
            if plan is None:
                plan = _TilePlan(array, [None] * array.ty.rank, [None] * array.ty.rank)
                candidates[array] = plan
            if not self._merge_access(plan, indices, strided_params, outer_map):
                rejected.add(array)
                candidates.pop(array, None)
            else:
                plan.accesses.append(node)

        return [plan for plan in candidates.values() if any(o is not None for o in plan.offsets)]

    def _merge_access(
        self,
        plan: _TilePlan,
        indices: Sequence[Optional[Expr]],
        strided_params: set,
        outer_map: Dict[Sym, Expr],
    ) -> bool:
        if len(indices) != plan.array.ty.rank:
            return False
        for axis, index in enumerate(indices):
            if index is None:
                continue
            form = linear_form(index)
            if form is None:
                return False
            outer_here = [s for s in form.coeffs if s in strided_params]
            if not outer_here:
                continue  # full-dimension copy for this axis
            if len(outer_here) > 1 or form.coefficient(outer_here[0]) != 1:
                return False
            outer_sym = outer_here[0]
            offset: Expr = outer_sym
            size = outer_map[outer_sym]
            if plan.offsets[axis] is None:
                plan.offsets[axis] = offset
                plan.sizes[axis] = size
            elif not (isinstance(plan.offsets[axis], Sym) and plan.offsets[axis] is offset):
                return False
        return True


def _access_parts(node: Node) -> Tuple[Optional[Expr], Tuple[Optional[Expr], ...]]:
    if isinstance(node, ArrayApply):
        return node.array, tuple(node.indices)
    if isinstance(node, ArraySlice):
        return node.array, node.specs
    return None, ()


def _identical(old, new) -> bool:
    if old is new:
        return True
    if isinstance(old, tuple) and isinstance(new, tuple) and len(old) == len(new):
        return all(a is b for a, b in zip(old, new))
    return False
