"""Symbolic tile sizes: placeholders, guards and instantiation.

The paper writes its tiling rules over symbolic tile sizes (``b0``, ``b1``,
``x.copy(b + ii)``, Tables 1–2), and so does the memoised pipeline: inside
:meth:`repro.pipeline.pipeline.Pipeline.run`, strip mining gives every
tiled extent key one *placeholder* size symbol instead of a constant, and
the PPL transforms after it rewrite programs that hold those placeholders.
One run then serves every tile configuration with the same tiling
structure, and each configuration is instantiated by substitution
(:func:`instantiate`).

A transform may still have to decide on a tile *value*.  Two decisions
do: whether a tile is 1 (strip mining then emits the constant, because the
outer domain is unstrided, which changes what tile-copy insertion and
interchange see), and whether a split intermediate fits the on-chip budget
(interchange).  Each decision goes through :class:`TileGuards`, which
answers it from the configuration the run was started with and records
it; the pipeline stores the record with the memo entry and replays it
(:func:`guards_hold`) before serving the entry to another configuration.

Placeholders are plain :class:`~repro.ppl.ir.Sym` nodes named ``b<key>``,
built without the fresh-name generator, so a symbolic run mints exactly
the bound names a direct compile would.  Outside a memoised pipeline run
(``ctx.tile_guards is None``) the transforms emit constants, which is the
direct compile every instance is checked against.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.ppl.ir import Const, Node, Pattern, Sym
from repro.ppl.program import Program
from repro.ppl.traversal import rebuild
from repro.ppl.types import INDEX

__all__ = [
    "TileGuards",
    "guards_hold",
    "holds_placeholders",
    "instance",
    "instantiate",
    "placeholder",
    "placeholder_key",
    "static_words",
]


def placeholder(key: str) -> Sym:
    """A fresh placeholder size symbol for the tile of extent key ``key``."""
    return Sym(f"b<{key}>", INDEX)


def placeholder_key(node: Node) -> Optional[str]:
    """The extent key a placeholder stands for, or None for any other node."""
    if isinstance(node, Sym):
        name = node.name
        if name.startswith("b<") and name.endswith(">"):
            return name[2:-1]
    return None


def holds_placeholders(program: Program) -> bool:
    """Whether ``program`` lists placeholder sizes (and so needs instantiating)."""
    return any(placeholder_key(size) is not None for size in program.sizes)


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------


def static_words(dims: Tuple[tuple, ...], fields: int, tiles: Mapping[str, int]) -> int:
    """Words of an intermediate with ``fields`` words per element whose
    axes are bounded by the minimum of their operands: ints, or extent
    keys of placeholder tile sizes, read from ``tiles``."""
    words = fields
    for operands in dims:
        words *= min(tiles[value] if isinstance(value, str) else value for value in operands)
    return words


def _evaluate(guard: tuple, tiles: Mapping[str, int]) -> bool:
    if guard[0] == "unit":  # ("unit", key): a tile of 1
        return tiles[guard[1]] == 1
    _, dims, fields, budget = guard  # ("words", ...): fits the split budget
    return static_words(dims, fields, tiles) <= budget


class TileGuards:
    """The tile values one symbolic run decides with, and what it decided.

    ``taken`` maps each guard to its outcome, in first-decided order; a
    repeated decision is answered from it.
    """

    def __init__(self, tile_sizes: Mapping[str, int]) -> None:
        self.tile_sizes = tile_sizes
        self.taken: Dict[tuple, bool] = {}

    def _decide(self, guard: tuple) -> bool:
        outcome = self.taken.get(guard)
        if outcome is None:
            outcome = self.taken[guard] = _evaluate(guard, self.tile_sizes)
        return outcome

    def unit(self, key: str) -> bool:
        """``tile[key] == 1`` (the outer domain would be unstrided)."""
        return self._decide(("unit", key))

    def within(self, dims: Tuple[tuple, ...], fields: int, budget: int) -> bool:
        """Whether a split intermediate's static size fits ``budget`` words."""
        return self._decide(("words", dims, fields, budget))

    def record(self) -> Tuple[Tuple[tuple, bool], ...]:
        return tuple(self.taken.items())


def guards_hold(record: Tuple[Tuple[tuple, bool], ...], tile_sizes: Mapping[str, int]) -> bool:
    """Whether every recorded decision comes out the same for ``tile_sizes``."""
    return all(_evaluate(guard, tile_sizes) is outcome for guard, outcome in record)


# ---------------------------------------------------------------------------
# Instantiation
# ---------------------------------------------------------------------------


def instance(program: Program, tile_sizes: Mapping[str, int]) -> Program:
    """:func:`instantiate`, memoised per configuration on the symbolic program.

    The memo rides on the program object (like the structural hash on a
    node), so it is shared by every compile that reaches the program and
    is persisted with it in the analysis store.
    """
    memo = program.__dict__.setdefault("_instances", {})
    key = tuple(sorted(tile_sizes.items()))
    found = memo.get(key)
    if found is None:
        found = memo[key] = instantiate(program, tile_sizes)
    return found


def instantiate(program: Program, tile_sizes: Mapping[str, int]) -> Program:
    """``program`` with every placeholder replaced by its tile value.

    Each placeholder occurrence becomes its own ``Const``, as strip mining
    emits them in a direct compile, and pattern ``meta["tile_sizes"]``
    entries become the values.  The rewrite is memoised by node identity,
    so a subtree shared within the symbolic program is shared, rewritten
    once, in the instance; subtrees without placeholders are the symbolic
    program's own nodes.
    """
    values = {}
    for size in program.sizes:
        key = placeholder_key(size)
        if key is not None:
            values[size.name] = tile_sizes[key]
    if not values:
        return program
    memo: Dict[int, Node] = {}

    def field(value):
        if isinstance(value, Node):
            return go(value)
        if isinstance(value, tuple):
            return tuple(go(item) if isinstance(item, Node) else item for item in value)
        return value

    def go(node: Node) -> Node:
        if isinstance(node, Sym):
            value = values.get(node.name)
            return node if value is None else Const(value, INDEX)
        if isinstance(node, Const):
            return node
        done = memo.get(id(node))
        if done is not None:
            return done
        fields = {}
        changed = False
        for name in node._fields:
            old = getattr(node, name)
            new = field(old)
            fields[name] = new
            if new is not old and not (
                isinstance(old, tuple) and all(a is b for a, b in zip(old, new))
            ):
                changed = True
        sizes = node.meta.get("tile_sizes") if isinstance(node, Pattern) else None
        symbolic_meta = sizes is not None and any(isinstance(s, Sym) for s in sizes)
        result = rebuild(node, fields) if changed or symbolic_meta else node
        if symbolic_meta:
            result.meta["tile_sizes"] = tuple(
                values[s.name] if isinstance(s, Sym) else s for s in sizes
            )
        memo[id(node)] = result
        return result

    return Program(
        name=program.name,
        inputs=list(program.inputs),
        sizes=[size for size in program.sizes if size.name not in values],
        body=go(program.body),
        output_names=list(program.output_names),
    )
