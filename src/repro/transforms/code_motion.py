"""Loop-invariant code motion over parallel patterns.

After strip mining and interchange, Let bindings (tile copies, intermediate
results) can end up inside patterns even though their values do not depend on
the pattern's indices.  Leaving them there would re-issue the tile load on
every iteration.  :class:`_PatternLICM` hoists such Lets out of the pattern functions —
the paper's "code motion ... to move array tiles out of the innermost
patterns".

A Let may be hoisted out of a pattern function when its value references
neither the pattern's index symbols, nor the accumulator symbol, nor any Let
bound between the function entry and the binding itself.
"""

from __future__ import annotations

from typing import List

from repro.ppl.ir import Expr, FlatMap, GroupByFold, Lambda, Let, Map, MultiFold, Pattern
from repro.ppl.traversal import Transformer, free_syms, rebuild


def _split_invariant_lets(body: Expr, bound_syms: set) -> tuple[List[Let], Expr]:
    """Peel leading Lets off ``body`` that do not reference ``bound_syms``.

    Returns the hoistable Lets (outermost first) and the remaining body.  A
    Let that depends on an earlier non-hoistable Let stays put.
    """
    hoisted: List[Let] = []
    blocked: set = set(bound_syms)
    remaining_prefix: List[Let] = []
    current = body

    while isinstance(current, Let):
        value_free = free_syms(current.value)
        if value_free & blocked:
            remaining_prefix.append(current)
            blocked.add(current.sym)
        else:
            hoisted.append(current)
        current = current.body

    # Rebuild the non-hoisted prefix around the remaining body.
    rebuilt = current
    for let in reversed(remaining_prefix):
        rebuilt = Let(let.sym, let.value, rebuilt)
    return hoisted, rebuilt


def _wrap(lets: List[Let], body: Expr) -> Expr:
    result = body
    for let in reversed(lets):
        result = Let(let.sym, let.value, result)
    return result


class _PatternLICM(Transformer):
    """Hoists invariant Lets out of each pattern's functions."""

    def _hoist_from_pattern(self, pattern: Pattern) -> Expr:
        funcs: dict[str, Lambda] = {
            name: value
            for name, value in pattern.field_values().items()
            if isinstance(value, Lambda)
        }
        all_hoisted: List[Let] = []
        new_fields: dict[str, object] = {}
        for name, func in funcs.items():
            bound = set(func.params)
            hoisted, new_body = _split_invariant_lets(func.body, bound)
            all_hoisted.extend(hoisted)
            if hoisted:
                new_fields[name] = Lambda(func.params, new_body)
        if not all_hoisted:
            return pattern
        new_pattern = rebuild(pattern, new_fields)
        return _wrap(all_hoisted, new_pattern)

    def rewrite_Map(self, node: Map):
        return self._hoist_from_pattern(node)

    def rewrite_MultiFold(self, node: MultiFold):
        return self._hoist_from_pattern(node)

    def rewrite_FlatMap(self, node: FlatMap):
        return self._hoist_from_pattern(node)

    def rewrite_GroupByFold(self, node: GroupByFold):
        return self._hoist_from_pattern(node)
