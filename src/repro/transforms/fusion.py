"""Vertical fusion of producer/consumer parallel patterns.

The paper's tiling transformations assume "well known target-agnostic
transformations like fusion ... have already been run" (Section 4) and its
running example (Figure 4) is the fused form of k-means.  These helpers
implement the standard vertical fusion rules for that preprocessing step
(:class:`repro.rewrite.ppl.VerticalFusion` applies them):

* ``Map(d)(f)`` consumed element-wise by ``Map(d)(g)`` fuses to
  ``Map(d)(g ∘ f)`` — the intermediate array disappears.
* ``Map(d)(f)`` consumed element-wise by a scalar fold over the same domain
  fuses into the fold's value function (a map-reduce becomes a single
  MultiFold), decreasing the reuse distance between producer and consumer.

Fusion is applied where a produced array is Let-bound and *only* consumed by
element reads at the consumer's own indices.  More general fusion (horizontal
fusion, FlatMap fusion) is possible in the paper's compiler (Delite) but is
not needed as a precondition of tiling; the applications in
:mod:`repro.apps` are written in fused form, mirroring Figure 4.
"""

from __future__ import annotations

from repro.ppl.ir import ArrayApply, Expr, Let, Map, Node, Sym
from repro.ppl.traversal import (
    Transformer,
    free_syms,
    structurally_equal,
    substitute,
    walk,
)


def _sym_only_under_applies(body: Expr, array_sym: Sym) -> bool:
    """Check every occurrence of ``array_sym`` is the array operand of an ArrayApply."""
    allowed_ids = set()
    for node in walk(body):
        if isinstance(node, ArrayApply) and node.array is array_sym:
            allowed_ids.add(id(node))

    def check(node: Node, parent_is_apply_array: bool) -> bool:
        if node is array_sym:
            return parent_is_apply_array
        for child in node.children():
            is_array_slot = isinstance(node, ArrayApply) and child is node.array and id(node) in allowed_ids
            if not check(child, is_array_slot):
                return False
        return True

    return check(body, False)


def _inline_producer(body: Expr, array_sym: Sym, producer: Map) -> Expr:
    """Replace ``array_sym(i...)`` reads with the producer's value function at ``i...``."""

    class _Inline(Transformer):
        def rewrite_ArrayApply(self, node: ArrayApply):
            if node.array is array_sym:
                mapping = dict(zip(producer.func.params, node.indices))
                return substitute(producer.func.body, mapping)
            return node

    return _Inline().transform(body)


def _fusable(node: Let) -> bool:
    """Whether a Let-bound Map producer may be inlined into its body."""
    if not isinstance(node.value, Map):
        return False
    if not _sym_only_under_applies(node.body, node.sym):
        return False
    reads = [
        n
        for n in walk(node.body)
        if isinstance(n, ArrayApply) and n.array is node.sym
    ]
    # Do not fuse when the producer is read at several distinct index
    # positions — inlining would duplicate the producer's work (e.g. the
    # centered-point vector of gda is read as sub(r) and sub(s)).
    if len(reads) > 1:
        first = reads[0].indices
        for other in reads[1:]:
            if len(other.indices) != len(first) or not all(
                structurally_equal(a, b) for a, b in zip(first, other.indices)
            ):
                return False
    return True


class _VerticalFusion(Transformer):
    """Fuses Let-bound Map producers into their sole consumers."""

    def rewrite_Let(self, node: Let):
        if not _fusable(node):
            return node
        fused_body = _inline_producer(node.body, node.sym, node.value)
        if node.sym in free_syms(fused_body):  # pragma: no cover - defensive
            return node
        return fused_body
