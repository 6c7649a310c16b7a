"""Linear forms of index expressions.

:func:`linear_form` extracts the linear form of an index expression as integer
coefficients over symbols plus a constant, failing (returning ``None``) when
the expression is not linear — e.g. a product of two symbols or a
data-dependent index such as ``sums(minDistIndex, j)`` in k-means.  Tile-copy
insertion (Section 4) reads the forms to decide whether a copy covers an
access and to rewrite the access into tile-local indices; the traffic
models (:mod:`repro.analysis.estimate`, :mod:`repro.analysis.traffic`) read
them to find which loop indices an access's row or stream follows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.ppl.ir import BinOp, Const, Expr, Sym, UnaryOp

__all__ = ["LinearForm", "linear_form"]


@dataclass
class LinearForm:
    """``constant + Σ coeff_i · sym_i`` with integer coefficients."""

    coeffs: Dict[Sym, int] = field(default_factory=dict)
    constant: int = 0

    def __add__(self, other: "LinearForm") -> "LinearForm":
        coeffs = dict(self.coeffs)
        for sym, coeff in other.coeffs.items():
            coeffs[sym] = coeffs.get(sym, 0) + coeff
        return LinearForm(_drop_zeros(coeffs), self.constant + other.constant)

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return self + other.scale(-1)

    def scale(self, factor: int) -> "LinearForm":
        return LinearForm(
            _drop_zeros({s: c * factor for s, c in self.coeffs.items()}),
            self.constant * factor,
        )

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def coefficient(self, sym: Sym) -> int:
        return self.coeffs.get(sym, 0)

    def without(self, syms: Iterable[Sym]) -> "LinearForm":
        """The form with the given symbols' terms removed (constant kept)."""
        excluded = set(syms)
        return LinearForm(
            {s: c for s, c in self.coeffs.items() if s not in excluded}, self.constant
        )


def _drop_zeros(coeffs: Dict[Sym, int]) -> Dict[Sym, int]:
    return {s: c for s, c in coeffs.items() if c != 0}


def linear_form(expr: Expr) -> Optional[LinearForm]:
    """Extract the linear form of a (scalar) index expression.

    Returns ``None`` when the expression is not a linear combination of
    symbols with integer coefficients — e.g. a product of two symbols, a
    data-dependent array read, or a select.
    """
    if isinstance(expr, Const):
        if isinstance(expr.value, bool) or not isinstance(expr.value, (int, float)):
            return None
        value = expr.value
        if isinstance(value, float) and not value.is_integer():
            return None
        return LinearForm({}, int(value))
    if isinstance(expr, Sym):
        return LinearForm({expr: 1}, 0)
    if isinstance(expr, UnaryOp) and expr.op == "neg":
        inner = linear_form(expr.operand)
        return None if inner is None else inner.scale(-1)
    if isinstance(expr, BinOp):
        if expr.op == "+":
            lhs, rhs = linear_form(expr.lhs), linear_form(expr.rhs)
            if lhs is None or rhs is None:
                return None
            return lhs + rhs
        if expr.op == "-":
            lhs, rhs = linear_form(expr.lhs), linear_form(expr.rhs)
            if lhs is None or rhs is None:
                return None
            return lhs - rhs
        if expr.op == "*":
            lhs, rhs = linear_form(expr.lhs), linear_form(expr.rhs)
            if lhs is None or rhs is None:
                return None
            if lhs.is_constant:
                return rhs.scale(lhs.constant)
            if rhs.is_constant:
                return lhs.scale(rhs.constant)
            return None
    return None

