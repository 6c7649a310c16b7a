"""TPC-H Query 6 (Table 5: ``tpchq6``).

The query filters a table of purchase records by a predicate over ship date,
discount and quantity, then sums ``extendedprice * discount`` over the
surviving records::

    SELECT sum(l_extendedprice * l_discount) FROM lineitem
    WHERE l_shipdate >= date1 AND l_shipdate < date2
      AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24

In PPL form this is a filter fused into a reduction: a scalar fold whose
value function contributes ``price * discount`` when the predicate holds and
``0`` otherwise.  The benchmark streams its input once with no reuse, so the
paper reports only a small gain from tiling (burst-level streaming is already
exploited by the baseline) and a modest gain from metapipelining (overlap of
fetch and compute).

A separate un-fused variant (:func:`build_tpchq6_flatmap`) keeps the explicit
``FlatMap`` filter; it exercises the parallel FIFO hardware template.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.apps.base import Benchmark, register
from repro.ppl import builder as b
from repro.ppl.ir import ArrayLit, BinOp, Cmp, Const, EmptyArray, Select
from repro.ppl.program import Program
from repro.ppl.types import INDEX

__all__ = ["build_tpchq6", "build_tpchq6_flatmap", "TPCHQ6"]

# Query constants (dates are encoded as integer day numbers).
_DATE_LO = 8766.0
_DATE_HI = 9131.0
_DISCOUNT_LO = 0.05
_DISCOUNT_HI = 0.07
_QUANTITY_LIMIT = 24.0


def _predicate(shipdate, discount, quantity, i):
    in_dates = BinOp(
        "and",
        Cmp(">=", b.apply_array(shipdate, i), Const(_DATE_LO)),
        Cmp("<", b.apply_array(shipdate, i), Const(_DATE_HI)),
    )
    in_discount = BinOp(
        "and",
        Cmp(">=", b.apply_array(discount, i), Const(_DISCOUNT_LO)),
        Cmp("<=", b.apply_array(discount, i), Const(_DISCOUNT_HI)),
    )
    in_quantity = Cmp("<", b.apply_array(quantity, i), Const(_QUANTITY_LIMIT))
    return BinOp("and", BinOp("and", in_dates, in_discount), in_quantity)


def build_tpchq6() -> Program:
    """Filter fused into a scalar reduction (the form tiling operates on)."""
    n = b.size_sym("n")
    shipdate = b.array_sym("shipdate", 1)
    discount = b.array_sym("discount", 1)
    quantity = b.array_sym("quantity", 1)
    price = b.array_sym("extendedprice", 1)

    def step(i, acc):
        contribution = b.mul(b.apply_array(price, i), b.apply_array(discount, i))
        return b.add(acc, Select(_predicate(shipdate, discount, quantity, i), contribution, b.flt(0.0)))

    body = b.fold(b.domain(n), b.flt(0.0), step)
    return Program(
        name="tpchq6",
        inputs=[shipdate, discount, quantity, price],
        sizes=[n],
        body=body,
        output_names=["revenue"],
    )


def build_tpchq6_flatmap() -> Program:
    """Un-fused variant: an explicit FlatMap filter followed by a sum."""
    n = b.size_sym("n")
    shipdate = b.array_sym("shipdate", 1)
    discount = b.array_sym("discount", 1)
    quantity = b.array_sym("quantity", 1)
    price = b.array_sym("extendedprice", 1)

    filtered = b.flat_map(
        b.domain(n),
        lambda i: Select(
            _predicate(shipdate, discount, quantity, i),
            ArrayLit((b.mul(b.apply_array(price, i), b.apply_array(discount, i)),)),
            EmptyArray(),
        ),
    )

    matches = b.sym("matches", filtered.ty)
    total = b.fold(
        b.domain(b.dim(matches, 0)),
        b.flt(0.0),
        lambda i, acc: b.add(acc, b.apply_array(matches, i)),
    )
    from repro.ppl.ir import Let

    body = Let(matches, filtered, total)
    return Program(
        name="tpchq6_flatmap",
        inputs=[shipdate, discount, quantity, price],
        sizes=[n],
        body=body,
        output_names=["revenue"],
    )


def _generate(sizes: Mapping[str, int], rng: np.random.Generator) -> Dict[str, np.ndarray]:
    n = sizes["n"]
    return {
        "shipdate": rng.uniform(8400, 9500, size=n),
        "discount": rng.uniform(0.0, 0.1, size=n).round(2),
        "quantity": rng.uniform(1, 50, size=n).round(0),
        "extendedprice": rng.uniform(100.0, 10000.0, size=n),
    }


def _reference(bindings: Mapping[str, object]) -> float:
    shipdate = np.asarray(bindings["shipdate"])
    discount = np.asarray(bindings["discount"])
    quantity = np.asarray(bindings["quantity"])
    price = np.asarray(bindings["extendedprice"])
    mask = (
        (shipdate >= _DATE_LO)
        & (shipdate < _DATE_HI)
        & (discount >= _DISCOUNT_LO)
        & (discount <= _DISCOUNT_HI)
        & (quantity < _QUANTITY_LIMIT)
    )
    return float(np.sum(price[mask] * discount[mask]))


TPCHQ6 = register(
    Benchmark(
        name="tpchq6",
        description="TPC-H Query 6 filter + reduction",
        collection_ops=("filter", "reduce"),
        build=build_tpchq6,
        generate_inputs=_generate,
        input_dims={
            name: ("n",) for name in ("shipdate", "discount", "quantity", "extendedprice")
        },
        reference=_reference,
        default_sizes={"n": 4 * 1024 * 1024},
        test_sizes={"n": 64},
        tile_sizes={"n": 4096},
        par_factors={"inner": 16},
        notes="Streaming benchmark: single pass over the input, no reuse.",
    )
)
