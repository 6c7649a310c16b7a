"""Matrix row summation (Table 5: ``sumrows``).

``out(i) = Σ_j x(i, j)`` — the MultiFold of Table 2 ("Sums along matrix
rows"): the value function reduces each element into row ``i`` of the
accumulator, and the combine function adds two partial row-sum vectors
element-wise.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.apps.base import Benchmark, register
from repro.ppl import builder as b
from repro.ppl.ir import BinOp, Lambda
from repro.ppl.program import Program
from repro.ppl.types import FLOAT32, INDEX, TensorType

__all__ = ["build_sumrows", "SUMROWS"]


def build_sumrows() -> Program:
    """``x.map{ row => row.fold(0){ (a,b) => a + b } }`` in fused MultiFold form."""
    m = b.size_sym("m")
    n = b.size_sym("n")
    x = b.array_sym("x", 2)

    acc_vec_ty = TensorType(FLOAT32, 1)
    a = b.sym("a", acc_vec_ty)
    c = b.sym("c", acc_vec_ty)
    combine = Lambda(
        (a, c),
        b.pmap(b.domain(m), lambda i: b.add(b.apply_array(a, i), b.apply_array(c, i))),
    )

    body = b.multi_fold(
        b.domain(m, n),
        rshape=(m,),
        init=b.zeros((m,)),
        index_builder=lambda i, j: i,
        value_builder=lambda i, j, acc: b.add(acc, b.apply_array(x, i, j)),
        combine=combine,
        acc_ty=FLOAT32,
    )
    return Program(
        name="sumrows",
        inputs=[x],
        sizes=[m, n],
        body=body,
        output_names=["rowsums"],
    )


def _generate(sizes: Mapping[str, int], rng: np.random.Generator) -> Dict[str, np.ndarray]:
    return {"x": rng.normal(size=(sizes["m"], sizes["n"])).astype(np.float64)}


def _reference(bindings: Mapping[str, object]) -> np.ndarray:
    return np.asarray(bindings["x"]).sum(axis=1)


SUMROWS = register(
    Benchmark(
        name="sumrows",
        description="Matrix summation through rows",
        collection_ops=("map", "reduce"),
        build=build_sumrows,
        generate_inputs=_generate,
        input_dims={"x": ("m", "n")},
        reference=_reference,
        default_sizes={"m": 65536, "n": 256},
        test_sizes={"m": 6, "n": 8},
        tile_sizes={"m": 256, "n": 256},
        par_factors={"inner": 16},
        notes="Benefits from inherent locality in row-major accesses.",
    )
)
