"""Dense matrix multiplication (Table 5: ``gemm``).

``out(i, j) = Σ_k x(i, k) * y(k, j)`` — a two-dimensional Map whose body is a
scalar fold, the running example of Table 3.  Strip mining tiles all three
dimensions and pattern interchange moves the tile loop over ``p`` out of the
``(b0, b1)`` output-tile Map so the ``y`` tile is reused across the whole
output tile.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.apps.base import Benchmark, register
from repro.ppl import builder as b
from repro.ppl.program import Program
from repro.ppl.types import INDEX

__all__ = ["build_gemm", "GEMM"]


def build_gemm() -> Program:
    """``x.map{ row => y.map{ col => row.zip(col).map(*).sum } }`` in PPL form."""
    m = b.size_sym("m")
    n = b.size_sym("n")
    p = b.size_sym("p")
    x = b.array_sym("x", 2)
    y = b.array_sym("y", 2)

    def dot(i, j):
        return b.fold(
            b.domain(p),
            b.flt(0.0),
            lambda k, acc: b.add(acc, b.mul(b.apply_array(x, i, k), b.apply_array(y, k, j))),
            index_names=["k"],
        )

    body = b.pmap(b.domain(m, n), dot)
    return Program(
        name="gemm",
        inputs=[x, y],
        sizes=[m, n, p],
        body=body,
        output_names=["product"],
    )


def _generate(sizes: Mapping[str, int], rng: np.random.Generator) -> Dict[str, np.ndarray]:
    return {
        "x": rng.normal(size=(sizes["m"], sizes["p"])).astype(np.float64),
        "y": rng.normal(size=(sizes["p"], sizes["n"])).astype(np.float64),
    }


def _reference(bindings: Mapping[str, object]) -> np.ndarray:
    return np.asarray(bindings["x"]) @ np.asarray(bindings["y"])


GEMM = register(
    Benchmark(
        name="gemm",
        description="Matrix multiplication",
        collection_ops=("map", "reduce"),
        build=build_gemm,
        generate_inputs=_generate,
        input_dims={"x": ("m", "p"), "y": ("p", "n")},
        reference=_reference,
        default_sizes={"m": 1024, "n": 1024, "p": 1024},
        test_sizes={"m": 4, "n": 6, "p": 8},
        tile_sizes={"m": 64, "n": 64, "p": 256},
        par_factors={"inner": 64},
        notes="Table 3's interchange example; reuse of the y tile across output tiles.",
    )
)
