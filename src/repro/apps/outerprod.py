"""Vector outer product (Table 5: ``outerprod``).

``out(i, j) = x(i) * y(j)`` — a single two-dimensional Map.  The benchmark is
memory bound at the stage writing its O(m·n) result back to DRAM, which is
why the paper reports essentially no benefit from tiling or metapipelining
(1.1× in Figure 7).
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.apps.base import Benchmark, register
from repro.ppl import builder as b
from repro.ppl.program import Program
from repro.ppl.types import INDEX

__all__ = ["build_outerprod", "OUTERPROD"]


def build_outerprod() -> Program:
    """``x.map{ xi => y.map{ yj => xi * yj } }`` lowered to a 2-D Map."""
    m = b.size_sym("m")
    n = b.size_sym("n")
    x = b.array_sym("x", 1)
    y = b.array_sym("y", 1)

    body = b.pmap(
        b.domain(m, n),
        lambda i, j: b.mul(b.apply_array(x, i), b.apply_array(y, j)),
    )
    return Program(
        name="outerprod",
        inputs=[x, y],
        sizes=[m, n],
        body=body,
        output_names=["outer"],
    )


def _generate(sizes: Mapping[str, int], rng: np.random.Generator) -> Dict[str, np.ndarray]:
    return {
        "x": rng.normal(size=sizes["m"]).astype(np.float64),
        "y": rng.normal(size=sizes["n"]).astype(np.float64),
    }


def _reference(bindings: Mapping[str, object]) -> np.ndarray:
    return np.outer(bindings["x"], bindings["y"])


OUTERPROD = register(
    Benchmark(
        name="outerprod",
        description="Vector outer product",
        collection_ops=("map",),
        build=build_outerprod,
        generate_inputs=_generate,
        input_dims={"x": ("m",), "y": ("n",)},
        reference=_reference,
        default_sizes={"m": 16384, "n": 16384},
        test_sizes={"m": 8, "n": 6},
        tile_sizes={"m": 256, "n": 256},
        par_factors={"inner": 16},
        notes="Memory bound on the DRAM store of the m x n result.",
    )
)
