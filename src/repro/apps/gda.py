"""Gaussian discriminant analysis (Table 5: ``gda``).

GDA models each class as a multivariate Gaussian with a shared covariance
matrix.  The hardware kernel computes the pooled scatter matrix

``sigma(a, b) = Σ_i (x(i,a) - mu_{y_i}(a)) · (x(i,b) - mu_{y_i}(b))``

over all training points.  In fused PPL form this is a two-dimensional Map
over the output matrix whose body is a scalar fold over the points — the
natural functional expression of "map / filter / reduce" from Table 5.

Untiled, this form re-reads the points matrix for every output element,
which is why the paper's gda baseline is heavily memory bound.  Tiling the
points dimension and interchanging the strided point-tile fold out of the
output Map (rule 1) lets one point tile be reused across the whole d × d
output, and the per-class means are small enough to live on chip — together
these produce the paper's largest speedups (13.4× tiling, 39.4× with
metapipelining, Figure 7).
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.apps.base import Benchmark, register
from repro.ppl import builder as b
from repro.ppl.ir import Cmp, Select
from repro.ppl.program import Program

__all__ = ["build_gda", "GDA"]


def build_gda() -> Program:
    """Scatter-matrix computation as a Map over outputs of a fold over points."""
    n = b.size_sym("n")
    d = b.size_sym("d")
    x = b.array_sym("x", 2)
    labels = b.array_sym("y", 1)
    mu0 = b.array_sym("mu0", 1)
    mu1 = b.array_sym("mu1", 1)

    def centered(i, j):
        mu_j = Select(
            Cmp("==", b.apply_array(labels, i), b.flt(0.0)),
            b.apply_array(mu0, j),
            b.apply_array(mu1, j),
        )
        return b.sub(b.apply_array(x, i, j), mu_j)

    def scatter(r, s):
        return b.fold(
            b.domain(n),
            b.flt(0.0),
            lambda i, acc: b.add(acc, b.mul(centered(i, r), centered(i, s))),
            index_names=["i"],
        )

    body = b.pmap(b.domain(d, d), scatter, index_names=["r", "s"])
    return Program(
        name="gda",
        inputs=[x, labels, mu0, mu1],
        sizes=[n, d],
        body=body,
        output_names=["sigma"],
    )


def _generate(sizes: Mapping[str, int], rng: np.random.Generator) -> Dict[str, np.ndarray]:
    n, d = sizes["n"], sizes["d"]
    labels = rng.integers(0, 2, size=n).astype(np.float64)
    mu0 = rng.normal(size=d)
    mu1 = rng.normal(size=d) + 2.0
    noise = rng.normal(scale=0.5, size=(n, d))
    x = np.where(labels[:, None] == 0.0, mu0, mu1) + noise
    return {"x": x, "y": labels, "mu0": mu0, "mu1": mu1}


def _reference(bindings: Mapping[str, object]) -> np.ndarray:
    x = np.asarray(bindings["x"])
    labels = np.asarray(bindings["y"])
    mu0 = np.asarray(bindings["mu0"])
    mu1 = np.asarray(bindings["mu1"])
    mu = np.where(labels[:, None] == 0.0, mu0, mu1)
    centered = x - mu
    return centered.T @ centered


GDA = register(
    Benchmark(
        name="gda",
        description="Gaussian discriminant analysis scatter-matrix computation",
        collection_ops=("map", "filter", "reduce"),
        build=build_gda,
        generate_inputs=_generate,
        input_dims={"x": ("n", "d"), "y": ("n",), "mu0": ("d",), "mu1": ("d",)},
        reference=_reference,
        default_sizes={"n": 65536, "d": 32},
        test_sizes={"n": 12, "d": 5},
        tile_sizes={"n": 256},
        par_factors={"inner": 16},
        notes="Per-class means fit on chip; nested, well balanced metapipeline.",
    )
)
