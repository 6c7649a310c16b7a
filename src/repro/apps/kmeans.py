"""k-means clustering (Table 5: ``kmeans``) — the paper's running example.

One iteration of Lloyd's algorithm, following the fused PPL form of Figure 4:

1. For every point, find the index of the closest centroid (a fold over the
   centroids computing ``(minDistance, minIndex)``).
2. Reduce the point into the accumulator row of its closest centroid and
   increment that centroid's count.
3. Divide each centroid's coordinate sums by its count to obtain the new
   centroids.

The accumulator is a single ``k × (d+1)`` tensor whose first ``d`` columns
hold the coordinate sums and whose last column holds the point count, so the
closest-centroid computation is performed exactly once per point (the
location function of the MultiFold) and the row update needs no knowledge of
the selected centroid (it only sees its accumulator slice) — this mirrors the
``(location, value-function)`` pair semantics of the paper's MultiFold.

The paper walks through two tiling variants of this program:

* Figure 6 (the evaluated hardware): only the points are tiled; the centroids
  array is small enough to be preloaded on chip (Pipe 0).
* Figure 5 (the tiling walkthrough): both the points (``b0``) and centroids
  (``b1``) are tiled, and split + interchange turns the per-point
  ``minDistWithIndex`` value into a per-tile ``minDistWithInds`` vector.

Both variants are produced from this single program by choosing tile sizes in
the :class:`~repro.config.CompileConfig`.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.apps.base import Benchmark, register
from repro.ppl import builder as b
from repro.ppl.ir import Cmp, Lambda, MakeTuple, Select, TupleGet
from repro.ppl.program import Program
from repro.ppl.types import FLOAT32, INDEX, TensorType, TupleType

__all__ = ["build_kmeans", "KMEANS", "closest_centroid_fold"]


def closest_centroid_fold(points, centroids, point_index, k, d):
    """The ``(minDist, minIndex)`` fold over all centroids for one point.

    This is the fold the interchange pass pulls out of the per-point loop in
    the Figure 5 walkthrough.
    """
    pair_ty = TupleType((FLOAT32, INDEX))

    def step(j, acc):
        dist = b.fold(
            b.domain(d),
            b.flt(0.0),
            lambda p, dacc: b.add(
                dacc,
                b.square(b.sub(b.apply_array(points, point_index, p), b.apply_array(centroids, j, p))),
            ),
            index_names=["p"],
        )
        return b.let(
            "dist",
            dist,
            lambda dist_sym: Select(
                Cmp("<", TupleGet(acc, 0), dist_sym),
                acc,
                MakeTuple((dist_sym, j)),
            ),
        )

    def combiner():
        left = b.sym("a", pair_ty)
        right = b.sym("c", pair_ty)
        return Lambda(
            (left, right),
            Select(Cmp("<", TupleGet(left, 0), TupleGet(right, 0)), left, right),
        )

    return b.fold(
        b.domain(k),
        MakeTuple((b.MAX_FLOAT, b.idx(-1))),
        step,
        combine=combiner(),
        index_names=["j"],
    )


def build_kmeans() -> Program:
    """One iteration of k-means in fused PPL form (Figure 4)."""
    n = b.size_sym("n")
    k = b.size_sym("k")
    d = b.size_sym("d")
    points = b.array_sym("points", 2)
    centroids = b.array_sym("centroids", 2)

    sums_ty = TensorType(FLOAT32, 2)  # k x (d+1): sums in columns 0..d-1, count in column d
    # The accumulator slice consumed by the row update is a 1 x (d+1) region —
    # generated values must have the same arity as the full accumulator.
    acc_row_ty = TensorType(FLOAT32, 2)

    # Combine partial (sums | counts) accumulators element-wise.
    a = b.sym("a", sums_ty)
    c = b.sym("c", sums_ty)
    combine = Lambda(
        (a, c),
        b.pmap(
            b.domain(k, b.add(d, 1)),
            lambda r, s: b.add(b.apply_array(a, r, s), b.apply_array(c, r, s)),
        ),
    )

    def location(i):
        closest = closest_centroid_fold(points, centroids, i, k, d)
        return MakeTuple((TupleGet(closest, 1), b.idx(0)))

    def row_update(i, acc_row):
        # acc_row is the selected centroid's 1 x (d+1) accumulator slice; add
        # the point's coordinates to columns 0..d-1 and 1 to the count column.
        return b.pmap(
            b.domain(1, b.add(d, 1)),
            lambda r, s: Select(
                Cmp("<", s, d),
                b.add(b.apply_array(acc_row, r, s), b.apply_array(points, i, s)),
                b.add(b.apply_array(acc_row, r, s), b.flt(1.0)),
            ),
            index_names=["r", "s"],
        )

    sums_counts = b.multi_fold(
        b.domain(n),
        rshape=(k, b.add(d, 1)),
        init=b.zeros((k, b.add(d, 1))),
        index_builder=location,
        value_builder=row_update,
        combine=combine,
        acc_ty=acc_row_ty,
        index_names=["i"],
    )

    # Average the assigned points to compute the new centroids.
    def average(sums_counts_sym):
        return b.pmap(
            b.domain(k, d),
            lambda r, s: b.div(
                b.apply_array(sums_counts_sym, r, s),
                b.apply_array(sums_counts_sym, r, d),
            ),
            index_names=["c", "j"],
        )

    body = b.let("sumsCounts", sums_counts, average)
    return Program(
        name="kmeans",
        inputs=[points, centroids],
        sizes=[n, k, d],
        body=body,
        output_names=["newCentroids"],
    )


def _generate(sizes: Mapping[str, int], rng: np.random.Generator) -> Dict[str, np.ndarray]:
    n, k, d = sizes["n"], sizes["k"], sizes["d"]
    # Well-separated centroids with points jittered around them so that every
    # centroid is the closest one for at least one point (no empty clusters).
    centroids = rng.normal(size=(k, d)) * 0.25 + 10.0 * np.arange(k)[:, None]
    assignment = np.arange(n) % k
    points = centroids[assignment] + rng.normal(scale=0.1, size=(n, d))
    return {"points": points, "centroids": centroids}


def _reference(bindings: Mapping[str, object]) -> np.ndarray:
    points = np.asarray(bindings["points"])
    centroids = np.asarray(bindings["centroids"])
    distances = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    closest = distances.argmin(axis=1)
    k, d = centroids.shape
    sums = np.zeros((k, d))
    counts = np.zeros(k)
    for idx in range(points.shape[0]):
        sums[closest[idx]] += points[idx]
        counts[closest[idx]] += 1
    return sums / counts[:, None]


KMEANS = register(
    Benchmark(
        name="kmeans",
        description="k-means clustering (one Lloyd iteration)",
        collection_ops=("map", "groupBy", "reduce"),
        build=build_kmeans,
        generate_inputs=_generate,
        input_dims={"points": ("n", "d"), "centroids": ("k", "d")},
        reference=_reference,
        default_sizes={"n": 131072, "k": 32, "d": 32},
        test_sizes={"n": 12, "k": 3, "d": 4},
        tile_sizes={"n": 256},
        par_factors={"inner": 16},
        notes="Figure 4/5/6 running example; centroids preloaded on chip when tiling.",
    )
)
