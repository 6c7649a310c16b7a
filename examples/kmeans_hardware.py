"""k-means walkthrough: Figure 4 (fused IR) → Figure 5 (tiling) → Figure 6 (hardware).

Run with:  python examples/kmeans_hardware.py
"""

from __future__ import annotations

import numpy as np

from repro.apps import get_benchmark
from repro.codegen import design_report, generate_maxj
from repro.config import CompileConfig
from repro.evaluation.figure5c import run_figure5c
from repro.pipeline import Session
from repro.ppl.interp import run_program
from repro.ppl.printer import pretty_program


def main() -> None:
    bench = get_benchmark("kmeans")
    program = bench.build()

    print("=== k-means in fused PPL form (Figure 4) ===")
    print(pretty_program(program)[:1500], "\n  ...\n")

    # The Figure 5 walkthrough: tile points (b0) and centroids (b1), then
    # check the main-memory traffic table (Figure 5c).
    print("=== Figure 5c: memory traffic per IR form ===")
    report = run_figure5c()
    print(report.table())
    print("matches the paper's formulas:", report.all_match)

    # The evaluated hardware (Figure 6): tile the points, preload the
    # centroids, and schedule the body as a metapipeline.  All compiles go
    # through one session, which owns the board, pipeline and caches.
    session = Session()
    sizes = {"n": 32768, "k": 32, "d": 32}
    workload = bench.workload(sizes)  # compiling reads shapes, not data
    config = CompileConfig(
        tiling=True, metapipelining=True, tile_sizes=dict(bench.tile_sizes)
    )
    result = session.compile(program, config, workload)

    print("\n=== hardware design (Figure 6) ===")
    print(design_report(result.design))

    print("\n=== generated MaxJ-like HGL (excerpt, with pass provenance) ===")
    print("\n".join(generate_maxj(result).splitlines()[:40]))

    # The tiled program still computes the right answer.
    small = bench.bindings({"n": 64, "k": 4, "d": 5}, np.random.default_rng(2))
    np.testing.assert_allclose(
        run_program(result.tiled_program, small), bench.reference(small), rtol=1e-9
    )
    print("\ntiled k-means matches the numpy reference on a functional check")

    sim = result.simulate()
    print(f"\nsimulated: {sim.cycles:,.0f} cycles = {sim.milliseconds:.2f} ms ({sim.bound}-bound)")


if __name__ == "__main__":
    main()
