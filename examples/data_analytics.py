"""Domain example: compile and compare the data-analytics kernels (gemm, gda, tpchq6).

Shows the intermediate IR produced by each stage of the tiling flow and the
hardware templates selected for each benchmark — the complete Figure 1 flow
on three workloads from the paper's motivation.

Run with:  python examples/data_analytics.py
"""

from __future__ import annotations

import numpy as np

from repro.apps import get_benchmark
from repro.config import BASELINE, CompileConfig
from repro.pipeline import Session
from repro.ppl.interp import run_program
from repro.ppl.printer import pretty
from repro.sim.metrics import speedup

SIZES = {
    "gemm": {"m": 512, "n": 512, "p": 512},
    "gda": {"n": 16384, "d": 32},
    "tpchq6": {"n": 1 << 20},
}

# One session for the whole tour: the three benchmarks share its caches and
# its per-pass instrumentation accumulates across them.
SESSION = Session()


def show_benchmark(name: str) -> None:
    bench = get_benchmark(name)
    program = bench.build()
    sizes = SIZES[name]
    workload = bench.workload(sizes)  # compiling reads shapes, not data
    config = CompileConfig(
        tiling=True, metapipelining=True, tile_sizes=dict(bench.tile_sizes)
    )

    print("=" * 72)
    print(f"{name}: {bench.description}  (collection ops: {', '.join(bench.collection_ops)})")
    print("=" * 72)

    baseline = SESSION.compile(program, BASELINE, workload)
    optimised = SESSION.compile(program, config, workload)
    tiling = optimised.tiling
    print("\n-- strip-mined IR (excerpt) --")
    print(pretty(tiling.strip_mined.body)[:600])
    if tiling.applied_interchanges:
        print(f"\ninterchange rules applied: {tiling.applied_interchanges}")

    base_sim, opt_sim = SESSION.simulate(baseline), SESSION.simulate(optimised)

    print("\n-- hardware templates (optimised design) --")
    for kind, count in optimised.design.template_inventory().items():
        print(f"   {kind:<18} x{count}")
    print(
        f"\nspeedup over baseline: {speedup(base_sim, opt_sim):.1f}x   "
        f"(baseline {base_sim.milliseconds:.2f} ms -> optimised {opt_sim.milliseconds:.2f} ms)"
    )

    # Functional check on a small instance.
    small = bench.bindings(rng=np.random.default_rng(1))
    np.testing.assert_allclose(
        np.asarray(run_program(optimised.tiled_program, small), dtype=float),
        np.asarray(bench.reference(small), dtype=float),
        rtol=1e-9,
    )
    print("functional check against numpy reference: OK\n")


def main() -> None:
    for name in ("gemm", "gda", "tpchq6"):
        show_benchmark(name)
    print("=" * 72)
    print(SESSION.pass_summary())


if __name__ == "__main__":
    main()
