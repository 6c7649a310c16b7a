"""Quickstart: write a parallel-pattern program, compile it through a session,
inspect the pass pipeline, simulate the hardware.

Run with:  python examples/quickstart.py

The compiler's entry point is the instrumented session object
(``repro.pipeline.Session``) — see the "Architecture" section of the README
for the compilation flow, including the Schedule layer every backend
(cycle simulation, area, codegen) consumes.
"""

from __future__ import annotations

import numpy as np

from repro.config import BASELINE, CompileConfig
from repro.pipeline import Session
from repro.ppl import builder as b
from repro.ppl.interp import run_program
from repro.ppl.printer import pretty_program
from repro.ppl.program import Program
from repro.sim.metrics import speedup


def build_dot_product() -> Program:
    """A simple program: dot(x, y) = sum_i x(i) * y(i)."""
    n = b.size_sym("n")
    x = b.array_sym("x", 1)
    y = b.array_sym("y", 1)
    body = b.fold(
        b.domain(n),
        b.flt(0.0),
        lambda i, acc: b.add(acc, b.mul(b.apply_array(x, i), b.apply_array(y, i))),
    )
    return Program("dot", inputs=[x, y], sizes=[n], body=body)


def main() -> None:
    program = build_dot_product()
    print("=== PPL program ===")
    print(pretty_program(program))

    # 1. Run it functionally with the reference interpreter.
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=1 << 16), rng.normal(size=1 << 16)
    bindings = {"x": x, "y": y, "n": 1 << 16}
    result = run_program(program, bindings)
    print(f"\ninterpreter result = {result:.4f}   numpy = {float(x @ y):.4f}")

    # 2. One session owns the board, the pass pipeline and the caches;
    #    every compilation goes through it.
    session = Session()
    tiled_config = CompileConfig(tiling=True, tile_sizes={"n": 4096})
    meta_config = CompileConfig(tiling=True, metapipelining=True, tile_sizes={"n": 4096})

    baseline = session.compile(program, BASELINE, bindings)
    tiled = session.compile(program, tiled_config, bindings)
    meta = session.compile(program, meta_config, bindings)

    base_sim = session.simulate(baseline)
    print("\n=== simulated designs ===")
    for compilation in (baseline, tiled, meta):
        sim = session.simulate(compilation)
        print(
            f"{compilation.config.label:<24} {sim.cycles:>12,.0f} cycles "
            f"({sim.milliseconds:8.3f} ms, {sim.bound}-bound, "
            f"speedup {speedup(base_sim, sim):.2f}x)"
        )

    # 3. The session instruments every pass: wall-clock, cache hits, IR size.
    print("\n=== pipeline report (last compile) ===")
    print(session.last_report.table())

    # 4. Each compile names its pass ordering: skip fusion, compare the outcome.
    no_fusion = session.compile(program, meta_config, bindings, pipeline="no-fusion")
    print(
        f"\nwithout fusion: {session.simulate(no_fusion).cycles:,.0f} cycles "
        f"(full pipeline: {session.simulate(meta).cycles:,.0f})"
    )

    print("\n=== tiled IR ===")
    print(pretty_program(tiled.tiled_program))


if __name__ == "__main__":
    main()
