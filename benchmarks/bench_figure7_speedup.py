"""E1 — Figure 7 (top): speedup of the optimised designs over the baseline.

Regenerates the speedup bars of Figure 7 for all six benchmarks and prints
them next to the paper's reported values.  The benchmark timing measures the
full compile → generate → simulate pipeline per benchmark.

:func:`test_gap_to_the_paper_stays_within_bounds` records how far the
reproduction is from the paper, at the apps' default sizes under the
analytical model, in ``BENCH_figure7.json``: each of the 12 cells' ratio
to ``PAPER_FIGURE7`` and, per configuration, the gap factor
exp(mean |ln(ours / paper)|) over the six apps.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

import pytest

from repro.evaluation.figure7 import PAPER_FIGURE7, run_benchmark, run_figure7

BENCHMARKS = ["outerprod", "sumrows", "gemm", "tpchq6", "gda", "kmeans"]

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_figure7.json"
SCHEMA_VERSION = 1

#: Upper bounds of the two gap factors, set at their measured values
#: (1.6603 and 2.2290).  A change that widens the gap on purpose moves the
#: bound and says so in CHANGES.md.
GAP_BOUNDS = {"tiling": 1.661, "tiling+metapipelining": 2.229}


@pytest.mark.parametrize("name", BENCHMARKS)
def test_figure7_speedup(benchmark, name, eval_sizes):
    result = benchmark(run_benchmark, name, sizes=eval_sizes[name])

    tiling = result.speedup_tiling
    meta = result.speedup_metapipelining
    paper = PAPER_FIGURE7[name]
    print(
        f"\n[Figure 7 / speedup] {name}: +tiling {tiling:.1f}x (paper {paper['tiling']:.1f}x), "
        f"+tiling+metapipelining {meta:.1f}x (paper {paper['tiling+metapipelining']:.1f}x)"
    )

    # Qualitative shape checks from the paper's discussion (Section 6.2).
    if name in ("outerprod", "tpchq6"):
        # Streaming / store-bound benchmarks gain little from the optimisations.
        assert meta < 3.0
    if name in ("gda", "kmeans"):
        # Working sets fit on chip: dramatic speedups.
        assert tiling > 5.0
    if name in ("gemm",):
        assert tiling > 1.5
    # Metapipelining never hurts.
    assert meta >= tiling * 0.95


def test_gap_to_the_paper_stays_within_bounds():
    report = run_figure7()
    assert sorted(result.name for result in report.results) == sorted(PAPER_FIGURE7)
    ratios = {
        result.name: {
            config: result.speedups()[config] / PAPER_FIGURE7[result.name][config]
            for config in GAP_BOUNDS
        }
        for result in report.results
    }
    factors = {
        config: math.exp(
            statistics.fmean(abs(math.log(cells[config])) for cells in ratios.values())
        )
        for config in GAP_BOUNDS
    }
    record = {
        "schema_version": SCHEMA_VERSION,
        "sizes": "default",
        "cycle_model": "analytical",
        "ratios": {
            name: {config: round(ratio, 4) for config, ratio in cells.items()}
            for name, cells in ratios.items()
        },
        "gap_factors": {config: round(factor, 4) for config, factor in factors.items()},
        "bounds": GAP_BOUNDS,
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\n[Figure 7 / gap] factors {record['gap_factors']} (bounds {GAP_BOUNDS})")
    for config, bound in GAP_BOUNDS.items():
        assert factors[config] <= bound, (
            f"the {config} gap to the paper's Figure 7 widened to "
            f"{factors[config]:.4f} (bound {bound})"
        )
