"""Pinned priced numbers: every value the closed-form cost model produces,
hashed exactly.

Golden Figure 7 pins only the total cycles of its configurations, and the
batched-vs-scalar tests compare the batched path with the scalar one.
These two digests pin the numbers themselves — every float through
``float.hex`` — so any change to the cycle walk, the area sum, the leaf
closed forms or the ``PointResult`` assembly shows up here, whichever
path computed it.  The point results are pinned with the analysis cache
off and on (computed, then served), against the one digest.
"""

import hashlib
from dataclasses import fields

from repro.apps import all_benchmarks
from repro.dse.batch import evaluate_point_batch
from repro.dse.cache import ANALYSIS_CACHE
from repro.dse.results import PointResult
from repro.dse.space import default_space
from repro.evaluation.figure7 import run_benchmark
from repro.schedule.analytical import AnalyticalScheduleBackend

VARIANTS = ("default", "rewrite", "rewrite-profiled")

#: blake2b of every PointResult field of the six apps' default spaces at
#: test sizes, under each variant (264 points).
POINT_RESULTS_DIGEST = "ace3c6a75b8201391d9c4235cf060193"
#: blake2b of the analytical backend's cycle accounting on each app's
#: three Figure 7 configurations at test sizes.
FIGURE7_CYCLES_DIGEST = "456c055d557ba1e342a6b09ff229ed34"


def _exact(value) -> str:
    """A canonical text form that distinguishes every distinct value."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return "{" + ",".join(f"{k!r}:{_exact(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, list):
        return "[" + ",".join(_exact(v) for v in value) + "]"
    return repr(value)


def _digest(lines) -> str:
    return hashlib.blake2b("\n".join(lines).encode(), digest_size=16).hexdigest()


def _point_result_lines(evaluate):
    lines = []
    for bench in all_benchmarks():
        program = bench.build()
        workload = bench.workload(bench.test_sizes)
        dims = {name: bench.test_sizes[name] for name in bench.tile_sizes}
        for variant in VARIANTS:
            points = list(default_space(dims, pipelines=(variant,)))
            for result in evaluate(program, workload, points):
                lines.append(
                    bench.name
                    + "|"
                    + "|".join(_exact(getattr(result, f.name)) for f in fields(PointResult))
                )
    assert len(lines) == 264
    return lines


def test_point_results_are_pinned():
    def evaluate(program, workload, points):
        with ANALYSIS_CACHE.disabled():
            return evaluate_point_batch(program, workload, points)

    assert _digest(_point_result_lines(evaluate)) == POINT_RESULTS_DIGEST


def test_point_results_are_pinned_through_the_cache():
    """The same digest with the analysis cache on: the pass memo, symbolic
    tiling, the module-area memo and the point-results table all serve."""
    ANALYSIS_CACHE.clear()
    try:
        first = _point_result_lines(evaluate_point_batch)
        served = _point_result_lines(evaluate_point_batch)
    finally:
        ANALYSIS_CACHE.clear()
    assert _digest(first) == _digest(served) == POINT_RESULTS_DIGEST


def test_figure7_cycle_accounting_is_pinned():
    lines = []
    for bench in all_benchmarks():
        result = run_benchmark(bench.name, sizes=bench.test_sizes)
        for row in (result.baseline, result.tiling, result.metapipelining):
            sim = AnalyticalScheduleBackend().run(row.compilation.schedule)
            lines.append(
                "|".join(
                    (
                        bench.name,
                        row.label,
                        _exact(sim.cycles),
                        _exact(sim.compute_cycles),
                        _exact(sim.memory_cycles),
                        # Node names carry process-global counters; the
                        # values are what the walk priced.
                        _exact(sorted(sim.per_module_cycles.values())),
                    )
                )
            )
    assert len(lines) == 18
    assert _digest(lines) == FIGURE7_CYCLES_DIGEST
