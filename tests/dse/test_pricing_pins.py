"""Pinned priced numbers: every value the closed-form cost model and the
event model produce, hashed exactly.

Golden Figure 7 pins only the total cycles of its configurations, and the
batched-vs-scalar tests compare the batched path with the scalar one.
These digests pin the numbers themselves — every float through
``float.hex`` — so any change to the cycle walk, the event timeline, the
area sum, the leaf closed forms or the ``PointResult`` assembly shows up
here, whichever path computed it.  The point results are pinned with the
analysis cache off and on (computed, then served), against one digest
per cycle model.
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
from repro.schedule.event import INTERLEAVING_POLICIES, EventScheduleBackend
from repro.sim.model import PerformanceModel

VARIANTS = ("default", "rewrite", "rewrite-profiled")

#: blake2b of every PointResult field of the six apps' default spaces at
#: test sizes, under each variant (264 points).
POINT_RESULTS_DIGEST = "ace3c6a75b8201391d9c4235cf060193"
#: blake2b of the analytical backend's cycle accounting on each app's
#: three Figure 7 configurations at test sizes.
FIGURE7_CYCLES_DIGEST = "456c055d557ba1e342a6b09ff229ed34"
#: blake2b of every PointResult field of the same spaces under the event
#: cycle model, each point at one and at two DRAM channels (528 points).
EVENT_POINT_RESULTS_DIGEST = "7b4c593af0983860509a3387077f7ac3"
#: blake2b of the event backend's accounting and stage profiles on each
#: app's three Figure 7 configurations at test sizes, under one and three
#: DRAM channels and both interleavings.
EVENT_FIGURE7_DIGEST = "59440c033fae83712870bd20cba0ec56"

#: The event models the Figure 7 accounting is pinned under.
EVENT_MODELS = tuple(
    PerformanceModel(dram_channels=channels, dram_interleaving=interleaving)
    for channels in (1, 3)
    for interleaving in INTERLEAVING_POLICIES
)


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


def _point_result_lines(evaluate, channels=(1,)):
    lines = []
    for bench in all_benchmarks():
        program = bench.build()
        workload = bench.workload(bench.test_sizes)
        dims = {name: bench.test_sizes[name] for name in bench.tile_sizes}
        for variant in VARIANTS:
            points = list(default_space(dims, pipelines=(variant,), channels=channels))
            for result in evaluate(program, workload, points):
                lines.append(
                    bench.name
                    + "|"
                    + "|".join(_exact(getattr(result, f.name)) for f in fields(PointResult))
                )
    assert len(lines) == 264 * len(channels)
    return lines


def _event_point_result_lines(evaluate):
    def event(program, workload, points):
        return evaluate(program, workload, points, cycle_model="event")

    return _point_result_lines(event, channels=(1, 2))


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


def test_event_point_results_are_pinned():
    def evaluate(program, workload, points, cycle_model):
        with ANALYSIS_CACHE.disabled():
            return evaluate_point_batch(program, workload, points, cycle_model=cycle_model)

    assert _digest(_event_point_result_lines(evaluate)) == EVENT_POINT_RESULTS_DIGEST


def test_event_point_results_are_pinned_through_the_cache():
    ANALYSIS_CACHE.clear()
    try:
        first = _event_point_result_lines(evaluate_point_batch)
        served = _event_point_result_lines(evaluate_point_batch)
    finally:
        ANALYSIS_CACHE.clear()
    assert _digest(first) == _digest(served) == EVENT_POINT_RESULTS_DIGEST


def test_figure7_event_accounting_is_pinned():
    lines = []
    for bench in all_benchmarks():
        result = run_benchmark(bench.name, sizes=bench.test_sizes)
        for row in (result.baseline, result.tiling, result.metapipelining):
            schedule = row.compilation.schedule
            for model in EVENT_MODELS:
                backend = EventScheduleBackend(model, profile=True)
                sim = backend.run(schedule)
                # Profiles in pre-order of their groups; stage names carry
                # process-global counters, so only the count is pinned.
                profiles = [
                    backend.stage_profiles[id(node)]
                    for node in schedule.walk()
                    if id(node) in backend.stage_profiles
                ]
                lines.append(
                    "|".join(
                        (
                            bench.name,
                            row.label,
                            str(model.dram_channels),
                            model.dram_interleaving,
                            _exact(sim.cycles),
                            _exact(sim.compute_cycles),
                            _exact(sim.memory_cycles),
                            _exact(sim.stall_cycles),
                            _exact(sim.contention_cycles),
                            _exact(sorted(sim.per_module_cycles.values())),
                            _exact(
                                [
                                    [
                                        len(p.stage_names),
                                        p.durations,
                                        p.stalls,
                                        p.waits,
                                        p.iterations,
                                    ]
                                    for p in profiles
                                ]
                            ),
                        )
                    )
                )
    assert len(lines) == 72
    assert _digest(lines) == EVENT_FIGURE7_DIGEST
