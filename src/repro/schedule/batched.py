"""Pricing entry points of the batched DSE path.

:func:`repro.dse.batch.evaluate_point_batch` prices each prefix group
with one :func:`batched_cycles` call over every point's schedule, each
under the point's own model, and one :func:`batched_area` call over each
design's lowered schedule, once per design: a point whose schedule steps
all end in ``verify_rewrite`` has its design's module inventory, so it
shares that report, and only a point with a non-stock step brings its own
schedule.  Both are loops over the one scalar cost model — the analytical
backend's walk or an event run, and the template area sum — so a batched
result equals the scalar path's by construction.  Event runs go through
the caller's :class:`~repro.schedule.rewrite.ProfileMemo`, so a tree the
memo has run under the same model — a tuned schedule's winning candidate,
or a lowered schedule a tuning profiled — is priced from that run.
Profiling chose the loops: a DSE batch holds only 4–8 schedules of any
one tree shape, too few for a stacked array pass to beat the scalar walk.
The two names stay a layer of their own because the repository
benchmark's tracer (``perfbench/tracer.py``) patches them to time batched
pricing and count its schedules.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.area import AreaReport, estimate_area_of_schedule
from repro.schedule.compare import get_backend
from repro.schedule.ir import Schedule
from repro.schedule.rewrite import ProfileMemo
from repro.sim.metrics import SimulationResult
from repro.sim.model import PerformanceModel

__all__ = ["batched_area", "batched_cycles"]


def batched_cycles(
    schedules: Sequence[Schedule],
    models: Sequence[Optional[PerformanceModel]],
    cycle_model: str,
    memo: ProfileMemo,
) -> List[SimulationResult]:
    """The ``cycle_model`` backend's result for each schedule, in order.

    ``models[i]`` times ``schedules[i]`` (None: the default model).  Under
    ``"event"`` each result is ``memo``'s run of the tree under its model.
    An unknown ``cycle_model`` raises
    :class:`~repro.errors.SimulationError`, as the scalar path does.
    """
    if cycle_model == "event":
        return [
            memo.simulate(schedule, model or PerformanceModel())
            for schedule, model in zip(schedules, models)
        ]
    backends: Dict[Optional[PerformanceModel], object] = {}
    results = []
    for schedule, model in zip(schedules, models):
        backend = backends.get(model)
        if backend is None:
            backend = backends[model] = get_backend(cycle_model, model)
        results.append(backend.run(schedule))
    return results


def batched_area(schedules: Sequence[Schedule]) -> List[AreaReport]:
    """The area report of each schedule, in order."""
    return [estimate_area_of_schedule(schedule) for schedule in schedules]
