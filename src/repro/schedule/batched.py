"""Pricing entry points of the batched DSE path.

:func:`repro.dse.batch.evaluate_point_batch` prices each prefix group
with one :func:`batched_cycles` call over every point's schedule and one
:func:`batched_area` call over each design's lowered schedule, once per
design: a point whose schedule steps all end in ``verify_rewrite`` has its
design's module inventory, so it shares that report, and only a point
with a non-stock step brings its own schedule.  Both are loops over the
one scalar cost model — the analytical backend's walk and the template
area sum — so a batched result equals the scalar path's by construction.
Profiling chose the loops: a DSE batch holds only 4–8 schedules of any
one tree shape, too few for a stacked array pass to beat the scalar walk.
The two names stay a layer of their own because the repository
benchmark's tracer (``perfbench/tracer.py``) patches them to time batched
pricing and count its schedules.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.area import AreaReport, estimate_area_of_schedule
from repro.schedule.analytical import AnalyticalScheduleBackend
from repro.schedule.ir import Schedule
from repro.sim.metrics import SimulationResult
from repro.sim.model import PerformanceModel

__all__ = ["batched_area", "batched_cycles"]


def batched_cycles(
    schedules: Sequence[Schedule], model: Optional[PerformanceModel] = None
) -> List[SimulationResult]:
    """The analytical backend's result for each schedule, in order."""
    backend = AnalyticalScheduleBackend(model)
    return [backend.run(schedule) for schedule in schedules]


def batched_area(schedules: Sequence[Schedule]) -> List[AreaReport]:
    """The area report of each schedule, in order."""
    return [estimate_area_of_schedule(schedule) for schedule in schedules]
