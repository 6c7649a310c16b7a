"""Cycle simulation of hardware designs, via the Schedule IR.

:func:`simulate` is the one entry point.  It lowers a design to its
explicit metapipeline :class:`~repro.schedule.ir.Schedule`
(:func:`repro.schedule.build_schedule`), unless it is handed a schedule
already, and times it with one of two backends
(:func:`repro.schedule.compare.get_backend`):

* ``cycle_model="analytical"`` — the closed-form cost model
  (:class:`~repro.schedule.analytical.AnalyticalScheduleBackend`): the
  seed's performance model, bit-for-bit, used by the DSE inner loop;
* ``cycle_model="event"`` — the event-driven simulator
  (:class:`~repro.schedule.event.EventScheduleBackend`): models stage
  overlap, double-buffer stalls and DRAM-channel contention on an explicit
  timeline.

Because both backends read the same Schedule object that the area model
inventories and the MaxJ emitter renders, the structure being timed is the
structure being emitted.  See :mod:`repro.schedule.compare` for the
analytical-vs-event discrepancy report used to calibrate the model knobs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from repro.hw.design import HardwareDesign
from repro.sim.metrics import SimulationResult
from repro.sim.model import PerformanceModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schedule.ir import Schedule

__all__ = ["simulate"]


def simulate(
    design: Union[HardwareDesign, "Schedule"],
    model: Optional[PerformanceModel] = None,
    cycle_model: str = "analytical",
) -> SimulationResult:
    """Simulate a design and return its cycle count and derived metrics."""
    # Imported here (not at module level) to keep repro.sim importable
    # from inside the schedule backends' own imports.
    from repro.schedule.compare import get_backend
    from repro.schedule.ir import Schedule
    from repro.schedule.lower import build_schedule

    backend = get_backend(cycle_model, model)
    schedule = design if isinstance(design, Schedule) else build_schedule(design)
    return backend.run(schedule)
