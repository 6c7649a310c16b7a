"""repro.schedule — the explicit metapipeline Schedule IR.

The paper's central claim (Sections 5–6) is that tiled parallel patterns
map to *metapipelined* hardware: hierarchies of double-buffered stages
whose cycle counts compose.  This package makes that schedule an explicit,
analyzable artifact instead of an implicit property of the hardware design
graph:

* :mod:`repro.schedule.ir` — the Schedule IR: sequential / parallel /
  metapipeline stage groups, compute leaves with per-loop parallelism
  factors, memory-transfer leaves with burst sizes, and the double-buffer /
  memory inventory of the design;
* :mod:`repro.schedule.lower` — :func:`build_schedule`, the lowering from a
  :class:`~repro.hw.design.HardwareDesign` (run as the ``build-schedule``
  pipeline stage);
* :mod:`repro.schedule.analytical` — the closed-form cycle evaluator (the
  seed's performance model, bit-for-bit) expressed over the Schedule;
* :mod:`repro.schedule.event` — an event-driven cycle-level simulator over
  the same Schedule, modelling stage overlap, double-buffer backpressure
  stalls and DRAM-channel contention;
* :mod:`repro.schedule.compare` — analytical-vs-event discrepancy reports
  used to calibrate the analytical model's knobs;
* :mod:`repro.schedule.rewrite` — the schedule-level rewriter, which runs
  the rules of :mod:`repro.rewrite.schedule` (transfer coalescing, stage
  rebalancing, degenerate-group flattening), with a legality checker
  proving the memory inventory, module set and DRAM traffic are
  preserved; run as the ``rewrite-schedule`` pipeline stage of the
  ``rewrite`` pipeline variant.

Every downstream consumer — the simulator backends, the area model, the
traffic inventory and the MaxJ code generator — reads the same Schedule
object, so the structure that is timed is the structure that is emitted.
"""

from repro.schedule.ir import (
    ComputeNode,
    MemoryNode,
    MetapipelineSchedule,
    ParallelSchedule,
    Schedule,
    ScheduleNode,
    SequentialSchedule,
    StageGroup,
    StreamNode,
    TransferNode,
)
from repro.schedule.lower import build_schedule
from repro.schedule.analytical import AnalyticalScheduleBackend
from repro.schedule.event import EventScheduleBackend, StageProfile
from repro.schedule.compare import (
    CYCLE_MODELS,
    DEFAULT_TOLERANCE,
    UNCALIBRATED_TOLERANCE,
    CycleDiscrepancy,
    compare_backends,
    discrepancy_table,
    get_backend,
)
from repro.schedule.calibrate import (
    CALIBRATED_KNOBS,
    CalibrationResult,
    calibrate_benchmark,
    calibrate_model,
)
from repro.schedule.rewrite import (
    BALANCE_FACTOR_CANDIDATES,
    RewriteResult,
    ScheduleRewriter,
    rewrite_schedule,
    tune_balance_factor,
    verify_rewrite,
)

__all__ = [
    "AnalyticalScheduleBackend",
    "BALANCE_FACTOR_CANDIDATES",
    "CALIBRATED_KNOBS",
    "CYCLE_MODELS",
    "CalibrationResult",
    "ComputeNode",
    "CycleDiscrepancy",
    "DEFAULT_TOLERANCE",
    "EventScheduleBackend",
    "discrepancy_table",
    "MemoryNode",
    "MetapipelineSchedule",
    "ParallelSchedule",
    "RewriteResult",
    "Schedule",
    "ScheduleNode",
    "ScheduleRewriter",
    "SequentialSchedule",
    "StageGroup",
    "StageProfile",
    "StreamNode",
    "TransferNode",
    "UNCALIBRATED_TOLERANCE",
    "build_schedule",
    "calibrate_benchmark",
    "calibrate_model",
    "compare_backends",
    "get_backend",
    "rewrite_schedule",
    "tune_balance_factor",
    "verify_rewrite",
]
