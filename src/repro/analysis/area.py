"""FPGA area model (logic, flip-flops, block RAM, DSPs).

The paper reports the relative resource usage of the optimised designs
against the baseline design for three categories: logic utilisation, flip
flops and on-chip memory (Figure 7, bottom).  This module assigns each
hardware template a parameterised resource cost and aggregates them per
design.  The coefficients are calibrated to be plausible for a Stratix V
(e.g. a single-precision floating-point adder/multiplier pair costs a few
hundred ALMs plus DSPs); since Figure 7 reports *relative* numbers, the
absolute scale matters far less than how costs grow with lanes, buffer
depths and the number of load/store units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.hw.controllers import (
    Controller,
    MetapipelineController,
    ParallelController,
    SequentialController,
)
from repro.hw.design import HardwareDesign
from repro.dse.cache import ANALYSIS_CACHE
from repro.hw.templates import (
    CAM,
    Buffer,
    Cache,
    HardwareModule,
    MainMemoryStream,
    ParallelFIFO,
    ReductionTree,
    ScalarPipe,
    TileLoad,
    TileStore,
    VectorUnit,
)
from repro.target.device import FPGADevice

__all__ = [
    "AreaEstimate",
    "AreaReport",
    "area_of_module",
    "estimate_area",
    "estimate_area_of_schedule",
    "relative_area",
]


@dataclass
class AreaEstimate:
    """Resource usage of one module (or a whole design)."""

    logic: float = 0.0
    ffs: float = 0.0
    bram_bits: float = 0.0
    dsps: float = 0.0


# Per-lane cost of a pipelined single-precision floating point operator.
_LANE_LOGIC = 650.0
_LANE_FFS = 900.0
_LANE_DSPS = 2.0


def area_of_module(module: HardwareModule) -> AreaEstimate:
    """Resource estimate for a single hardware module.

    Memoised on the parameters each template's cost actually depends on
    (lanes, banks, capacity, entries, stage count); estimates are immutable
    value objects, so sharing one instance across designs is safe.
    """
    if not ANALYSIS_CACHE.enabled:
        return _area_of_module(module)
    key = (
        type(module).__name__,
        getattr(module, "lanes", 0),
        getattr(module, "banks", 0),
        getattr(module, "capacity_bits", 0),
        getattr(module, "entries", 0),
        getattr(module, "num_stages", 0),
    )
    return ANALYSIS_CACHE.memoize("module_area", key, lambda: _area_of_module(module))


def _area_of_module(module: HardwareModule) -> AreaEstimate:
    if isinstance(module, VectorUnit):
        return AreaEstimate(
            logic=_LANE_LOGIC * module.lanes,
            ffs=_LANE_FFS * module.lanes,
            dsps=_LANE_DSPS * module.lanes,
        )
    if isinstance(module, ReductionTree):
        tree_factor = 1.0 + 0.5  # lanes of operators plus the log-depth tree
        return AreaEstimate(
            logic=_LANE_LOGIC * module.lanes * tree_factor,
            ffs=_LANE_FFS * module.lanes * tree_factor,
            dsps=_LANE_DSPS * module.lanes,
        )
    if isinstance(module, ScalarPipe):
        return AreaEstimate(logic=350.0, ffs=500.0, dsps=1.0)
    if isinstance(module, Buffer):
        return AreaEstimate(
            logic=150.0 + 40.0 * module.banks,
            ffs=220.0 + 20.0 * module.banks,
            bram_bits=module.capacity_bits,
        )
    if isinstance(module, Cache):
        return AreaEstimate(logic=2200.0, ffs=2600.0, bram_bits=module.capacity_bits * 1.25)
    if isinstance(module, CAM):
        # CAMs burn registers and comparators rather than block RAM.
        return AreaEstimate(
            logic=25.0 * module.entries,
            ffs=float(module.capacity_bits),
        )
    if isinstance(module, ParallelFIFO):
        return AreaEstimate(logic=400.0 + 30.0 * module.lanes, ffs=600.0, bram_bits=module.capacity_bits)
    if isinstance(module, (TileLoad, TileStore)):
        # Memory command generator: address generation, request queue and a
        # burst-wide data path.
        return AreaEstimate(logic=2600.0, ffs=4200.0, bram_bits=8 * 384 * 8)
    if isinstance(module, MainMemoryStream):
        # The baseline instantiates separate address and data streams per
        # access site, each with its own control and stream buffers (the
        # reason the paper's kmeans baseline uses *more* BRAM than the tiled
        # design).
        return AreaEstimate(logic=3900.0, ffs=6300.0, bram_bits=12 * 384 * 8)
    if isinstance(module, MetapipelineController):
        return AreaEstimate(logic=450.0 + 120.0 * module.num_stages, ffs=700.0 + 150.0 * module.num_stages)
    if isinstance(module, ParallelController):
        return AreaEstimate(logic=280.0 + 60.0 * module.num_stages, ffs=400.0)
    if isinstance(module, SequentialController):
        return AreaEstimate(logic=220.0 + 40.0 * module.num_stages, ffs=320.0)
    return AreaEstimate()


@dataclass
class AreaReport:
    """Aggregated resource usage of a design plus device utilisation."""

    design_name: str
    config_label: str
    total: AreaEstimate
    by_kind: Dict[str, AreaEstimate] = field(default_factory=dict)
    device: FPGADevice = None

    @property
    def logic_utilization(self) -> float:
        return self.total.logic / self.device.logic_cells

    @property
    def ff_utilization(self) -> float:
        return self.total.ffs / self.device.registers

    @property
    def bram_utilization(self) -> float:
        return self.total.bram_bits / self.device.bram_bits

    @property
    def dsp_utilization(self) -> float:
        return self.total.dsps / self.device.dsps

    def summary(self) -> str:
        return (
            f"{self.design_name:<28} logic {self.total.logic:>10.0f} ({self.logic_utilization:5.1%})  "
            f"FF {self.total.ffs:>10.0f} ({self.ff_utilization:5.1%})  "
            f"mem {self.total.bram_bits / 8 / 1024:>8.1f} KiB ({self.bram_utilization:5.1%})"
        )


def estimate_area_of_schedule(schedule) -> AreaReport:
    """Aggregate resource usage from a :class:`~repro.schedule.ir.Schedule`.

    The schedule's module inventory (stage tree in preorder, then the
    memory inventory) lists exactly the hardware the design instantiates,
    so costing the schedule and costing the design graph give identical
    totals — but the schedule is the one object the cycle backends and the
    MaxJ emitter also consume.

    The sums run in module order into four local floats and one
    four-float list per kind, so nothing is allocated per module.
    """
    logic = ffs = bram_bits = dsps = 0.0
    by_kind: Dict[str, List[float]] = {}
    for module in schedule.modules():
        estimate = area_of_module(module)
        logic += estimate.logic
        ffs += estimate.ffs
        bram_bits += estimate.bram_bits
        dsps += estimate.dsps
        kind = by_kind.get(module.kind)
        if kind is None:
            kind = by_kind[module.kind] = [0.0, 0.0, 0.0, 0.0]
        kind[0] += estimate.logic
        kind[1] += estimate.ffs
        kind[2] += estimate.bram_bits
        kind[3] += estimate.dsps
    return AreaReport(
        design_name=schedule.name,
        config_label=schedule.config_label,
        total=AreaEstimate(logic, ffs, bram_bits, dsps),
        by_kind={name: AreaEstimate(*sums) for name, sums in by_kind.items()},
        device=schedule.board.device,
    )


def estimate_area(design: HardwareDesign) -> AreaReport:
    """Aggregate the resource usage of every module in a design.

    Lowers the design to its (cached) schedule first: the area inventory is
    derived from the Schedule IR, not from re-walking the design graph.
    """
    return estimate_area_of_schedule(design.schedule())


def relative_area(baseline: AreaReport, optimized: AreaReport) -> Dict[str, float]:
    """Figure 7 (bottom): optimised resource use relative to the baseline design."""
    def ratio(opt: float, base: float) -> float:
        if base == 0:
            return 1.0 if opt == 0 else float("inf")
        return opt / base

    return {
        "logic": ratio(optimized.total.logic, baseline.total.logic),
        "FF": ratio(optimized.total.ffs, baseline.total.ffs),
        "mem": ratio(optimized.total.bram_bits, baseline.total.bram_bits),
    }
