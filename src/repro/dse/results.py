"""Scalar evaluation results shared across the DSE, evaluation and reporting layers.

:class:`PointResult` used to live in :mod:`repro.dse.engine`, which meant any
module wanting to *type* against it (e.g. the Figure 7 harness attaching a
``dse_best`` point to each row) had to either import the whole engine — a
heavyweight import pulling in the compiler and multiprocessing plumbing —
or fall back to ``Optional[object]``.  It now lives here, depending only on
:mod:`repro.dse.space`, so both the engine and the evaluation harness can
import it without a cycle.  :mod:`repro.dse.engine` re-exports it, so
existing imports (and pickled analysis-cache stores referencing the old
module path) keep working.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict

from repro.dse.space import DesignPoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.area import AreaReport
    from repro.hw.design import HardwareDesign
    from repro.sim.metrics import SimulationResult

__all__ = ["PointResult"]


@dataclass
class PointResult:
    """Scalar outcome of one design point (cheap to ship across processes)."""

    point: DesignPoint
    cycles: float = 0.0
    seconds: float = 0.0
    logic: float = 0.0
    ffs: float = 0.0
    bram_bits: float = 0.0
    dsps: float = 0.0
    utilization: Dict[str, float] = field(default_factory=dict)
    read_bytes: int = 0
    write_bytes: int = 0
    pruned: bool = False
    prune_reason: str = ""
    # Supervision metadata (repro.dse.resilience).  compare=False keeps a
    # recovered-after-retry result equal to its fault-free twin: the
    # metrics are what identify a result, not how hard it was to get.
    failed: bool = field(default=False, compare=False)
    failure: str = field(default="", compare=False)
    attempts: int = field(default=1, compare=False)

    @classmethod
    def from_evaluation(
        cls,
        point: DesignPoint,
        simulation: "SimulationResult",
        area: "AreaReport",
        design: "HardwareDesign",
    ) -> "PointResult":
        """The outcome of a priced point: its cycles, area and DRAM traffic."""
        return cls(
            point=point,
            cycles=simulation.cycles,
            seconds=simulation.seconds,
            logic=area.total.logic,
            ffs=area.total.ffs,
            bram_bits=area.total.bram_bits,
            dsps=area.total.dsps,
            utilization={
                "logic": area.logic_utilization,
                "ffs": area.ff_utilization,
                "bram": area.bram_utilization,
                "dsps": area.dsp_utilization,
            },
            read_bytes=design.main_memory_read_bytes,
            write_bytes=design.main_memory_write_bytes,
        )

    @property
    def label(self) -> str:
        return self.point.label

    @property
    def max_utilization(self) -> float:
        return max(self.utilization.values()) if self.utilization else 0.0
