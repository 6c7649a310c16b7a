"""The closed-form analytical cycle model over the Schedule IR.

:func:`node_cycles` is the one walk that composes the closed forms; the
analytical backend times whole schedules with it, the schedule rewrites
price candidate stage arrangements with it, and the batched DSE path
reaches it through the backend.  The arithmetic — formula, traversal order
and float evaluation order — is the seed's performance model, bit-for-bit
(guarded by the integration equivalence tests against the recorded golden
Figure 7 runs):

* sequential groups: ``iterations × Σ stage``;
* parallel groups: ``iterations × max stage``;
* metapipelines: fill (every stage once) plus
  ``(iterations − 1) × (slowest stage + per-stage sync)`` — steady-state
  throughput set by the slowest stage, exactly the paper's model;
* transfers: one DRAM latency plus the burst-aligned transfer at the tiled
  stream efficiency;
* baseline streams: traffic at the derated baseline efficiency plus a
  per-command-stream share of the DRAM latency;
* compute leaves: ``elements / lanes + pipeline depth``.

The leaf formulas live in :mod:`repro.schedule.costs`, shared with the
event backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import SimulationError
from repro.schedule.costs import pipeline_cycles, stream_cycles, transfer_cycles
from repro.schedule.ir import (
    ComputeNode,
    MetapipelineSchedule,
    ParallelSchedule,
    Schedule,
    ScheduleNode,
    SequentialSchedule,
    StreamNode,
    TransferNode,
)
from repro.sim.metrics import SimulationResult
from repro.sim.model import PerformanceModel
from repro.target.device import Board

__all__ = ["AnalyticalScheduleBackend", "CycleTally", "node_cycles"]


@dataclass
class CycleTally:
    """What a walk records besides the total: every node's cycles (keyed by
    name) and the summed compute- and memory-leaf invocation cycles."""

    per_node: Dict[str, float] = field(default_factory=dict)
    compute: float = 0.0
    memory: float = 0.0


def node_cycles(
    node: ScheduleNode,
    board: Board,
    model: PerformanceModel,
    tally: Optional[CycleTally] = None,
) -> float:
    """Closed-form cycles of one node and its subtree.

    With a ``tally`` the walk also records what the backend reports; the
    rewrites call it without one to price a stage arrangement.
    """
    if isinstance(node, MetapipelineSchedule):
        stage_cycles = [node_cycles(stage, board, model, tally) for stage in node.stages]
        if stage_cycles:
            sync = model.metapipeline_sync * len(stage_cycles)
            cycles = sum(stage_cycles) + max(0, node.iterations - 1) * (
                max(stage_cycles) + sync
            )
        else:
            cycles = 0.0
    elif isinstance(node, ParallelSchedule):
        stage_cycles = [node_cycles(stage, board, model, tally) for stage in node.stages]
        cycles = node.iterations * (max(stage_cycles) if stage_cycles else 0.0)
    elif isinstance(node, SequentialSchedule):
        stage_cycles = [node_cycles(stage, board, model, tally) for stage in node.stages]
        cycles = node.iterations * sum(stage_cycles)
    elif isinstance(node, TransferNode):
        cycles = transfer_cycles(board, model, node.bytes_per_invocation)
        if tally is not None:
            tally.memory += cycles
    elif isinstance(node, StreamNode):
        cycles = stream_cycles(board, model, node)
        if tally is not None:
            tally.memory += cycles
    elif isinstance(node, ComputeNode):
        cycles = pipeline_cycles(node)
        if tally is not None:
            tally.compute += cycles
    elif type(node) is ScheduleNode:
        cycles = 0.0  # untimed memory leaf
    else:
        raise SimulationError(f"no timing rule for schedule node {node.kind}")
    if tally is not None:
        tally.per_node[node.name] = cycles
    return cycles


class AnalyticalScheduleBackend:
    """Closed-form cycle counts composed over the schedule tree."""

    name = "analytical"

    def __init__(self, model: Optional[PerformanceModel] = None) -> None:
        self.model = model or PerformanceModel()

    def run(self, schedule: Schedule) -> SimulationResult:
        tally = CycleTally()
        total = node_cycles(schedule.root, schedule.board, self.model, tally)
        return SimulationResult(
            design_name=schedule.name,
            program_name=schedule.program_name,
            config_label=schedule.config_label,
            cycles=total,
            clock_hz=schedule.board.device.clock_hz,
            main_memory_read_bytes=schedule.main_memory_read_bytes,
            main_memory_write_bytes=schedule.main_memory_write_bytes,
            per_module_cycles=tally.per_node,
            compute_cycles=tally.compute,
            memory_cycles=tally.memory,
            cycle_model=self.name,
        )
