"""The Schedule IR: an explicit, analyzable metapipeline schedule.

A :class:`Schedule` is the execution plan of one hardware design — the
artifact Section 5's metapipeline analysis produces implicitly.  It is a
tree of stage groups (:class:`SequentialSchedule`, :class:`ParallelSchedule`,
:class:`MetapipelineSchedule`, each with an iteration count) whose leaves
are the timed operations of the design:

* :class:`ComputeNode` — a pipelined execution unit (vector unit, reduction
  tree or scalar pipe) with its per-loop parallelism factor (``lanes``),
  element count and pipeline depth;
* :class:`TransferNode` — a tile load or store with its per-invocation byte
  count and the DRAM burst size it is issued in;
* :class:`StreamNode` — a baseline (untiled) streaming access with total
  traffic and the number of latency-exposed command streams.

Alongside the tree the Schedule carries the design's memory inventory as
:class:`MemoryNode` records (buffers with their double-buffer flag, caches,
CAMs, FIFOs), so the area model and the traffic inventory derive buffer and
transfer footprints from the Schedule rather than re-walking the design
graph.

Every node keeps a reference to the originating
:class:`~repro.hw.templates.HardwareModule` (its *operand*): the Schedule
describes *when* things run, the template describes *what* runs.  The cycle
backends (:mod:`repro.schedule.analytical`, :mod:`repro.schedule.event`),
the area model and the MaxJ emitter all consume this one object, which is
what makes the simulated structure and the emitted structure the same
thing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.hw.templates import HardwareModule
from repro.target.device import Board, DEFAULT_BOARD

__all__ = [
    "ScheduleNode",
    "StageGroup",
    "SequentialSchedule",
    "ParallelSchedule",
    "MetapipelineSchedule",
    "ComputeNode",
    "TransferNode",
    "StreamNode",
    "MemoryNode",
    "Schedule",
]


@dataclass
class ScheduleNode:
    """Base class of every node in the schedule tree.

    ``extra_modules`` carries hardware modules whose schedule nodes were
    merged away by the schedule rewriter (a coalesced transfer absorbs its
    partner's command generator, a flattened degenerate group's child
    absorbs the group's controller): the rewriter changes *when* things
    run, never *what* hardware exists, so the module inventory — and
    therefore the area report — is preserved across rewrites.
    """

    name: str
    module: Optional[HardwareModule] = None
    extra_modules: List[HardwareModule] = field(default_factory=list)

    @property
    def kind(self) -> str:
        return type(self).__name__

    def children(self) -> List["ScheduleNode"]:
        return []

    def walk(self) -> Iterator["ScheduleNode"]:
        """This node and every node below it, in preorder.

        Built with an explicit stack over the stage groups (the only
        interior nodes) rather than a recursive generator: the rewriter,
        the module inventory and the profile memo walk every tree several
        times per design point.
        """
        order: List[ScheduleNode] = []
        stack: List[ScheduleNode] = [self]
        while stack:
            node = stack.pop()
            order.append(node)
            if isinstance(node, StageGroup):
                stack.extend(reversed(node.stages))
        return iter(order)


@dataclass
class StageGroup(ScheduleNode):
    """A controller in the schedule: an ordered list of stages, repeated."""

    stages: List[ScheduleNode] = field(default_factory=list)
    iterations: int = 1

    def children(self) -> List[ScheduleNode]:
        return list(self.stages)

    @property
    def num_stages(self) -> int:
        return len(self.stages)


@dataclass
class SequentialSchedule(StageGroup):
    """Stages run strictly one after another, ``iterations`` times."""


@dataclass
class ParallelSchedule(StageGroup):
    """Stages start together; the group finishes when every stage finishes."""


@dataclass
class MetapipelineSchedule(StageGroup):
    """The paper's hierarchical pipeline: stage *i* of iteration *t* overlaps
    stage *i+1* of iteration *t-1*, decoupled by double buffers."""


@dataclass
class ComputeNode(ScheduleNode):
    """A pipelined execution unit: Map / MultiFold / scalar glue logic.

    ``unit`` is ``"vector"``, ``"reduction"`` or ``"scalar"``; ``lanes`` is
    the per-loop parallelism factor of the pattern the unit implements.
    """

    unit: str = "vector"
    lanes: int = 1
    elements: float = 0.0
    ops_per_element: float = 1.0
    pipeline_depth: int = 0

    @property
    def tree_depth(self) -> int:
        """Log-depth of a reduction tree over ``lanes`` inputs (0 for one lane).

        ``ceil(log2(lanes))``: a tree over 5 inputs needs 3 levels (the odd
        input rides through a level), not the 2 that repeated floor-halving
        would give.
        """
        return (max(1, self.lanes) - 1).bit_length()


@dataclass
class TransferNode(ScheduleNode):
    """A tile load or store: one DRAM command sequence per invocation.

    ``direction`` is ``"load"`` or ``"store"``; ``burst_bytes`` is the DRAM
    burst the transfer is issued in and ``bursts`` the per-invocation burst
    count (transfers are burst-aligned, which is why tile units reach near
    full bandwidth).
    """

    direction: str = "load"
    bytes_per_invocation: int = 0
    burst_bytes: int = 0
    source: str = ""
    destination: str = ""

    @property
    def bursts(self) -> int:
        if self.burst_bytes <= 0:
            return 0
        return -(-self.bytes_per_invocation // self.burst_bytes)


@dataclass
class StreamNode(ScheduleNode):
    """A baseline streaming DRAM access: total traffic, no on-chip reuse.

    ``store_bytes`` is the output-write portion of ``total_bytes`` (the
    final kernel's stream carries the result store along with its reads).
    """

    total_bytes: int = 0
    requests: float = 1.0
    sequential: bool = True
    source: str = ""
    store_bytes: int = 0

    @property
    def read_bytes(self) -> int:
        return self.total_bytes - self.store_bytes


@dataclass
class MemoryNode:
    """One entry of the design's on-chip memory inventory.

    ``kind`` mirrors the template kind (``Buffer`` / ``Cache`` / ``CAM`` /
    ``ParallelFIFO``); ``double`` marks the double buffers that couple
    metapipeline stages.
    """

    name: str
    kind: str
    module: HardwareModule
    capacity_bits: int = 0
    depth_words: int = 0
    banks: int = 1
    double: bool = False
    source: str = ""


@dataclass
class Schedule:
    """The complete schedule of one design: stage tree + memory inventory."""

    name: str
    program_name: str
    config_label: str
    root: ScheduleNode
    memories: List[MemoryNode] = field(default_factory=list)
    board: Board = DEFAULT_BOARD
    output_bytes: int = 0
    main_memory_read_bytes: int = 0
    main_memory_write_bytes: int = 0
    notes: List[str] = field(default_factory=list)

    # -- structure ----------------------------------------------------------
    def walk(self) -> Iterator[ScheduleNode]:
        return self.root.walk()

    def nodes_of(self, kind: type) -> List[ScheduleNode]:
        return [node for node in self.walk() if isinstance(node, kind)]

    @property
    def transfers(self) -> List[TransferNode]:
        return self.nodes_of(TransferNode)

    @property
    def streams(self) -> List[StreamNode]:
        return self.nodes_of(StreamNode)

    @property
    def compute_nodes(self) -> List[ComputeNode]:
        return self.nodes_of(ComputeNode)

    @property
    def double_buffers(self) -> List[MemoryNode]:
        return [m for m in self.memories if m.double]

    @property
    def on_chip_bits(self) -> int:
        return sum(m.capacity_bits for m in self.memories)

    def modules(self) -> List[HardwareModule]:
        """Every hardware module the schedule references, tree order first.

        Mirrors :meth:`repro.hw.design.HardwareDesign.all_modules` exactly —
        controllers and timed leaves in tree order, then the memory
        inventory — so the area model aggregates identical totals whether it
        walks the design or the schedule.  Rewritten schedules additionally
        yield each node's ``extra_modules`` (hardware absorbed by merged or
        flattened nodes), keeping the module multiset — and the area totals
        — invariant under schedule rewriting.
        """
        ordered: List[HardwareModule] = []
        for node in self.walk():
            if node.module is not None:
                ordered.append(node.module)
            ordered.extend(node.extra_modules)
        ordered.extend(memory.module for memory in self.memories)
        return ordered

    def depth(self) -> int:
        """Nesting depth of the stage hierarchy (a flat design has depth 1)."""

        def _depth(node: ScheduleNode) -> int:
            children = node.children()
            if not children:
                return 0
            return 1 + max(_depth(child) for child in children)

        return max(1, _depth(self.root))

    def metapipeline_stages(self) -> Dict[str, int]:
        """Stage counts of every metapipeline in the schedule, by name."""
        return {
            node.name: node.num_stages for node in self.nodes_of(MetapipelineSchedule)
        }

    def summary(self) -> str:
        lines = [
            f"schedule {self.name} ({self.config_label})",
            f"  depth:            {self.depth()}",
            f"  transfers:        {len(self.transfers)} "
            f"({sum(t.bursts for t in self.transfers)} bursts/invocation)",
            f"  streams:          {len(self.streams)}",
            f"  compute leaves:   {len(self.compute_nodes)}",
            f"  double buffers:   {len(self.double_buffers)}",
            f"  on-chip memory:   {self.on_chip_bits / 8 / 1024:.1f} KiB",
        ]
        for name, stages in self.metapipeline_stages().items():
            lines.append(f"  metapipeline {name}: {stages} stages")
        return "\n".join(lines)
