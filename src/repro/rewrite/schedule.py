"""The schedule rewrites as framework transformations.

Each rule is one :class:`~repro.rewrite.framework.ScheduleTransformation`
that rewrites the stage tree in place (:meth:`apply_in_place`) — the
hardware inventory is never touched, only *when* things run:

* :class:`CoalesceTransfers` — adjacent same-direction transfers inside a
  sequential or metapipeline group merge into one larger-burst transfer
  (total bytes preserved).  Every transfer pays one DRAM round-trip
  latency per invocation, so ``k`` adjacent tile loads cost ``k`` latencies
  where one coalesced load costs one; on the shared channel of the event
  model that latency is occupancy every other transfer waits behind.
* :class:`RebalanceStages` — metapipeline stages are split and merged so
  per-stage cycle estimates sit within a balance factor of the slowest
  stage.  The cost oracle is selectable: ``cost_source="analytical"``
  prices stages with the analytical walk
  (:func:`repro.schedule.analytical.node_cycles`),
  ``cost_source="event"`` measures them from an event-backend profile, so
  contention- and stall-bound stages are seen at their *observed*
  durations rather than their idealised ones.
* :class:`FlattenDegenerateGroups` — a stage group with one stage and one
  iteration is pure nesting overhead (the generator emits them around
  single-pattern bodies); the child takes its place.

Each rule is individually orderable (applied to quiescence on a clone,
with :func:`repro.schedule.rewrite.verify_rewrite` asserting the
preservation invariants afterwards), and
:class:`repro.schedule.rewrite.ScheduleRewriter` runs them as a sequence.
:class:`ScheduleRewrite` is the composite ``rewrite-schedule`` step of the
``rewrite`` / ``rewrite-profiled`` variants — the full rewrite sequence
and rounds loop of :func:`repro.schedule.rewrite.rewrite_schedule`, with
its report details.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.rewrite.framework import ScheduleTransformation
from repro.schedule.analytical import node_cycles
from repro.schedule.event import EventScheduleBackend, StageProfile
from repro.schedule.ir import (
    MetapipelineSchedule,
    ParallelSchedule,
    Schedule,
    ScheduleNode,
    SequentialSchedule,
    StageGroup,
    TransferNode,
)
from repro.schedule.rewrite import (
    COST_SOURCES,
    DEFAULT_BALANCE_FACTOR,
    PROFILE_MEMO_KEY,
    ProfileMemo,
)
from repro.sim.model import PerformanceModel

__all__ = [
    "CoalesceTransfers",
    "FlattenDegenerateGroups",
    "RebalanceStages",
    "ScheduleRewrite",
]


def _groups(schedule: Schedule) -> List[StageGroup]:
    """All stage groups of the tree, materialised before any mutation."""
    return [node for node in schedule.walk() if isinstance(node, StageGroup)]


def _absorbed_modules(node: ScheduleNode) -> List:
    """Every hardware module a node carries (own plus absorbed)."""
    modules = [node.module] if node.module is not None else []
    modules.extend(node.extra_modules)
    return modules


def _coalesceable(previous: Optional[ScheduleNode], stage: ScheduleNode) -> bool:
    return (
        isinstance(stage, TransferNode)
        and isinstance(previous, TransferNode)
        and previous.direction == stage.direction
        and previous.burst_bytes == stage.burst_bytes
    )


class CoalesceTransfers(ScheduleTransformation):
    """Merge adjacent same-direction transfers into one larger burst.

    Two tile loads issued back to back inside a sequential or metapipeline
    group hit the same DRAM channel anyway; issuing them as one transfer
    saves one round-trip latency per invocation and frees the channel for
    the stages contending with it.  Parallel groups are left alone — their
    stages are semantically concurrent, not back-to-back.  Total bytes (and
    therefore traffic) are preserved by construction; the partner's command
    generator is absorbed into ``extra_modules`` so the hardware inventory
    is too.
    """

    name = "coalesce-transfers"

    def apply_in_place(self, schedule: Schedule, model: PerformanceModel) -> int:
        hits = 0
        for group in _groups(schedule):
            if isinstance(group, ParallelSchedule) or len(group.stages) < 2:
                continue
            merged: List[ScheduleNode] = []
            for stage in group.stages:
                previous = merged[-1] if merged else None
                if _coalesceable(previous, stage):
                    merged[-1] = self._merge(previous, stage)
                    hits += 1
                else:
                    merged.append(stage)
            group.stages = merged
        return hits

    @staticmethod
    def _merge(first: TransferNode, second: TransferNode) -> TransferNode:
        extra = list(first.extra_modules)
        extra.extend(_absorbed_modules(second))
        return TransferNode(
            name=f"{first.name}+{second.name}",
            module=first.module,
            extra_modules=extra,
            direction=first.direction,
            bytes_per_invocation=first.bytes_per_invocation + second.bytes_per_invocation,
            burst_bytes=first.burst_bytes,
            # A source-less constituent is identified by its node name —
            # the same fallback the traffic inventory uses — so the
            # legality checker's source-set comparison stays exact.
            source="+".join(t.source or t.name for t in (first, second)),
            destination="+".join(
                part for part in (first.destination, second.destination) if part
            ),
        )


class RebalanceStages(ScheduleTransformation):
    """Split bottleneck group stages and merge under-full neighbours.

    Guided by per-stage cycle costs from the selected oracle
    (``cost_source``): the analytical walk
    (:func:`~repro.schedule.analytical.node_cycles`, the default) or measured event-backend stage profiles — mean
    begin-to-done durations including DRAM contention waits and
    backpressure effects, so a stage the closed forms call cheap but the
    timeline shows contention-bound is balanced at its observed weight:

    * **split** — a metapipeline stage that is itself a sequential group
      (one iteration, several children) and costs more than
      ``balance_factor ×`` every other stage is serialising work the
      metapipeline could overlap; its children become stages of their own;
    * **merge** — two adjacent stages each estimated below
      ``slowest / balance_factor`` whose combined estimate stays at or
      below the slowest stage fold into one sequential stage: one fewer
      per-iteration sync handshake and a shorter fill, while the
      steady-state period (the slowest stage) is unchanged.

    With a ``memo`` the event profiles come from (and go to) that
    :class:`~repro.schedule.rewrite.ProfileMemo`; without one every
    profile is a fresh event run.
    """

    name = "rebalance-stages"

    def __init__(
        self,
        balance_factor: float = DEFAULT_BALANCE_FACTOR,
        cost_source: str = "analytical",
        memo: Optional[ProfileMemo] = None,
    ) -> None:
        if balance_factor < 1.0:
            raise ValueError(f"balance_factor must be >= 1.0, got {balance_factor}")
        if cost_source not in COST_SOURCES:
            raise ValueError(
                f"unknown cost_source {cost_source!r}; choose from {list(COST_SOURCES)}"
            )
        self.balance_factor = balance_factor
        self.cost_source = cost_source
        self.memo = memo

    def signature(self) -> str:
        return f"{type(self).__name__}[bf={self.balance_factor},cs={self.cost_source}]"

    def _profiles(
        self, schedule: Schedule, model: PerformanceModel
    ) -> Optional[Dict[int, StageProfile]]:
        if self.cost_source != "event":
            return None
        if self.memo is not None:
            return self.memo.profiles(schedule, model)
        return EventScheduleBackend(model).profile_schedule(schedule)

    def _stage_costs(
        self,
        group: MetapipelineSchedule,
        board,
        model,
        profiles: Optional[Dict[int, StageProfile]],
    ) -> List[float]:
        """Per-stage costs from the profile when one covers the group.

        Falls back to the analytical closed forms for groups the profile
        missed (a nested metapipeline that never executed) or whose stage
        list no longer matches (the tree changed since profiling).
        """
        if profiles is not None:
            profile = profiles.get(id(group))
            if profile is not None and len(profile.durations) == len(group.stages):
                return list(profile.durations)
        return [node_cycles(stage, board, model) for stage in group.stages]

    def apply_in_place(self, schedule: Schedule, model: PerformanceModel) -> int:
        board = schedule.board
        hits = 0
        profiles = self._profiles(schedule, model)
        for group in _groups(schedule):
            if not isinstance(group, MetapipelineSchedule) or group.iterations <= 1:
                continue
            split_hits = self._split(
                group, board, model, self._stage_costs(group, board, model, profiles)
            )
            if split_hits and profiles is not None:
                # The tree changed: measure the new stages before merging
                # instead of mixing measured and stale costs.
                profiles = self._profiles(schedule, model)
            hits += split_hits
            hits += self._merge(
                group, board, model, self._stage_costs(group, board, model, profiles)
            )
        return hits

    def _split(self, group: MetapipelineSchedule, board, model, costs: List[float]) -> int:
        hits = 0
        stages: List[ScheduleNode] = []
        for index, stage in enumerate(group.stages):
            rest = max((c for i, c in enumerate(costs) if i != index), default=0.0)
            if (
                isinstance(stage, SequentialSchedule)
                and stage.iterations == 1
                and len(stage.stages) >= 2
                and costs[index] > self.balance_factor * rest
            ):
                # The group's controller is absorbed by its first child so
                # the module inventory survives the split.
                head = stage.stages[0]
                head.extra_modules = _absorbed_modules(stage) + list(head.extra_modules)
                stages.extend(stage.stages)
                hits += 1
            else:
                stages.append(stage)
        group.stages = stages
        return hits

    def _merge(self, group: MetapipelineSchedule, board, model, costs: List[float]) -> int:
        hits = 0
        stages = list(group.stages)
        costs = list(costs)
        while len(stages) > 2:
            slowest = max(costs)
            threshold = slowest / self.balance_factor
            best_index = -1
            best_combined = float("inf")
            for i in range(len(stages) - 1):
                combined = costs[i] + costs[i + 1]
                if costs[i] < threshold and costs[i + 1] < threshold and combined <= slowest:
                    if combined < best_combined:
                        best_combined = combined
                        best_index = i
            if best_index < 0:
                break
            a, b = stages[best_index], stages[best_index + 1]
            merged = SequentialSchedule(
                name=f"{a.name}+{b.name}", stages=[a, b], iterations=1
            )
            stages[best_index : best_index + 2] = [merged]
            costs[best_index : best_index + 2] = [best_combined]
            hits += 1
        group.stages = stages
        return hits


class FlattenDegenerateGroups(ScheduleTransformation):
    """Collapse one-stage, one-iteration groups onto their only child.

    The hardware generator wraps single-pattern bodies in their own
    controllers; once the schedule is explicit those groups are pure
    nesting — they time identically to their child and cost a controller
    sync in the metapipeline recurrence.  The child absorbs the group's
    controller module, keeping the inventory whole.
    """

    name = "flatten-degenerate-groups"

    def apply_in_place(self, schedule: Schedule, model: PerformanceModel) -> int:
        hits = 0

        def flatten(node: ScheduleNode) -> ScheduleNode:
            nonlocal hits
            if isinstance(node, StageGroup):
                node.stages = [flatten(stage) for stage in node.stages]
                # Exactly one iteration: a zero-iteration group's body never
                # runs, so replacing it with its child would *start* it.
                if len(node.stages) == 1 and node.iterations == 1:
                    child = node.stages[0]
                    child.extra_modules = _absorbed_modules(node) + list(
                        child.extra_modules
                    )
                    hits += 1
                    return child
            return node

        schedule.root = flatten(schedule.root)
        return hits


class ScheduleRewrite(ScheduleTransformation):
    """The composite schedule rewriter as one transformation.

    Delegates to :func:`repro.schedule.rewrite.rewrite_schedule` (flatten →
    coalesce → rebalance, iterated to quiescence, verified).
    :meth:`apply_schedule` — what the pipeline stage runs — also reports
    per-rewrite hit counts, rounds, the resolved balance factor and the
    event simulations the step ran (``event_runs``) and reused
    (``event_reuses``).  It profiles through the context's shared
    :class:`~repro.schedule.rewrite.ProfileMemo`
    (:data:`~repro.schedule.rewrite.PROFILE_MEMO_KEY`) when one is set;
    the two counts are then this step's own.
    """

    name = "rewrite-schedule"

    def __init__(
        self,
        balance_factor: Union[float, str, None] = None,
        cost_source: str = "analytical",
    ) -> None:
        self.balance_factor = balance_factor
        self.cost_source = cost_source

    def _factor(self) -> Union[float, str]:
        if self.balance_factor is None:
            return DEFAULT_BALANCE_FACTOR
        return self.balance_factor

    def apply_schedule(self, schedule, ctx) -> Tuple[object, Dict[str, object]]:
        from repro.schedule.rewrite import rewrite_schedule

        result = rewrite_schedule(
            schedule,
            model=ctx.model,
            balance_factor=self._factor(),
            cost_source=self.cost_source,
            memo=ctx.artifacts.get(PROFILE_MEMO_KEY),
        )
        return result.schedule, {
            "rewrite_hits": dict(result.hits),
            "rewrite_rounds": result.rounds,
            "balance_factor": result.balance_factor,
            "cost_source": self.cost_source,
            "event_runs": result.event_runs,
            "event_reuses": result.event_reuses,
        }

    def signature(self) -> str:
        return f"{type(self).__name__}[bf={self._factor()},cs={self.cost_source}]"
