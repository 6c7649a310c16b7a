"""The schedule rewrites as declarative framework transformations.

Wraps the three :class:`repro.schedule.rewrite.Rewrite` rules — transfer
coalescing, stage rebalancing, degenerate-group flattening — as
individually orderable :class:`~repro.rewrite.framework.Transformation`\\ s
(each applied to quiescence on a clone, with
:func:`repro.schedule.rewrite.verify_rewrite` asserting the preservation
invariants afterwards), plus :class:`ScheduleRewrite`: the composite
``rewrite-schedule`` step of the ``rewrite`` / ``rewrite-profiled``
variants — the full rewrite sequence and rounds loop of
:func:`repro.schedule.rewrite.rewrite_schedule`, with its report details.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from repro.schedule.ir import (
    MetapipelineSchedule,
    ParallelSchedule,
    SequentialSchedule,
    StageGroup,
    TransferNode,
)
from repro.rewrite.framework import Match, ScheduleTransformation, ShapePattern
from repro.schedule.rewrite import (
    DEFAULT_BALANCE_FACTOR,
    DegenerateGroupFlattening,
    RewriteResult,
    StageRebalancing,
    TransferCoalescing,
)

__all__ = [
    "CoalesceTransfers",
    "FlattenDegenerateGroups",
    "RebalanceStages",
    "ScheduleRewrite",
]


def _has_adjacent_coalesceable_transfers(group: StageGroup) -> bool:
    previous = None
    for stage in group.stages:
        if (
            isinstance(stage, TransferNode)
            and isinstance(previous, TransferNode)
            and previous.direction == stage.direction
            and previous.burst_bytes == stage.burst_bytes
        ):
            return True
        previous = stage
    return False


class CoalesceTransfers(ScheduleTransformation):
    """Merge adjacent same-direction transfers into one larger burst."""

    name = "coalesce-transfers"

    def pattern(self) -> ShapePattern:
        return ShapePattern(
            kinds=(SequentialSchedule, MetapipelineSchedule),
            where=lambda group: not isinstance(group, ParallelSchedule)
            and len(group.stages) >= 2
            and _has_adjacent_coalesceable_transfers(group),
            description="sequential group with adjacent same-direction transfers",
        )

    def rewrite_rule(self):
        return TransferCoalescing()


class RebalanceStages(ScheduleTransformation):
    """Split bottleneck metapipeline stages, merge under-full neighbours."""

    name = "rebalance-stages"

    def __init__(
        self,
        balance_factor: float = DEFAULT_BALANCE_FACTOR,
        cost_source: str = "analytical",
    ) -> None:
        self.balance_factor = balance_factor
        self.cost_source = cost_source

    def pattern(self) -> ShapePattern:
        return ShapePattern(
            kinds=(MetapipelineSchedule,),
            where=lambda group: group.iterations > 1 and len(group.stages) >= 2,
            description="iterated metapipeline with >= 2 stages",
        )

    def rewrite_rule(self):
        return StageRebalancing(
            balance_factor=self.balance_factor, cost_source=self.cost_source
        )

    def signature(self) -> str:
        return f"{type(self).__name__}[bf={self.balance_factor},cs={self.cost_source}]"


class FlattenDegenerateGroups(ScheduleTransformation):
    """Collapse one-stage, one-iteration groups onto their only child."""

    name = "flatten-degenerate-groups"

    def pattern(self) -> ShapePattern:
        return ShapePattern(
            kinds=(StageGroup,),
            where=lambda group: len(group.stages) == 1 and group.iterations == 1,
            description="single-stage single-iteration group",
        )

    def rewrite_rule(self):
        return DegenerateGroupFlattening()


class ScheduleRewrite(ScheduleTransformation):
    """The composite schedule rewriter as one transformation.

    Delegates to :func:`repro.schedule.rewrite.rewrite_schedule` (flatten →
    coalesce → rebalance, iterated to quiescence, verified).
    :meth:`apply_schedule` — what the pipeline stage runs — also reports
    per-rewrite hit counts, rounds, the resolved balance factor and (with
    ``measure_cycles``) the before/after event-backend cycle delta.
    :meth:`apply` is the rewrite alone: the batched evaluator prices the
    schedule itself, so it skips the report-only event runs.
    """

    name = "rewrite-schedule"

    def __init__(
        self,
        balance_factor: Union[float, str, None] = None,
        measure_cycles: bool = True,
        cost_source: str = "analytical",
    ) -> None:
        self.balance_factor = balance_factor
        self.measure_cycles = measure_cycles
        self.cost_source = cost_source

    def pattern(self) -> ShapePattern:
        # The composite fires anywhere its constituents would; matching a
        # group is enough for the ordering search to consider it.
        return ShapePattern(
            kinds=(StageGroup,), description="any stage group (composite)"
        )

    def _factor(self) -> Union[float, str]:
        if self.balance_factor is None:
            return DEFAULT_BALANCE_FACTOR
        return self.balance_factor

    def rewrite(self, schedule, ctx) -> RewriteResult:
        """Rewrite the schedule; no report details, no event measurement."""
        from repro.schedule.rewrite import rewrite_schedule

        return rewrite_schedule(
            schedule,
            model=ctx.model,
            balance_factor=self._factor(),
            cost_source=self.cost_source,
        )

    def apply(self, schedule, ctx):
        return self.rewrite(schedule, ctx).schedule

    def apply_schedule(self, schedule, ctx) -> Tuple[object, Dict[str, object]]:
        result = self.rewrite(schedule, ctx)
        details: Dict[str, object] = {
            "rewrite_hits": dict(result.hits),
            "rewrite_rounds": result.rounds,
            "balance_factor": result.balance_factor,
            "cost_source": self.cost_source,
        }
        if self.measure_cycles:
            from repro.schedule.event import EventScheduleBackend

            if result.changed:
                before = EventScheduleBackend(ctx.model).run(schedule).cycles
                after = EventScheduleBackend(ctx.model).run(result.schedule).cycles
            else:
                # No rewrite fired: one event run prices both schedules.
                before = after = EventScheduleBackend(ctx.model).run(schedule).cycles
            details["event_cycles_before"] = before
            details["event_cycles_after"] = after
        return result.schedule, details

    def signature(self) -> str:
        return f"{type(self).__name__}[bf={self._factor()},cs={self.cost_source}]"
