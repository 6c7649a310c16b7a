"""The declarative transformation framework (DaCe-style pattern rewriting).

Every program transformation in the compiler — the Section 4 PPL pattern
transforms (:mod:`repro.rewrite.ppl`) and the schedule rewrites
(:mod:`repro.rewrite.schedule`) — is one :class:`Transformation`, the only
unit that applies a transform: a named class declaring

* :meth:`~Transformation.pattern` — a declarative :class:`ShapePattern`
  describing the node shapes it rewrites (over the PPL expression IR or
  the Schedule stage tree, selected by :attr:`Transformation.ir`);
* :meth:`~Transformation.can_apply` — the legality predicate deciding
  whether a matched site may actually be rewritten;
* :meth:`~Transformation.apply` — the rewrite itself (pure for the PPL IR,
  clone-then-mutate with :func:`repro.schedule.rewrite.verify_rewrite` as
  the post-apply invariant checker for the Schedule IR);
* :meth:`~Transformation.cost_delta` — the estimated cycle / area /
  traffic / IR-size change, priced with the closed-form models
  (:func:`repro.schedule.analytical.node_cycles`,
  :func:`repro.analysis.traffic.schedule_traffic`,
  :func:`repro.analysis.area.estimate_area_of_schedule`).

The pipeline runs a transformation through the generic
:class:`repro.pipeline.passes.TransformationStage`, which handles tiling
gating, memoisation keys and schedule-artifact plumbing uniformly;
:mod:`repro.rewrite.orderings` turns sequences of transformations into
whole pipelines and enumerates the legal orderings the DSE sweeps.

Matching is deliberately separate from applying: ``matches()`` is what the
ordering search and the cost model consult ("would this fire here, and
what would it buy?"), while ``apply()`` is the production rewrite, which
may revisit the sites itself in one sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.errors import TransformError

if TYPE_CHECKING:  # pragma: no cover - import cycles at type-check time only
    from repro.pipeline.passes import PassContext
    from repro.ppl.program import Program
    from repro.schedule.ir import Schedule

__all__ = [
    "CostDelta",
    "Match",
    "PplTransformation",
    "ScheduleTransformation",
    "ShapePattern",
    "Transformation",
    "TransformationError",
    "find_matches",
    "ir_size",
]


class TransformationError(TransformError):
    """A transformation was declared or applied inconsistently."""


@dataclass(frozen=True)
class ShapePattern:
    """A declarative node-shape matcher: node kinds plus a structural guard.

    ``kinds`` are the IR node classes a site must be an instance of;
    ``where`` is an optional purely structural predicate over the node
    (no compile configuration — configuration-dependent legality belongs
    in :meth:`Transformation.can_apply`).
    """

    kinds: Tuple[type, ...]
    where: Optional[Callable[[object], bool]] = None
    description: str = ""

    def matches_node(self, node: object) -> bool:
        if not isinstance(node, self.kinds):
            return False
        if self.where is not None and not self.where(node):
            return False
        return True


@dataclass
class Match:
    """One site a transformation's pattern matched.

    ``payload`` is transformation-private scratch: whatever the legality
    check computed and the site-level apply wants to reuse.
    """

    node: object
    payload: Dict[str, object] = field(default_factory=dict)


def find_matches(nodes, pattern: ShapePattern) -> List[Match]:
    """All nodes of an iterable that fit a shape pattern, in walk order."""
    return [Match(node) for node in nodes if pattern.matches_node(node)]


def ir_size(body) -> int:
    """Node count of a PPL expression tree — the IR-size cost proxy."""
    from repro.ppl.traversal import walk

    return sum(1 for _ in walk(body))


@dataclass
class CostDelta:
    """Estimated effect of applying a transformation (after minus before).

    ``None`` fields are *unknown* for that transformation's IR, not zero:
    PPL transformations report the IR-size delta (their cycle effect is
    only priced after hardware generation), schedule transformations
    report analytical cycles plus the traffic/area deltas their legality
    invariants pin to zero.
    """

    cycles: Optional[float] = None
    area_logic: Optional[float] = None
    traffic_bytes: Optional[int] = None
    ir_nodes: Optional[int] = None
    sites: int = 0

    @property
    def improves_cycles(self) -> bool:
        return self.cycles is not None and self.cycles < 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "cycles": self.cycles,
            "area_logic": self.area_logic,
            "traffic_bytes": self.traffic_bytes,
            "ir_nodes": self.ir_nodes,
            "sites": self.sites,
        }


class Transformation:
    """One declarative rewrite: pattern + legality + apply + cost delta.

    Subclasses set :attr:`ir` (``"ppl"`` or ``"schedule"``) and implement
    the four protocol methods.  ``requires_tiling`` is the tiling gate: the
    pipeline stage skips the transformation entirely when the
    configuration compiles the untiled baseline, which is what lets one
    pipeline serve baseline and optimised configurations alike.
    """

    name: str = "transformation"
    ir: str = "ppl"
    requires_tiling: bool = False

    # -- the declarative protocol ------------------------------------------

    def pattern(self) -> ShapePattern:
        raise NotImplementedError(f"{type(self).__name__} must declare a pattern")

    def can_apply(self, subject, match: Match, ctx: "PassContext") -> bool:
        """May the matched site legally be rewritten under this context?"""
        return True

    def apply(self, subject, ctx: "PassContext"):
        """Rewrite every legal site of the subject (program or schedule)."""
        raise NotImplementedError(f"{type(self).__name__} must implement apply")

    def cost_delta(self, subject, ctx: "PassContext") -> CostDelta:
        raise NotImplementedError(f"{type(self).__name__} must implement cost_delta")

    # -- matching ------------------------------------------------------------

    def _walk_subject(self, subject):
        if self.ir == "ppl":
            from repro.ppl.traversal import walk

            return walk(subject.body)
        return subject.walk()

    def matches(self, subject, ctx: "PassContext") -> List[Match]:
        """Legal sites of this transformation in walk order.

        Pattern matching first (cheap, structural), then the legality
        predicate per site.  The ordering search and the cost model consume
        this; :meth:`apply` is free to revisit sites itself.
        """
        found = find_matches(self._walk_subject(subject), self.pattern())
        return [m for m in found if self.can_apply(subject, m, ctx)]

    # -- pipeline integration -------------------------------------------------

    def config_key(self, ctx: "PassContext") -> Tuple:
        """The configuration this transformation's output depends on."""
        return ()

    def signature(self) -> str:
        """Stable identity folded into pipeline signatures and cache keys."""
        return type(self).__name__

    def payload(self, program, ctx: "PassContext") -> object:
        """What a memoised run stores (PPL only; default: the program)."""
        return program

    def restore(self, payload: object, ctx: "PassContext"):
        """Rebuild program + context side effects from a memoised payload."""
        return payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r} ir={self.ir}>"


class PplTransformation(Transformation):
    """Base of transformations over the PPL expression IR.

    :meth:`apply` is pure: it returns the input program itself when
    nothing fired and a new program otherwise.  The declarative half —
    :meth:`pattern` / :meth:`can_apply` — is what the ordering search and
    :meth:`cost_delta` consult.
    """

    ir = "ppl"

    def cost_delta(self, program: "Program", ctx: "PassContext") -> CostDelta:
        sites = self.matches(program, ctx)
        if not sites:
            return CostDelta(ir_nodes=0, sites=0)
        after = self.apply(program, ctx)
        return CostDelta(
            ir_nodes=ir_size(after.body) - ir_size(program.body),
            sites=len(sites),
        )


class ScheduleTransformation(Transformation):
    """Base of transformations over the Schedule stage tree.

    A rule implements :meth:`apply_in_place`, which mutates a (cloned)
    schedule and counts its hits; :class:`repro.schedule.rewrite.ScheduleRewriter`
    runs rule sequences that way.  ``apply_schedule`` runs this rule alone
    through a rewriter: on a clone, until it stops firing (capped at
    ``max_rounds``), with the preservation invariants asserted by
    :func:`repro.schedule.rewrite.verify_rewrite` — the framework's
    post-apply invariant checker.  The original schedule is never mutated.
    """

    ir = "schedule"
    max_rounds: int = 4

    def apply_in_place(self, schedule: "Schedule", model) -> int:
        """Rewrite ``schedule`` in place; return the number of hits.

        Each merged pair, split stage or flattened group is one hit.  The
        rewrite must uphold the invariants :func:`verify_rewrite` asserts.
        """
        raise NotImplementedError(
            f"{type(self).__name__} must implement apply_in_place or apply_schedule"
        )

    def _model(self, ctx: "PassContext"):
        from repro.sim.model import PerformanceModel

        return ctx.model if ctx.model is not None else PerformanceModel()

    def apply_schedule(
        self, schedule: "Schedule", ctx: "PassContext"
    ) -> Tuple["Schedule", Dict[str, object]]:
        from repro.schedule.rewrite import ScheduleRewriter

        result = ScheduleRewriter(rewrites=[self], max_rounds=self.max_rounds).rewrite(
            schedule, self._model(ctx)
        )
        return result.schedule, {
            "rewrite_hits": dict(result.hits),
            "rewrite_rounds": result.rounds,
        }

    def apply(self, schedule: "Schedule", ctx: "PassContext") -> "Schedule":
        rewritten, _ = self.apply_schedule(schedule, ctx)
        return rewritten

    def cost_delta(self, schedule: "Schedule", ctx: "PassContext") -> CostDelta:
        from repro.analysis.area import estimate_area_of_schedule
        from repro.analysis.traffic import schedule_traffic
        from repro.schedule.analytical import node_cycles

        model = self._model(ctx)
        sites = self.matches(schedule, ctx)
        rewritten, details = self.apply_schedule(schedule, ctx)
        before_cycles = node_cycles(schedule.root, schedule.board, model)
        after_cycles = node_cycles(rewritten.root, rewritten.board, model)
        traffic_before = schedule_traffic(schedule)
        traffic_after = schedule_traffic(rewritten)
        area_before = estimate_area_of_schedule(schedule).total
        area_after = estimate_area_of_schedule(rewritten).total
        return CostDelta(
            cycles=after_cycles - before_cycles,
            area_logic=area_after.logic - area_before.logic,
            traffic_bytes=(
                (traffic_after.read_bytes + traffic_after.write_bytes)
                - (traffic_before.read_bytes + traffic_before.write_bytes)
            ),
            sites=len(sites) if sites else sum(details["rewrite_hits"].values()),
        )
