"""The transformation framework: one apply-only protocol over both IRs.

Every program transformation in the compiler — the Section 4 PPL pattern
transforms (:mod:`repro.rewrite.ppl`) and the schedule rewrites
(:mod:`repro.rewrite.schedule`) — is one :class:`Transformation`, the only
unit that applies a transform: a named class whose
:meth:`~Transformation.apply` is the rewrite itself (pure for the PPL IR,
clone-then-mutate with :func:`repro.schedule.rewrite.verify_rewrite` as
the post-apply invariant checker for the Schedule IR, selected by
:attr:`Transformation.ir`), plus the keys and signature the pipeline
memoises it under.

The pipeline runs a transformation through the generic
:class:`repro.pipeline.passes.TransformationStage`, which handles tiling
gating, memoisation keys and schedule-artifact plumbing uniformly;
:mod:`repro.rewrite.orderings` turns sequences of transformations into
whole pipelines and enumerates the legal orderings the DSE sweeps.
"""

from __future__ import annotations

from typing import Dict, Tuple, TYPE_CHECKING

from repro.errors import TransformError

if TYPE_CHECKING:  # pragma: no cover - import cycles at type-check time only
    from repro.pipeline.passes import PassContext
    from repro.schedule.ir import Schedule

__all__ = [
    "ScheduleTransformation",
    "Transformation",
    "TransformationError",
]


class TransformationError(TransformError):
    """A transformation was declared or applied inconsistently."""


class Transformation:
    """One rewrite of a PPL program (``ir = "ppl"``) or a schedule.

    Subclasses implement :meth:`apply`.  ``requires_tiling`` is the tiling
    gate: the pipeline stage skips the transformation entirely when the
    configuration compiles the untiled baseline, which is what lets one
    pipeline serve baseline and optimised configurations alike.
    """

    name: str = "transformation"
    ir: str = "ppl"
    requires_tiling: bool = False

    def apply(self, subject, ctx: "PassContext"):
        """Rewrite every site of the subject (program or schedule).

        A PPL apply is pure: it returns the input program itself when
        nothing fired and a new program otherwise.
        """
        raise NotImplementedError(f"{type(self).__name__} must implement apply")

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

    def apply_schedule(
        self, schedule: "Schedule", ctx: "PassContext"
    ) -> Tuple["Schedule", Dict[str, object]]:
        from repro.schedule.rewrite import ScheduleRewriter
        from repro.sim.model import PerformanceModel

        model = ctx.model if ctx.model is not None else PerformanceModel()
        result = ScheduleRewriter(rewrites=[self], max_rounds=self.max_rounds).rewrite(
            schedule, model
        )
        return result.schedule, {
            "rewrite_hits": dict(result.hits),
            "rewrite_rounds": result.rounds,
        }

    def apply(self, schedule: "Schedule", ctx: "PassContext") -> "Schedule":
        rewritten, _ = self.apply_schedule(schedule, ctx)
        return rewritten
