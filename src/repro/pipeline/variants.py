"""The pipeline variants: named pass orderings the DSE can sweep.

Every variant is an *ordering of framework transformations*
(:mod:`repro.rewrite.orderings`): the default pipeline is the paper's
Figure 1 flow — fusion, strip mining, tile-copy insertion, a CSE +
code-motion cleanup, pattern interchange, a second cleanup ("we assume
that code motion has been run again after pattern interchange has
completed") — expressed as the ordering ``DEFAULT_ORDERING`` around the
fixed terminal passes, and the other named variants are edits of that
ordering.  Results are bit-identical to the original hand-written stages:
each framework transformation applies the same proven pass implementation
(guarded by the golden Figure 7 numbers and the session-equivalence
suite).

The variant table is a constant map from name to step ordering, and
:func:`get_pipeline` builds a name's pipeline through
:func:`~repro.rewrite.orderings.pipeline_for_ordering`, just as it builds
the self-describing ``auto:fusion,strip-mine,...`` names
(:func:`~repro.rewrite.orderings.pipeline_for_name`).  A variant name is
also a gene on :class:`~repro.dse.space.DesignPoint`, so every search
strategy sweeps transform orderings alongside tile sizes and parallelism,
and since both kinds of name resolve without process state, so do pool
workers and farm lanes.  Sweeping a new transformation means adding a
:class:`~repro.rewrite.orderings.Step` for it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

from repro.pipeline.pipeline import Pipeline
from repro.rewrite.framework import TransformationError
from repro.rewrite.orderings import (
    AUTO_PREFIX,
    DEFAULT_ORDERING,
    pipeline_for_name,
    pipeline_for_ordering,
)

__all__ = [
    "default_passes",
    "default_pipeline",
    "get_pipeline",
    "pipeline_variants",
    "variant_signature",
]


def _without(*dropped: str) -> Tuple[str, ...]:
    return tuple(step for step in DEFAULT_ORDERING if step not in dropped)


#: Every named variant's step ordering.
_VARIANTS: Dict[str, Tuple[str, ...]] = {
    "default": DEFAULT_ORDERING,
    # Skip vertical fusion: patterns are tiled and scheduled as written.
    "no-fusion": _without("fusion"),
    # Skip both CSE cleanups: duplicate tile copies survive into hardware.
    "no-cse": _without("cse", "post-cse"),
    # Run the cleanup only once, after interchange — a legal reordering
    # that trades duplicate pre-interchange copies for one fewer sweep.
    "late-cleanup": _without("cse", "code-motion"),
    # Optimise the schedule before timing and emission: transfer
    # coalescing, stage rebalancing and degenerate-group flattening run on
    # the lowered schedule (repro.schedule.rewrite), so the cycle backends,
    # the area/traffic inventories and the MaxJ emitter all consume the
    # rewritten structure.  Off in "default", which stays bit-identical to
    # the golden Figure 7 numbers.
    "rewrite": DEFAULT_ORDERING + ("rewrite-schedule",),
    # The profile-guided rewriter: stage rebalancing priced from measured
    # event-backend stage profiles (contention and backpressure included)
    # with the balance factor tuned per schedule by scoring rewritten
    # candidates on the event backend.  Costs one event run per distinct
    # tree the tuning sees at compile time; "rewrite" stays the cheap
    # closed-form variant.
    "rewrite-profiled": DEFAULT_ORDERING + ("rewrite-schedule-profiled",),
}


def default_passes():
    """Fresh instances of the full Figure 1 pass sequence.

    ``build-schedule`` sits between hardware generation and area
    estimation: it lowers the design to the explicit metapipeline Schedule
    every downstream backend (cycle simulation, area, traffic, codegen)
    consumes.
    """
    return list(default_pipeline().passes)


def default_pipeline() -> Pipeline:
    """The paper's full flow as a pipeline."""
    return pipeline_for_ordering(DEFAULT_ORDERING, name="default")


def pipeline_variants() -> List[str]:
    """Names of every named pipeline variant (``auto:`` names are not listed)."""
    return sorted(_VARIANTS)


#: Memoised per-gene pass-sequence signatures.  Point-result cache keys
#: embed these on the DSE hot path, where building the gene's pipeline per
#: lookup would dominate warm evaluations.
_SIGNATURES: Dict[str, tuple] = {}


def variant_signature(name: str) -> tuple:
    """The (memoised) pass-sequence signature of a variant name.

    Raises ``ValueError`` for unresolvable names, like :func:`get_pipeline`.
    """
    signature = _SIGNATURES.get(name)
    if signature is None:
        signature = _SIGNATURES[name] = get_pipeline(name).signature()
    return signature


def get_pipeline(spec: Union[str, Pipeline, None]) -> Pipeline:
    """Resolve a pipeline: None → default, a name → a fresh pipeline of its
    ordering, a Pipeline → itself.  Raises ``ValueError`` for an unknown
    name or an illegal ``auto:`` ordering."""
    if spec is None:
        return default_pipeline()
    if isinstance(spec, Pipeline):
        return spec
    if spec.startswith(AUTO_PREFIX):
        try:
            return pipeline_for_name(spec)
        except TransformationError as exc:
            raise ValueError(str(exc)) from None
    try:
        ordering = _VARIANTS[spec]
    except KeyError:
        raise ValueError(
            f"unknown pipeline variant {spec!r}; available: {pipeline_variants()}"
        ) from None
    return pipeline_for_ordering(ordering, name=spec)
