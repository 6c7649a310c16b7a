"""The pipeline-variant registry: named pass orderings the DSE can sweep.

Every variant is an *ordering of framework transformations*
(:mod:`repro.rewrite.orderings`): the default pipeline is the paper's
Figure 1 flow — fusion, strip mining, tile-copy insertion, a CSE +
code-motion cleanup, pattern interchange, a second cleanup ("we assume
that code motion has been run again after pattern interchange has
completed") — expressed as the ordering ``DEFAULT_ORDERING`` around the
fixed terminal passes, and the hand-registered variants are edits of that
ordering.  Results are bit-identical to the original hand-written stages:
each framework transformation applies the same proven pass implementation
(guarded by the golden Figure 7 numbers and the session-equivalence
suite).

Variants are *factories* keyed by name; :func:`get_pipeline` resolves a
name (or passes a :class:`~repro.pipeline.pipeline.Pipeline` instance
through).  Because a variant name is also a gene on
:class:`~repro.dse.space.DesignPoint`, registering a new variant makes it
sweepable by every search strategy with no engine changes: the point's
``pipeline`` field is resolved here at compile time.

Two kinds of names resolve:

* **registered names** (``"default"``, ``"rewrite"``, anything passed to
  :func:`register_pipeline_variant` — duplicates are rejected unless
  ``replace=True``);
* **self-describing ordering names** (``"auto:fusion,strip-mine,..."``)
  — decoded and legality-checked by :mod:`repro.rewrite.orderings` with
  no registry state at all, so auto-generated orderings survive process
  boundaries (DSE pool workers, farm lanes) for free.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Union

from repro.pipeline.pipeline import Pipeline

__all__ = [
    "default_passes",
    "default_pipeline",
    "get_pipeline",
    "register_pipeline_variant",
    "pipeline_variants",
    "registry_generation",
    "variant_signature",
]


def default_passes():
    """Fresh instances of the full Figure 1 pass sequence.

    ``build-schedule`` sits between hardware generation and area
    estimation: it lowers the design to the explicit metapipeline Schedule
    every downstream backend (cycle simulation, area, traffic, codegen)
    consumes.
    """
    from repro.rewrite.orderings import DEFAULT_ORDERING, pipeline_for_ordering

    return list(pipeline_for_ordering(DEFAULT_ORDERING, name="default").passes)


def default_pipeline() -> Pipeline:
    """The paper's full flow as a pipeline."""
    from repro.rewrite.orderings import DEFAULT_ORDERING, pipeline_for_ordering

    return pipeline_for_ordering(DEFAULT_ORDERING, name="default")


def _ordering_variant(steps, name: str) -> Pipeline:
    from repro.rewrite.orderings import pipeline_for_ordering

    return pipeline_for_ordering(steps, name=name)


def _without(ordering, *dropped) -> tuple:
    return tuple(step for step in ordering if step not in dropped)


def _default_ordering() -> tuple:
    from repro.rewrite.orderings import DEFAULT_ORDERING

    return DEFAULT_ORDERING


_VARIANTS: Dict[str, Callable[[], Pipeline]] = {
    "default": default_pipeline,
    # Skip vertical fusion: patterns are tiled and scheduled as written.
    "no-fusion": lambda: _ordering_variant(
        _without(_default_ordering(), "fusion"), "no-fusion"
    ),
    # Skip both CSE cleanups: duplicate tile copies survive into hardware.
    "no-cse": lambda: _ordering_variant(
        _without(_default_ordering(), "cse", "post-cse"), "no-cse"
    ),
    # Run the cleanup only once, after interchange — a legal reordering
    # that trades duplicate pre-interchange copies for one fewer sweep.
    "late-cleanup": lambda: _ordering_variant(
        _without(_default_ordering(), "cse", "code-motion"), "late-cleanup"
    ),
    # Iterate the post-interchange cleanup (CSE + code motion) to a fixed
    # point instead of exactly once.
    "fixed-point-cleanup": lambda: default_pipeline()
    .fixed_point(["post-cse", "post-code-motion"])
    .renamed("fixed-point-cleanup"),
    # Optimise the schedule before timing and emission: transfer
    # coalescing, stage rebalancing and degenerate-group flattening run on
    # the lowered schedule (repro.schedule.rewrite), so the cycle backends,
    # the area/traffic inventories and the MaxJ emitter all consume the
    # rewritten structure.  Off in "default", which stays bit-identical to
    # the golden Figure 7 numbers.
    "rewrite": lambda: _ordering_variant(
        _default_ordering() + ("rewrite-schedule",), "rewrite"
    ),
    # The profile-guided rewriter: stage rebalancing priced from measured
    # event-backend stage profiles (contention and backpressure included)
    # with the balance factor tuned per schedule by scoring rewritten
    # candidates on the event backend.  Costs one event run per distinct
    # tree the tuning sees at compile time; "rewrite" stays the cheap
    # closed-form variant.
    "rewrite-profiled": lambda: _ordering_variant(
        _default_ordering() + ("rewrite-schedule-profiled",), "rewrite-profiled"
    ),
}


def pipeline_variants() -> List[str]:
    """Names of every registered pipeline variant (``auto:`` names resolve
    without registration and are not listed)."""
    return sorted(_VARIANTS)


#: Memoised per-variant pass-sequence signatures.  Point-result cache keys
#: embed these on the DSE hot path, where re-instantiating the variant's
#: pipeline per lookup would dominate warm evaluations.
_SIGNATURES: Dict[str, tuple] = {}

#: Bumped by every registration, so a memo of what a variant name resolves
#: to (:meth:`~repro.pipeline.session.CompilerSession.pipeline_split`)
#: knows to resolve it again.
_GENERATION = 0


def register_pipeline_variant(
    name: str, factory: Callable[[], Pipeline], replace: bool = False
) -> None:
    """Register a named pipeline variant.

    The factory is invoked per resolution, so variants never share mutable
    pass state across resolutions; a session's DSE evaluators reuse one
    resolution's schedule steps until the next registration
    (:meth:`~repro.pipeline.session.CompilerSession.pipeline_split`).
    Registering a name makes it a legal value of the ``pipeline`` gene in
    :func:`repro.dse.space.default_space`.

    Duplicate names are rejected (two call sites silently fighting over
    one gene value corrupts DSE results); pass ``replace=True`` to
    overwrite deliberately.  Names starting with ``auto:`` are reserved
    for self-describing ordering variants and resolve without the
    registry.
    """
    global _GENERATION
    from repro.rewrite.orderings import AUTO_PREFIX

    if name.startswith(AUTO_PREFIX):
        raise ValueError(
            f"variant names starting with {AUTO_PREFIX!r} are reserved for "
            "self-describing orderings (repro.rewrite.orderings) and need "
            "no registration"
        )
    if not replace and name in _VARIANTS:
        raise ValueError(
            f"pipeline variant {name!r} is already registered; pass "
            "replace=True to overwrite it deliberately"
        )
    _VARIANTS[name] = factory
    _SIGNATURES.pop(name, None)
    _GENERATION += 1


def registry_generation() -> int:
    """How many registrations the variant registry has seen."""
    return _GENERATION


def variant_signature(name: str) -> tuple:
    """The (memoised) pass-sequence signature of a variant name.

    Raises ``ValueError`` for unresolvable names, like :func:`get_pipeline`.
    """
    if name not in _SIGNATURES:
        _SIGNATURES[name] = get_pipeline(name).signature()
    return _SIGNATURES[name]


def get_pipeline(spec: Union[str, Pipeline, None]) -> Pipeline:
    """Resolve a pipeline: None → default, a name → its variant, a Pipeline →
    itself.  ``auto:``-prefixed names decode to ordering pipelines without
    touching the registry."""
    if spec is None:
        return default_pipeline()
    if isinstance(spec, Pipeline):
        return spec
    if spec.startswith("auto:"):
        from repro.rewrite.framework import TransformationError
        from repro.rewrite.orderings import pipeline_for_name

        try:
            return pipeline_for_name(spec)
        except TransformationError as exc:
            raise ValueError(str(exc)) from None
    try:
        factory = _VARIANTS[spec]
    except KeyError:
        raise ValueError(
            f"unknown pipeline variant {spec!r}; available: {pipeline_variants()}"
        ) from None
    return factory()
