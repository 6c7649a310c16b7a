"""Legal transformation orderings: enumeration, guided sampling, pipelines.

A pipeline variant is just an *ordering* of framework transformations
(:mod:`repro.rewrite.ppl`, :mod:`repro.rewrite.schedule`) around the fixed
terminal passes (generate-hardware → build-schedule → estimate-area).
This module makes that space explicit and searchable:

* :func:`is_legal_ordering` — the legality predicate over step sequences
  (phase ranks plus pairwise precedence; see ``STEPS``);
* :func:`enumerate_legal_orderings` — deterministic exhaustive generator;
* :func:`guided_orderings` — seeded random sampler biased toward
  orderings that historically pay off (full cleanup, schedule rewrites);
* :func:`pipeline_for_ordering` / :func:`pipeline_for_name` — build the
  runnable :class:`~repro.pipeline.pipeline.Pipeline`.

Orderings are *self-describing* pipeline variants: the name
``auto:fusion,strip-mine,...`` encodes the full step sequence, and
:func:`repro.pipeline.variants.get_pipeline` resolves any such name, as
it resolves the named variants, from the name alone.  That makes every
legal ordering a legal value of the DSE ``pipeline`` gene in any process
— pool workers and farm lanes included.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.rewrite import ppl as ppl_t
from repro.rewrite import schedule as sched_t
from repro.rewrite.framework import Transformation, TransformationError

__all__ = [
    "AUTO_PREFIX",
    "DEFAULT_ORDERING",
    "STEPS",
    "enumerate_legal_orderings",
    "guided_orderings",
    "is_legal_ordering",
    "ordering_name",
    "parse_ordering_name",
    "pipeline_for_name",
    "pipeline_for_ordering",
]

#: Prefix of self-describing ordering variant names.
AUTO_PREFIX = "auto:"


@dataclass(frozen=True)
class Step:
    """One orderable step: a transformation factory plus ordering metadata.

    ``rank`` is the phase: steps must appear in non-decreasing rank order
    (ties order freely).  ``after`` lists steps that must precede this one
    *when both are present* — finer than ranks (e.g. ``post-cse`` after
    ``cse`` within the shared cleanup phase).
    """

    token: str
    factory: Callable[[], Transformation]
    rank: int
    required: bool = False
    after: Tuple[str, ...] = ()
    schedule: bool = False
    exclusive_schedule: bool = False


STEPS: Dict[str, Step] = {
    step.token: step
    for step in [
        Step("fusion", ppl_t.VerticalFusion, rank=0),
        Step("strip-mine", ppl_t.StripMine, rank=1, required=True),
        Step("tile-copies", ppl_t.TileCopies, rank=2, required=True),
        # The cleanup/interchange phase: any relative order is legal (the
        # late-cleanup variant is exactly "cse after interchange").
        Step("cse", ppl_t.LetCse, rank=4),
        Step("code-motion", ppl_t.InvariantCodeMotion, rank=4),
        Step("interchange", ppl_t.Interchange, rank=4),
        Step("post-cse", ppl_t.LetCse, rank=4, after=("cse",)),
        Step("post-code-motion", ppl_t.InvariantCodeMotion, rank=4, after=("code-motion",)),
        # Schedule-level steps run between build-schedule and estimate-area.
        Step("flatten-degenerate-groups", sched_t.FlattenDegenerateGroups, rank=10, schedule=True),
        Step("coalesce-transfers", sched_t.CoalesceTransfers, rank=10, schedule=True),
        Step("rebalance-stages", sched_t.RebalanceStages, rank=10, schedule=True),
        # The composites already run all three rules to quiescence; mixing
        # them with the individual steps is redundant, so they are exclusive.
        Step(
            "rewrite-schedule",
            sched_t.ScheduleRewrite,
            rank=10,
            schedule=True,
            exclusive_schedule=True,
        ),
        Step(
            "rewrite-schedule-profiled",
            lambda: sched_t.ScheduleRewrite(balance_factor="auto", cost_source="event"),
            rank=10,
            schedule=True,
            exclusive_schedule=True,
        ),
    ]
}

#: The paper's Figure 1 flow as an ordering — the ``default`` variant.
DEFAULT_ORDERING: Tuple[str, ...] = (
    "fusion",
    "strip-mine",
    "tile-copies",
    "cse",
    "code-motion",
    "interchange",
    "post-cse",
    "post-code-motion",
)

#: The three individually-orderable schedule rules, in the composite's order.
SCHEDULE_TRIPLE: Tuple[str, ...] = (
    "flatten-degenerate-groups",
    "coalesce-transfers",
    "rebalance-stages",
)


def is_legal_ordering(steps: Sequence[str]) -> Tuple[bool, str]:
    """Whether a step sequence is a legal ordering; returns (ok, reason)."""
    seen: set = set()
    previous_rank = -1
    schedule_tokens = []
    for token in steps:
        step = STEPS.get(token)
        if step is None:
            return False, f"unknown step {token!r}"
        if token in seen:
            return False, f"duplicate step {token!r}"
        seen.add(token)
        if step.rank < previous_rank:
            return False, f"{token!r} cannot follow a later-phase step"
        previous_rank = step.rank
        for prerequisite in step.after:
            if prerequisite in steps and prerequisite not in seen:
                return False, f"{token!r} must come after {prerequisite!r}"
        if step.schedule:
            schedule_tokens.append(token)
    for step in STEPS.values():
        if step.required and step.token not in seen:
            return False, f"missing required step {step.token!r}"
    if any(STEPS[t].exclusive_schedule for t in schedule_tokens) and len(schedule_tokens) > 1:
        return False, "composite schedule rewrites cannot mix with individual rules"
    return True, "ok"


def _schedule_suffixes() -> List[Tuple[str, ...]]:
    """Every legal schedule-step suffix: permuted subsets plus composites."""
    suffixes: List[Tuple[str, ...]] = [()]
    for size in range(1, len(SCHEDULE_TRIPLE) + 1):
        for subset in itertools.combinations(SCHEDULE_TRIPLE, size):
            for perm in itertools.permutations(subset):
                suffixes.append(perm)
    suffixes.append(("rewrite-schedule",))
    suffixes.append(("rewrite-schedule-profiled",))
    return suffixes


def enumerate_legal_orderings(
    include_schedule: bool = True,
    max_cleanup_steps: int = 5,
) -> Iterator[Tuple[str, ...]]:
    """Deterministically enumerate legal orderings (lazily — the space is big).

    Yields every ordering formed from: optional fusion, the required
    strip-mine → tile-copies spine, every legal arrangement of up to
    ``max_cleanup_steps`` cleanup/interchange steps, and (with
    ``include_schedule``) every legal schedule-step suffix.  Deterministic
    iteration order — same arguments, same sequence — which is what lets
    two runs sweep identical ``auto:`` genes.
    """
    cleanup_pool = ("cse", "code-motion", "interchange", "post-cse", "post-code-motion")
    suffixes = _schedule_suffixes() if include_schedule else [()]
    for use_fusion in (True, False):
        prefix = (("fusion",) if use_fusion else ()) + ("strip-mine", "tile-copies")
        for size in range(0, max_cleanup_steps + 1):
            for subset in itertools.combinations(cleanup_pool, size):
                for perm in itertools.permutations(subset):
                    ppl_steps = prefix + perm
                    legal, _ = is_legal_ordering(ppl_steps)
                    if not legal:
                        continue
                    for suffix in suffixes:
                        yield ppl_steps + suffix


def guided_orderings(seed: int, count: int) -> List[Tuple[str, ...]]:
    """Seeded biased sampling of legal orderings, deduplicated.

    The bias encodes what the benches have shown to matter: keep fusion
    (it shrinks everything downstream), run the full cleanup, prefer a
    schedule-rewrite suffix (the measured event-cycle wins all came from
    there).  Same seed ⇒ same list — the determinism the chaos regression
    asserts.
    """
    rng = random.Random(seed)
    suffixes = _schedule_suffixes()
    results: List[Tuple[str, ...]] = []
    seen: set = set()
    attempts = 0
    while len(results) < count and attempts < count * 50:
        attempts += 1
        steps: List[str] = []
        if rng.random() < 0.85:
            steps.append("fusion")
        steps.extend(("strip-mine", "tile-copies"))
        cleanup = []
        if rng.random() < 0.8:
            cleanup.extend(["cse", "code-motion"])
        if rng.random() < 0.9:
            cleanup.append("interchange")
        if rng.random() < 0.7:
            cleanup.extend(["post-cse", "post-code-motion"])
        rng.shuffle(cleanup)
        # Repair the intra-phase precedences instead of rejecting: keep
        # the shuffle's flavour, stay legal.
        cleanup = _repair_cleanup(cleanup)
        steps.extend(cleanup)
        # Bias toward suffixes with the rewrites that measurably win.
        weights = [
            3 if set(SCHEDULE_TRIPLE) <= set(suffix) or "rewrite-schedule" in suffix
            else 1
            for suffix in suffixes
        ]
        suffix = rng.choices(suffixes, weights=weights, k=1)[0]
        candidate = tuple(steps) + suffix
        legal, _ = is_legal_ordering(candidate)
        if legal and candidate not in seen:
            seen.add(candidate)
            results.append(candidate)
    return results


def _repair_cleanup(cleanup: List[str]) -> List[str]:
    """Reorder pairs that violate ``after`` constraints (stable otherwise)."""
    repaired = list(cleanup)
    for token in ("cse", "code-motion"):
        post = f"post-{token}"
        if token in repaired and post in repaired:
            if repaired.index(post) < repaired.index(token):
                repaired.remove(post)
                repaired.insert(repaired.index(token) + 1, post)
    return repaired


# ---------------------------------------------------------------------------
# Orderings as pipelines (and as self-describing variant names)
# ---------------------------------------------------------------------------


def ordering_name(steps: Sequence[str]) -> str:
    """The self-describing variant name of an ordering."""
    return AUTO_PREFIX + ",".join(steps)


def parse_ordering_name(name: str) -> Tuple[str, ...]:
    """Decode (and legality-check) an ``auto:`` variant name."""
    if not name.startswith(AUTO_PREFIX):
        raise TransformationError(f"not an ordering variant name: {name!r}")
    steps = tuple(token for token in name[len(AUTO_PREFIX) :].split(",") if token)
    legal, reason = is_legal_ordering(steps)
    if not legal:
        raise TransformationError(f"illegal ordering {name!r}: {reason}")
    return steps


def pipeline_for_ordering(steps: Sequence[str], name: Optional[str] = None):
    """Build the runnable pipeline of an ordering.

    PPL steps run first, then the fixed generate-hardware → build-schedule
    terminals, then the schedule steps, then estimate-area — the exact
    frame every hand-written variant used.  Each step's stage keeps the
    step token as its pass name, so name-addressed pipeline editing
    (``without``/``replaced``) and the session's trace reconstruction
    keep working on re-expressed variants.
    """
    from repro.pipeline.passes import (
        BuildScheduleStage,
        EstimateAreaStage,
        GenerateHardwareStage,
        TransformationStage,
    )
    from repro.pipeline.pipeline import Pipeline

    legal, reason = is_legal_ordering(steps)
    if not legal:
        raise TransformationError(f"illegal ordering {tuple(steps)!r}: {reason}")
    passes = []
    schedule_stages = []
    for token in steps:
        step = STEPS[token]
        transformation = step.factory()
        # The composite rewrites keep their transformation name
        # ("rewrite-schedule") rather than the step token: report records
        # and trace assertions address the stage by that name whichever
        # composite flavour a variant picked.
        stage_name = transformation.name if step.exclusive_schedule else token
        stage = TransformationStage(transformation, name=stage_name)
        (schedule_stages if step.schedule else passes).append(stage)
    passes.append(GenerateHardwareStage())
    passes.append(BuildScheduleStage())
    passes.extend(schedule_stages)
    passes.append(EstimateAreaStage())
    return Pipeline(passes, name=name or ordering_name(steps))


def pipeline_for_name(name: str):
    """Resolve an ``auto:`` variant name to its pipeline."""
    steps = parse_ordering_name(name)
    return pipeline_for_ordering(steps, name=name)
