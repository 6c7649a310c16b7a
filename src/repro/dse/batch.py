"""Batched design-point evaluation: the DSE hot loop over shared work.

:func:`evaluate_point_batch` evaluates a whole list of
:class:`~repro.dse.space.DesignPoint` objects with the work factored the
way the points actually share it:

1. **Cache first** — points already memoised in the ``point_results``
   table are served through a :class:`~repro.dse.engine.PointLedger`
   (the engine's one key derivation, hit accounting and copy-on-return).
2. **One transform run per tiled program** — the transform passes depend
   only on the tiling configuration
   (:func:`~repro.dse.cache.config_signature`), never on par,
   metapipelining or the schedule steps that follow hardware generation,
   so the remaining points group by ``(prefix pass signature, config
   signature)`` and the pass-pipeline *prefix* (everything before the
   terminal generate/schedule/area passes) runs once per group.  Variants
   with the same PPL prefix — ``default`` and ``rewrite``, or ``auto:``
   orderings that differ only in their schedule steps — share a group.
   The prefix runs through the pipeline's pass memo, the one scalar
   compiles use, where the groups of one tiling structure share each
   tiling pass's symbolic run and each group instantiates its own
   configuration (:mod:`repro.transforms.symbolic`).
3. **One design per configuration** — within a group, hardware generation
   and lowering run once per ``(tile sizes, par, metapipelining)``,
   reusing one :class:`~repro.hw.generation.GenerationShared` (workload
   env, preload plan, op counts, traffic records).  Each point then
   applies its own variant's schedule steps, each through its own
   transformation's ``apply`` (which never mutates its input).
4. **One pricing call per group, area once per design** — the group's
   schedules are timed by one
   :func:`~repro.schedule.batched.batched_cycles` call, which runs the
   scalar path's analytical walk per point.  Area is priced by one
   :func:`~repro.schedule.batched.batched_area` call (the template area
   sum) over each design's lowered schedule, once, and every point of
   that design — a ``rewrite`` point and its ``default`` twin alike —
   gets that report.  This is sound because every stock schedule step
   (``CoalesceTransfers``, ``FlattenDegenerateGroups``,
   ``RebalanceStages``, ``ScheduleRewrite``) ends in
   :meth:`~repro.schedule.rewrite.ScheduleRewriter.rewrite`, whose
   :func:`~repro.schedule.rewrite.verify_rewrite` asserts that the module
   multiset and the memory records — exactly what the area sum adds —
   are unchanged.  The template costs are quarter-integers, so their
   float sums are exact in any order: a rewritten tree listing the same
   modules in another order sums to the same bits.  A step whose
   ``apply`` or ``apply_schedule`` is not a stock one (a subclass may do
   anything) makes its points price their own schedules.
   Each result is assembled by :meth:`PointResult.from_evaluation`, as
   ``evaluate_point`` assembles its own.

Results are therefore **bit-identical** to calling ``evaluate_point`` per
point; ``tests/dse/test_batched.py`` (all six benchmarks) and a
generated-ordering differential test check the shared prefix, designs,
schedule steps and area reuse.  The ledger seeds the cache per point under
the scalar path's key, so memoisation, journal replay and farm admission
dedup cannot tell which path produced a result.

This is the engine's only in-process evaluator:
:func:`~repro.dse.engine.explore` and
:class:`~repro.dse.engine.MultiBenchmarkExplorer` hand each benchmark's
share of a search batch to one call.

The batched path takes every pipeline whose terminal tail is the stock
generate-hardware → build-schedule → schedule-level
:class:`~repro.pipeline.passes.TransformationStage`\\ s → estimate-area
sequence (stock classes: a subclass may do anything).  Other points fall
back to scalar ``evaluate_point`` individually, and every point's outcome
is counted in the caller's ``engagement`` Counter: ``"vector"`` (the
batched path, under the key the benchmarks and tests read), ``"cached"``,
or the fallback reason — ``"event-model"`` (the event backend's timeline is
stateful, not a closed form) or ``"non-stock-tail"``.
"""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.dse.cache import ANALYSIS_CACHE, config_signature
from repro.dse.results import PointResult
from repro.dse.space import DesignPoint
from repro.hw.generation import GenerationShared, generate_hardware
from repro.pipeline.passes import (
    BuildScheduleStage,
    EstimateAreaStage,
    GenerateHardwareStage,
    PassContext,
    TransformationStage,
)
from repro.pipeline.pipeline import Pipeline
from repro.ppl.program import Program
from repro.rewrite.framework import ScheduleTransformation
from repro.rewrite.schedule import ScheduleRewrite
from repro.schedule.batched import batched_area, batched_cycles
from repro.schedule.ir import Schedule
from repro.sim.model import PerformanceModel
from repro.target.device import DEFAULT_BOARD, Board
from repro.utils.naming import fresh_naming_scope

__all__ = ["evaluate_point_batch"]

_TERMINALS = (GenerateHardwareStage, BuildScheduleStage, EstimateAreaStage)


class _Tail(NamedTuple):
    """A stock pipeline split for the batched path."""

    prefix: list
    prefix_signature: tuple
    schedule_steps: list
    #: Some step's output is not checked by ``ScheduleRewriter.rewrite``,
    #: so each point prices its own schedule's area.
    own_area: bool


def _is_schedule_step(stage) -> bool:
    return isinstance(stage, TransformationStage) and stage.transformation.ir == "schedule"


#: The ``apply_schedule`` implementations that end in
#: ``ScheduleRewriter.rewrite``: a rule run alone through a rewriter, and
#: the composite rewriter (``rewrite_schedule`` or its tuning).
_VERIFIED_APPLY_SCHEDULE = (
    ScheduleTransformation.apply_schedule,
    ScheduleRewrite.apply_schedule,
)


def _keeps_inventory(stage: TransformationStage) -> bool:
    """Whether the step's output passed ``verify_rewrite`` against its input.

    True for the stock ``apply`` over a stock ``apply_schedule``: the
    module multiset and the memory records — all the area sum reads — are
    then the input's.
    """
    cls = type(stage.transformation)
    return (
        cls.apply is ScheduleTransformation.apply
        and cls.apply_schedule in _VERIFIED_APPLY_SCHEDULE
    )


def _split_terminal_tail(pipe: Pipeline) -> Optional[_Tail]:
    """The prefix and schedule steps of a stock pipeline, else None.

    The batched path replaces the terminal tail wholesale, so it only
    engages when the tail is exactly the stock sequence — generate-hardware,
    build-schedule, zero or more schedule-level transformation stages,
    estimate-area — with the stock classes (a subclass may do anything, so
    ``type`` checks, not ``isinstance``).  Anything else falls back to
    scalar evaluation.
    """
    split = len(pipe.passes)
    for index, stage in enumerate(pipe.passes):
        if isinstance(stage, _TERMINALS) or _is_schedule_step(stage):
            split = index
            break
    tail = pipe.passes[split:]
    if len(tail) < 3:
        return None
    if type(tail[0]) is not GenerateHardwareStage:
        return None
    if type(tail[1]) is not BuildScheduleStage:
        return None
    if type(tail[-1]) is not EstimateAreaStage:
        return None
    steps = list(tail[2:-1])
    if not all(
        type(stage) is TransformationStage and _is_schedule_step(stage) for stage in steps
    ):
        return None
    prefix = list(pipe.passes[:split])
    return _Tail(
        prefix,
        tuple(stage.signature() for stage in prefix),
        steps,
        not all(_keeps_inventory(stage) for stage in steps),
    )


def evaluate_point_batch(
    program: Program,
    bindings: Mapping[str, object],
    points: Sequence[DesignPoint],
    board: Board = DEFAULT_BOARD,
    model: Optional[PerformanceModel] = None,
    session=None,
    cycle_model: str = "analytical",
    engagement: Optional[Counter] = None,
) -> List[PointResult]:
    """Evaluate many design points at once; order-preserving, bit-identical.

    Semantically ``[evaluate_point(program, bindings, p, ...) for p in
    points]`` — same results, same cache entries, same errors for unknown
    pipeline genes — with the shared work factored out (see module
    docstring).  ``cycle_model="event"`` routes every point through the
    scalar path unchanged.

    ``engagement``, when given, gains one count per point under its
    outcome: ``"vector"``, ``"cached"``, ``"event-model"`` or
    ``"non-stock-tail"``.  A point that falls back counts under its reason
    even when ``evaluate_point`` then finds it memoised.
    """
    from repro.dse.engine import PointLedger, _detached, evaluate_point
    from repro.pipeline.session import CompilerSession

    points = list(points)
    if session is None:
        session = CompilerSession(board=board, model=model)
    else:
        board = session.board
        model = model if model is not None else session.model
    outcomes = engagement if engagement is not None else Counter()
    ledger = PointLedger(session, model=model)

    results: List[Optional[PointResult]] = [None] * len(points)
    keys: List[Optional[tuple]] = [None] * len(points)

    def scalar(index: int, reason: str) -> None:
        results[index] = evaluate_point(
            program,
            bindings,
            points[index],
            model=model,
            session=session,
            cycle_model=cycle_model,
        )
        outcomes[reason] += 1

    if cycle_model != "analytical":
        for index in range(len(points)):
            scalar(index, "event-model")
        return results  # type: ignore[return-value]

    tails: Dict[str, Optional[_Tail]] = {}

    def tail_for(gene: str) -> Optional[_Tail]:
        if gene not in tails:
            tails[gene] = _split_terminal_tail(session.pipeline_for(gene))
        return tails[gene]

    # -- pass 1: serve memoised points, collect the rest -----------------------
    groups: Dict[Tuple[tuple, tuple], List[int]] = {}
    for index, point in enumerate(points):
        # Raises ValueError for an unregistered pipeline gene, exactly as
        # the scalar evaluation of this point would.
        tail = tail_for(point.pipeline)
        if tail is None:
            # evaluate_point does its own lookup (and counts its own miss).
            scalar(index, "non-stock-tail")
            continue
        if ANALYSIS_CACHE.enabled:
            key = keys[index] = ledger.key(program, bindings, point, cycle_model)
            cached = ledger.lookup(key)
            if cached is not None:
                results[index] = cached
                outcomes["cached"] += 1
                continue
            if key is not None:
                ANALYSIS_CACHE.misses["point_results"] += 1
        groups.setdefault(
            (tail.prefix_signature, config_signature(point.config())), []
        ).append(index)

    def context(config, par: Optional[int]) -> PassContext:
        return PassContext(
            config=config,
            bindings=bindings,
            board=board,
            par=par,
            model=session.model,
            cache=session.cache,
        )

    # -- pass 2: one prefix run per group, one design per configuration --------
    for indices in groups.values():
        representative = points[indices[0]]
        ctx = context(representative.config(), None)
        # One (design, lowered schedule, step context) per configuration.
        designs: Dict[tuple, tuple] = {}
        built, schedules = [], []
        # The schedule each point's area is read from, by id: its design's
        # lowered one unless a step may change the inventory.
        area_schedules: Dict[int, Schedule] = {}
        area_keys: List[int] = []
        scope = fresh_naming_scope() if session.fresh_names else nullcontext()
        with scope:
            prefix = tail_for(representative.pipeline).prefix  # type: ignore[union-attr]
            tiled = Pipeline(prefix, name="batched-prefix").run(program, ctx).program
            shared = GenerationShared(tiled, bindings)
            for index in indices:
                point = points[index]
                tail = tail_for(point.pipeline)
                design_key = (point.tile_sizes, point.par, point.metapipelining)
                if design_key not in designs:
                    config = point.config()
                    design = generate_hardware(
                        tiled, config, bindings, board=board, par=point.par, shared=shared
                    )
                    designs[design_key] = (
                        design,
                        design.schedule(),
                        context(config, point.par),
                    )
                design, lowered, step_ctx = designs[design_key]
                schedule = lowered
                for stage in tail.schedule_steps:  # type: ignore[union-attr]
                    schedule = stage.transformation.apply(schedule, step_ctx)
                priced = schedule if tail.own_area else lowered  # type: ignore[union-attr]
                area_schedules.setdefault(id(priced), priced)
                area_keys.append(id(priced))
                built.append(design)
                schedules.append(schedule)
        outcomes["vector"] += len(indices)

        simulations = batched_cycles(schedules, model)
        areas = dict(zip(area_schedules, batched_area(list(area_schedules.values()))))
        for index, design, simulation, area_key in zip(indices, built, simulations, area_keys):
            result = PointResult.from_evaluation(
                points[index], simulation, areas[area_key], design
            )
            if keys[index] is not None:
                ledger.seed(keys[index], result)
                # Same copy-on-return protection as evaluate_point: the
                # cached entry must never alias a caller-mutable dict.
                result = _detached(result)
            results[index] = result

    return results  # type: ignore[return-value]

