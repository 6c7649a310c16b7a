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
   configuration (:mod:`repro.transforms.symbolic`).  The tiled program
   and its :class:`~repro.hw.generation.GenerationShared` (workload env,
   preload plan, op counts, traffic records) are kept by the session
   (:meth:`~repro.pipeline.session.CompilerSession.config_state`), keyed
   by the point key's workload head, the prefix signature and the config
   signature: a later call on the same session — a batch or a single
   point — that meets the configuration again skips the prefix and the
   per-node re-analysis.
3. **One design per configuration** — within a group, hardware generation
   and lowering run once per ``(tile sizes, par, metapipelining)`` on the
   configuration's shared state.  Each point then applies its own
   variant's schedule steps, each through its own transformation's
   ``apply`` (which never mutates its input), under the session's model,
   as a scalar compile runs them.  Designs are not kept across calls.
4. **One pricing call per group, area once per design** — the group's
   schedules are timed by one
   :func:`~repro.schedule.batched.batched_cycles` call, which runs the
   scalar path's cost model per point — the analytical walk, or an event
   run — each under the point's own model: the caller's, with the
   point's DRAM-channel gene folded in, as ``evaluate_point`` times it.
   Each call keeps one :class:`~repro.schedule.rewrite.ProfileMemo`.  It
   reaches the schedule steps through their
   :class:`~repro.pipeline.passes.PassContext`
   (:data:`~repro.schedule.rewrite.PROFILE_MEMO_KEY`), so the event
   profiles a ``rewrite-profiled`` point's balance-factor tuning takes
   are shared by the group's other tunings, and it prices the event-model
   points: a tuned point's price is the tuning's own run of its winning
   tree, and a ``default`` point under the session's model reuses the
   run that profiled its lowered tree.  A memo run equals a fresh one
   (profiling only records).  Area is priced by one
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

Steps 2–4 for one configuration are :func:`price_configuration`, which is
also how :func:`~repro.dse.engine.evaluate_point` prices a single stock
point under either cycle model with the analysis cache on: a farm request
or a pool task costs what its share of a batch would.

Results are therefore **bit-identical** to calling ``evaluate_point`` per
point; ``tests/dse/test_batched.py`` (all six benchmarks) and generated
differential tests — over pass orderings, and over event-model points
with DRAM-channel genes and both interleavings — check the shared
prefix, designs, schedule steps, area reuse and event pricing.  The
ledger seeds the cache per point under the scalar path's key, so
memoisation, journal replay and farm admission dedup cannot tell which
path produced a result.

This is the engine's only in-process batch evaluator:
:func:`~repro.dse.engine.explore` and
:class:`~repro.dse.engine.MultiBenchmarkExplorer` hand each benchmark's
share of a search batch to one call.

The batched path takes every pipeline whose terminal tail is the stock
generate-hardware → build-schedule → schedule-level
:class:`~repro.pipeline.passes.TransformationStage`\\ s → estimate-area
sequence (stock classes: a subclass may do anything), under either
cycle model.  Other points fall back to scalar ``evaluate_point``
individually, and every point's outcome is counted in the caller's
``engagement`` Counter: ``"vector"`` (the batched path, under the key the
benchmarks and tests read), ``"cached"``, or the fallback reason,
``"non-stock-tail"``.
"""

from __future__ import annotations

from collections import Counter
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
from repro.schedule.rewrite import PROFILE_MEMO_KEY, ProfileMemo
from repro.sim.model import PerformanceModel
from repro.target.device import DEFAULT_BOARD, Board

__all__ = ["evaluate_point_batch", "price_configuration"]

_TERMINALS = (GenerateHardwareStage, BuildScheduleStage, EstimateAreaStage)


class _Tail(NamedTuple):
    """A stock pipeline split for the batched path."""

    prefix: Pipeline
    prefix_signature: tuple
    schedule_steps: list
    #: Some step's output is not checked by ``ScheduleRewriter.rewrite``,
    #: so each point prices its own schedule's area.
    own_area: bool


class _ConfigState(NamedTuple):
    """One tiling configuration's tiled program and its generation state."""

    tiled: Program
    shared: GenerationShared


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
    prefix = Pipeline(pipe.passes[:split], name="batched-prefix")
    return _Tail(
        prefix,
        prefix.signature(),
        steps,
        not all(_keeps_inventory(stage) for stage in steps),
    )


def _config_state(
    program: Program,
    bindings: Mapping[str, object],
    tail: _Tail,
    config,
    session,
    head: Optional[tuple],
) -> _ConfigState:
    """The configuration's tiled program and generation state, via the session."""

    def build() -> _ConfigState:
        ctx = PassContext(
            config=config,
            bindings=bindings,
            board=session.board,
            model=session.model,
            cache=session.cache,
        )
        tiled = tail.prefix.run(program, ctx).program
        return _ConfigState(tiled, GenerationShared(tiled, bindings))

    key = (head, tail.prefix_signature, config_signature(config))
    return session.config_state(key, build)


def price_configuration(
    program: Program,
    bindings: Mapping[str, object],
    points: Sequence[DesignPoint],
    tails: Sequence[_Tail],
    session,
    models: Sequence[Optional[PerformanceModel]],
    head: Optional[tuple],
    cycle_model: str = "analytical",
) -> List[PointResult]:
    """Price points of one tiling configuration: the batched path's per-point code.

    ``points`` share one prefix signature and config signature,
    ``tails[i]`` is the stock tail of ``points[i]``'s gene and
    ``models[i]`` the model it is timed under (its DRAM-channel gene
    folded in).  The configuration's state comes from the session's memo
    (keyed with ``head``, the workload part of the points' keys); then
    generate → lower once per design, each point's own schedule steps
    under the session's model, one :func:`batched_cycles` call, and
    :func:`batched_area` once per design (see the module docstring).  One
    :class:`~repro.schedule.rewrite.ProfileMemo` per call reaches the
    schedule steps through their context and prices the event-model
    points.
    """
    state = _config_state(program, bindings, tails[0], points[0].config(), session, head)
    board = session.board
    memo = ProfileMemo()
    # One (design, lowered schedule, step context) per configuration.
    designs: Dict[tuple, tuple] = {}
    built, schedules = [], []
    # The schedule each point's area is read from, by id: its design's
    # lowered one unless a step may change the inventory.
    area_schedules: Dict[int, Schedule] = {}
    area_keys: List[int] = []
    for point, tail in zip(points, tails):
        design_key = (point.tile_sizes, point.par, point.metapipelining)
        if design_key not in designs:
            config = point.config()
            design = generate_hardware(
                state.tiled, config, bindings, board=board, par=point.par, shared=state.shared
            )
            step_ctx = PassContext(
                config=config,
                bindings=bindings,
                board=board,
                par=point.par,
                model=session.model,
                cache=session.cache,
            )
            step_ctx.artifacts[PROFILE_MEMO_KEY] = memo
            designs[design_key] = (design, design.schedule(), step_ctx)
        design, lowered, step_ctx = designs[design_key]
        schedule = lowered
        for stage in tail.schedule_steps:
            schedule = stage.transformation.apply(schedule, step_ctx)
        priced = schedule if tail.own_area else lowered
        area_schedules.setdefault(id(priced), priced)
        area_keys.append(id(priced))
        built.append(design)
        schedules.append(schedule)

    simulations = batched_cycles(schedules, models, cycle_model, memo)
    areas = dict(zip(area_schedules, batched_area(list(area_schedules.values()))))
    return [
        PointResult.from_evaluation(point, simulation, areas[area_key], design)
        for point, design, simulation, area_key in zip(points, built, simulations, area_keys)
    ]


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
    pipeline genes or cycle models — with the shared work factored out
    (see module docstring), under the analytical and the event cycle
    model alike.  Each configuration group's pricing keeps one
    :class:`~repro.schedule.rewrite.ProfileMemo`, which the group's
    schedule steps and its event-model pricing share.

    ``engagement``, when given, gains one count per point under its
    outcome: ``"vector"``, ``"cached"`` or ``"non-stock-tail"``.  A point
    that falls back counts under its reason even when ``evaluate_point``
    then finds it memoised.
    """
    from repro.dse.engine import PointLedger, _detached, _effective_model, evaluate_point
    from repro.pipeline.session import CompilerSession

    points = list(points)
    if session is None:
        session = CompilerSession(board=board, model=model)
    else:
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

    # The workload part of the configuration-memo key (the memo is
    # bypassed with the cache off).
    head = ledger.head(program, bindings) if ANALYSIS_CACHE.enabled else None
    tails: Dict[str, Optional[_Tail]] = {}

    def tail_for(gene: str) -> Optional[_Tail]:
        if gene not in tails:
            tails[gene] = session.pipeline_split(gene, _split_terminal_tail)
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

    # -- pass 2: one configuration's state and pricing per group ---------------
    for indices in groups.values():
        priced = price_configuration(
            program,
            bindings,
            [points[index] for index in indices],
            [tail_for(points[index].pipeline) for index in indices],
            session,
            [_effective_model(model, points[index]) for index in indices],
            head,
            cycle_model,
        )
        outcomes["vector"] += len(indices)
        for index, result in zip(indices, priced):
            if keys[index] is not None:
                ledger.seed(keys[index], result)
                # Same copy-on-return protection as evaluate_point: the
                # cached entry must never alias a caller-mutable dict.
                result = _detached(result)
            results[index] = result

    return results  # type: ignore[return-value]
