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
   modules in another order sums to the same bits.
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

Every pipeline gene — a named variant or an ``auto:`` ordering — resolves
to a stock ordering (:func:`~repro.rewrite.orderings.pipeline_for_ordering`):
PPL steps, generate-hardware, build-schedule, schedule steps,
estimate-area.  Each gene's pipeline is split into its PPL prefix and its
schedule steps once per process (:func:`_split`), so every point takes
the batched path under either cycle model, and its outcome is counted in
the caller's ``engagement`` Counter: ``"vector"`` (the batched path,
under the key the benchmarks and tests read) or ``"cached"``.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.dse.cache import ANALYSIS_CACHE, config_signature
from repro.dse.results import PointResult
from repro.dse.space import DesignPoint
from repro.hw.generation import GenerationShared, generate_hardware
from repro.pipeline.passes import GenerateHardwareStage, PassContext
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.variants import get_pipeline
from repro.ppl.program import Program
from repro.schedule.batched import batched_area, batched_cycles
from repro.schedule.rewrite import PROFILE_MEMO_KEY, ProfileMemo
from repro.sim.model import PerformanceModel
from repro.target.device import DEFAULT_BOARD, Board

__all__ = ["evaluate_point_batch", "price_configuration"]


class _Split(NamedTuple):
    """A gene's pipeline split for the batched path."""

    prefix: Pipeline
    prefix_signature: tuple
    #: The schedule transformations between build-schedule and estimate-area.
    schedule_steps: tuple


class _ConfigState(NamedTuple):
    """One tiling configuration's tiled program and its generation state."""

    tiled: Program
    shared: GenerationShared


#: gene → its split, kept for the process: the variant table is constant
#: and an ``auto:`` name spells out its ordering.
_SPLITS: Dict[str, _Split] = {}


def _split(gene: str) -> _Split:
    """The PPL prefix and schedule steps of ``gene``'s pipeline, split once.

    The batched path replaces the terminal passes with its own
    generate → lower → steps → area sequence, so it keeps what comes before
    generate-hardware and the schedule steps between build-schedule and
    estimate-area.  Raises ``ValueError`` for an unknown gene, as compiling
    it would.
    """
    split = _SPLITS.get(gene)
    if split is None:
        passes = get_pipeline(gene).passes
        generate = next(
            index for index, stage in enumerate(passes) if type(stage) is GenerateHardwareStage
        )
        prefix = Pipeline(passes[:generate], name="batched-prefix")
        steps = tuple(stage.transformation for stage in passes[generate + 2 : -1])
        split = _SPLITS[gene] = _Split(prefix, prefix.signature(), steps)
    return split


def _config_state(
    program: Program,
    bindings: Mapping[str, object],
    split: _Split,
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
        tiled = split.prefix.run(program, ctx).program
        return _ConfigState(tiled, GenerationShared(tiled, bindings))

    key = (head, split.prefix_signature, config_signature(config))
    return session.config_state(key, build)


def price_configuration(
    program: Program,
    bindings: Mapping[str, object],
    points: Sequence[DesignPoint],
    splits: Sequence[_Split],
    session,
    models: Sequence[Optional[PerformanceModel]],
    head: Optional[tuple],
    cycle_model: str = "analytical",
) -> List[PointResult]:
    """Price points of one tiling configuration: the batched path's per-point code.

    ``points`` share one prefix signature and config signature,
    ``splits[i]`` is the split of ``points[i]``'s gene (:func:`_split`) and
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
    state = _config_state(program, bindings, splits[0], points[0].config(), session, head)
    board = session.board
    memo = ProfileMemo()
    # One (design, lowered schedule, step context) per configuration.
    designs: Dict[tuple, tuple] = {}
    built, schedules, design_keys = [], [], []
    for point, split in zip(points, splits):
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
        design, schedule, step_ctx = designs[design_key]
        for step in split.schedule_steps:
            schedule = step.apply(schedule, step_ctx)
        built.append(design)
        schedules.append(schedule)
        design_keys.append(design_key)

    simulations = batched_cycles(schedules, models, cycle_model, memo)
    # Each design's area, from its lowered schedule (see the module docstring).
    areas = dict(zip(designs, batched_area([lowered for _, lowered, _ in designs.values()])))
    return [
        PointResult.from_evaluation(point, simulation, areas[design_key], design)
        for point, design, simulation, design_key in zip(points, built, simulations, design_keys)
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
    outcome: ``"vector"`` or ``"cached"``.
    """
    from repro.dse.engine import PointLedger, _detached, _effective_model
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
    # The workload part of the configuration-memo key (the memo is
    # bypassed with the cache off).
    head = ledger.head(program, bindings) if ANALYSIS_CACHE.enabled else None

    # -- pass 1: serve memoised points, collect the rest -----------------------
    groups: Dict[Tuple[tuple, tuple], List[int]] = {}
    for index, point in enumerate(points):
        # Raises ValueError for an unknown pipeline gene, exactly as the
        # scalar evaluation of this point would.
        split = _split(point.pipeline)
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
            (split.prefix_signature, config_signature(point.config())), []
        ).append(index)

    # -- pass 2: one configuration's state and pricing per group ---------------
    for indices in groups.values():
        priced = price_configuration(
            program,
            bindings,
            [points[index] for index in indices],
            [_split(points[index].pipeline) for index in indices],
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
