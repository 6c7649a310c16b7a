"""Schedule-level rewriting: optimise the metapipeline schedule before timing.

The Schedule IR makes the metapipeline an explicit artifact; this module
makes it an *optimisable* one.  A :class:`ScheduleRewriter` clones a
schedule and applies a sequence of rules — the schedule transformations of
:mod:`repro.rewrite.schedule` (degenerate-group flattening, transfer
coalescing, stage rebalancing) — to the stage tree; the hardware inventory
is never touched, only *when* things run.  Stage rebalancing is priced by
the analytical model's walk (:func:`repro.schedule.analytical.node_cycles`)
or by event-backend stage profiles;
:func:`tune_balance_factor` picks its balance factor per schedule by
scoring rewritten candidates with the event backend
(``balance_factor="auto"`` in :func:`rewrite_schedule`), and a
:class:`ProfileMemo` runs the event backend once per distinct tree
(:func:`tree_fingerprint`), so the candidates share their profiles.

Every rewrite preserves three invariants, asserted after rewriting by
:func:`verify_rewrite` (raising
:class:`~repro.errors.ScheduleRewriteError` on violation):

1. the **memory inventory** is identical (same :class:`MemoryNode` records);
2. the **module multiset** is identical — merged/flattened nodes absorb
   their partners' hardware modules into ``extra_modules``, so the area
   model aggregates the same totals before and after;
3. the **total DRAM traffic** is identical, per direction and per source
   array (:func:`repro.analysis.traffic.schedule_traffic` totals).

The rewriter never mutates its input: the design's cached schedule stays
bit-identical (the golden Figure 7 numbers are computed from it), and the
rewritten copy becomes the compilation's schedule only when the
``rewrite-schedule`` pipeline stage ran (the ``rewrite`` pipeline
variant), from where the cycle backends time it and the MaxJ emitter
renders it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ScheduleRewriteError
from repro.schedule.event import EventScheduleBackend, StageProfile
from repro.schedule.ir import (
    Schedule,
    ScheduleNode,
    StageGroup,
    StreamNode,
    TransferNode,
)
from repro.sim.metrics import SimulationResult
from repro.sim.model import PerformanceModel

if TYPE_CHECKING:  # pragma: no cover - the rules import this module
    from repro.rewrite.framework import ScheduleTransformation

__all__ = [
    "BALANCE_FACTOR_CANDIDATES",
    "COST_SOURCES",
    "DEFAULT_BALANCE_FACTOR",
    "PROFILE_MEMO_KEY",
    "ProfileMemo",
    "RewriteResult",
    "ScheduleRewriter",
    "clone_schedule",
    "rewrite_schedule",
    "tree_fingerprint",
    "tune_balance_factor",
    "verify_rewrite",
]

#: Stages whose cycle estimate is below ``slowest / factor`` count as
#: under-full (merge candidates); a group stage above ``factor × the rest``
#: is a bottleneck (split candidate).
DEFAULT_BALANCE_FACTOR = 2.0

#: The factors :func:`tune_balance_factor` scores when asked to pick one
#: per schedule (``balance_factor="auto"``).
BALANCE_FACTOR_CANDIDATES = (1.25, 1.5, 2.0, 3.0, 4.0)

#: Legal stage-cost oracles for :class:`~repro.rewrite.schedule.RebalanceStages`.
COST_SOURCES = ("analytical", "event")

#: ``PassContext.artifacts`` key of a :class:`ProfileMemo` shared by the
#: schedule steps of several compiles: the batched DSE path
#: (:func:`repro.dse.batch.price_configuration`) sets one per call, so the
#: balance-factor tuning of one point reuses event runs another point's
#: tuning made, and the points are priced from those runs.  Absent: each
#: step profiles through a memo of its own.
PROFILE_MEMO_KEY = "_profile_memo"


# ---------------------------------------------------------------------------
# Cloning
# ---------------------------------------------------------------------------


def _clone_node(node: ScheduleNode) -> ScheduleNode:
    """Deep-copy the stage tree; hardware modules stay shared by reference."""
    if isinstance(node, StageGroup):
        return type(node)(
            name=node.name,
            module=node.module,
            extra_modules=list(node.extra_modules),
            stages=[_clone_node(stage) for stage in node.stages],
            iterations=node.iterations,
        )
    return replace(node, extra_modules=list(node.extra_modules))


def clone_schedule(schedule: Schedule) -> Schedule:
    """A structurally independent copy of a schedule.

    Stage-tree nodes are fresh objects (the rewrites mutate them freely);
    modules, memory records and the board are shared — they are immutable
    inventory the rewriter must preserve anyway.
    """
    return Schedule(
        name=schedule.name,
        program_name=schedule.program_name,
        config_label=schedule.config_label,
        root=_clone_node(schedule.root),
        memories=list(schedule.memories),
        board=schedule.board,
        output_bytes=schedule.output_bytes,
        main_memory_read_bytes=schedule.main_memory_read_bytes,
        main_memory_write_bytes=schedule.main_memory_write_bytes,
        notes=list(schedule.notes),
    )


# ---------------------------------------------------------------------------
# Event profiles shared between equal trees
# ---------------------------------------------------------------------------

#: Fields no cycle backend reads: hardware references (rewrites move them
#: between nodes freely), the memory inventory and free-form notes.
_UNTIMED_FIELDS = frozenset({"module", "extra_modules", "memories", "notes"})


@lru_cache(maxsize=None)
def _timed_fields(cls: type) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.name not in _UNTIMED_FIELDS)


def tree_fingerprint(node: Union[Schedule, ScheduleNode]) -> tuple:
    """A hashable key: trees with equal keys simulate identically.

    Takes the class and every dataclass field of every node (and of the
    :class:`Schedule` itself) except the hardware references, the memory
    inventory and the notes, so node names — which key
    ``per_module_cycles`` and pick the DRAM channel — are in, and a field
    added to the IR later is in by default.
    """
    key = [type(node)]
    for name in _timed_fields(type(node)):
        value = getattr(node, name)
        if name == "stages":
            value = tuple(tree_fingerprint(stage) for stage in value)
        elif name == "root":
            value = tree_fingerprint(value)
        key.append(value)
    return tuple(key)


class ProfileMemo:
    """Event runs keyed by model and tree, each tree simulated once.

    One run yields both the price (:class:`SimulationResult`) and the
    stage profile of every metapipeline.  The event backend keys
    profiles by ``id()`` of the group it ran; the memo stores them by
    pre-order position instead, and :meth:`profiles` maps them onto the
    caller's live tree, so any tree equal to the profiled one can use them.
    Resolve before mutating the tree: a merge shifts nested positions.
    """

    def __init__(self) -> None:
        self._entries: Dict[tuple, Tuple[SimulationResult, Dict[int, StageProfile]]] = {}
        #: Event simulations run, and requests an earlier run served.
        self.runs = 0
        self.reuses = 0

    def _entry(self, schedule: Schedule, model: PerformanceModel):
        key = (model, tree_fingerprint(schedule))
        entry = self._entries.get(key)
        if entry is not None:
            self.reuses += 1
            return entry
        backend = EventScheduleBackend(model, profile=True)
        result = backend.run(schedule)
        position = {id(node): index for index, node in enumerate(schedule.walk())}
        profiles = {position[group]: p for group, p in backend.stage_profiles.items()}
        self.runs += 1
        entry = self._entries[key] = (result, profiles)
        return entry

    def simulate(self, schedule: Schedule, model: PerformanceModel) -> SimulationResult:
        """The event backend's result for ``schedule``."""
        return self._entry(schedule, model)[0]

    def profiles(
        self, schedule: Schedule, model: PerformanceModel
    ) -> Dict[int, StageProfile]:
        """Stage profiles keyed by ``id()`` of ``schedule``'s live groups."""
        by_position = self._entry(schedule, model)[1]
        nodes = list(schedule.walk())
        return {id(nodes[index]): p for index, p in by_position.items()}


# ---------------------------------------------------------------------------
# Legality: the preservation invariants every rewrite must uphold
# ---------------------------------------------------------------------------


def _inventory(schedule: Schedule) -> Tuple[Counter, int, int, frozenset]:
    """What :func:`verify_rewrite` compares, from one walk of the tree.

    Returns the module-id multiset (tree modules, absorbed
    ``extra_modules`` and the memory inventory, as
    :meth:`Schedule.modules` lists them), the DRAM read and write totals
    and the set of transferred source arrays, each as
    :func:`~repro.analysis.traffic.schedule_traffic` derives it: a
    transfer's or stream's bytes times the iterations of its enclosing
    groups, a stream's ``store_bytes`` counted as writes under the record
    name ``<name>_store``, and coalesced sources split on ``'+'``.  The
    leaves are visited in preorder, so the byte totals add in the
    inventory's order.
    """
    ids: List[int] = []
    sources: List[str] = []
    reads = writes = 0
    stack: List[Tuple[ScheduleNode, int]] = [(schedule.root, 1)]
    while stack:
        node, trips = stack.pop()
        if node.module is not None:
            ids.append(id(node.module))
        ids.extend(map(id, node.extra_modules))
        if isinstance(node, StageGroup):
            inner = trips * max(1, node.iterations)
            stack.extend((stage, inner) for stage in reversed(node.stages))
        elif isinstance(node, TransferNode):
            if node.direction == "store":
                writes += node.bytes_per_invocation * trips
            elif node.direction in ("load", "stream"):
                reads += node.bytes_per_invocation * trips
            sources.extend((node.source or node.name).split("+"))
        elif isinstance(node, StreamNode):
            reads += node.read_bytes * trips
            sources.extend((node.source or node.name).split("+"))
            if node.store_bytes:
                writes += node.store_bytes * trips
                sources.extend((node.source or f"{node.name}_store").split("+"))
    ids.extend(id(memory.module) for memory in schedule.memories)
    return Counter(ids), reads, writes, frozenset(sources)


def verify_rewrite(original: Schedule, rewritten: Schedule) -> None:
    """Assert the rewritten schedule preserves what rewrites must not change.

    Raises :class:`~repro.errors.ScheduleRewriteError` when the memory
    inventory, the hardware module multiset, the total DRAM traffic per
    direction, or the set of transferred source arrays differ between the
    schedules.
    The checks are exact — a rewriter that loses a transfer's bytes, drops
    a command generator or forgets a double buffer fails loudly rather
    than silently reporting optimistic cycles.  Each tree is walked once
    (:func:`_inventory`); the totals equal the module list and the
    :func:`~repro.analysis.traffic.schedule_traffic` inventory they stand
    for.
    """
    if [id(memory) for memory in original.memories] != [
        id(memory) for memory in rewritten.memories
    ]:
        raise ScheduleRewriteError(
            f"rewrite of {original.name!r} changed the memory inventory "
            f"({len(original.memories)} -> {len(rewritten.memories)} records)"
        )

    before, reads_before, writes_before, sources_before = _inventory(original)
    after, reads_after, writes_after, sources_after = _inventory(rewritten)
    if before != after:
        lost = sum((before - after).values())
        gained = sum((after - before).values())
        raise ScheduleRewriteError(
            f"rewrite of {original.name!r} changed the module inventory "
            f"({lost} module(s) lost, {gained} gained)"
        )

    for label, a, b in (
        ("read", reads_before, reads_after),
        ("write", writes_before, writes_after),
    ):
        if a != b:
            raise ScheduleRewriteError(
                f"rewrite of {original.name!r} changed total DRAM {label} "
                f"traffic: {a:,} -> {b:,} bytes"
            )

    # Coalesced transfers join their sources with '+': every constituent
    # array must still be transferred somewhere.
    if sources_before != sources_after:
        raise ScheduleRewriteError(
            f"rewrite of {original.name!r} dropped (or invented) a DRAM source array"
        )


# ---------------------------------------------------------------------------
# The rewriter
# ---------------------------------------------------------------------------


@dataclass
class RewriteResult:
    """Outcome of rewriting one schedule."""

    original: Schedule
    schedule: Schedule
    hits: Dict[str, int] = field(default_factory=dict)
    rounds: int = 0
    #: The balance factor the rebalancer actually ran with — the tuned
    #: value when ``balance_factor="auto"`` selected one per schedule.
    balance_factor: Optional[float] = None
    #: The event simulations this rewrite ran through its
    #: :class:`ProfileMemo` and the requests an earlier run served (for a
    #: tuned result, the whole tuning's).
    event_runs: int = 0
    event_reuses: int = 0

    @property
    def total_hits(self) -> int:
        return sum(self.hits.values())

    @property
    def changed(self) -> bool:
        return self.total_hits > 0

    def summary(self) -> str:
        fired = ", ".join(f"{name}×{count}" for name, count in self.hits.items() if count)
        return (
            f"rewrite {self.schedule.name}: {self.total_hits} hits in "
            f"{self.rounds} round(s)" + (f" ({fired})" if fired else " (no-op)")
        )


class ScheduleRewriter:
    """Apply a rule sequence to a schedule until it stops firing.

    Each rule is a :class:`~repro.rewrite.framework.ScheduleTransformation`
    run through its ``apply_in_place``.  The input schedule is
    cloned first — the design's cached schedule (and everything keyed on
    it, including the golden analytical numbers) is never mutated.  Rules
    run in order, the whole sequence repeating up to ``max_rounds`` times
    or until a round fires nothing (flattening can expose coalescing
    opportunities, coalescing feeds rebalancing).  The preservation
    invariants are asserted once, on the final schedule.

    The default rebalancer profiles through ``memo`` (a fresh
    :class:`ProfileMemo` unless one is shared in), so rounds that leave
    the tree unchanged reuse its event run.  A result's ``event_runs`` and
    ``event_reuses`` count that :meth:`rewrite` call's requests only.
    """

    def __init__(
        self,
        rewrites: Optional[Sequence["ScheduleTransformation"]] = None,
        balance_factor: float = DEFAULT_BALANCE_FACTOR,
        max_rounds: int = 4,
        cost_source: str = "analytical",
        memo: Optional[ProfileMemo] = None,
    ) -> None:
        self.balance_factor = balance_factor
        self.memo = memo if memo is not None else ProfileMemo()
        if rewrites is None:
            # The rules import this module's cost oracle and profile memo.
            from repro.rewrite.schedule import (
                CoalesceTransfers,
                FlattenDegenerateGroups,
                RebalanceStages,
            )

            rewrites = [
                FlattenDegenerateGroups(),
                CoalesceTransfers(),
                RebalanceStages(
                    balance_factor=balance_factor,
                    cost_source=cost_source,
                    memo=self.memo,
                ),
            ]
        self.rewrites: List["ScheduleTransformation"] = list(rewrites)
        self.max_rounds = max(1, max_rounds)

    def rewrite(
        self, schedule: Schedule, model: Optional[PerformanceModel] = None
    ) -> RewriteResult:
        model = model or PerformanceModel()
        runs, reuses = self.memo.runs, self.memo.reuses
        working = clone_schedule(schedule)
        hits: Dict[str, int] = {rewrite.name: 0 for rewrite in self.rewrites}
        rounds = 0
        for _ in range(self.max_rounds):
            fired = 0
            for rewrite in self.rewrites:
                count = rewrite.apply_in_place(working, model)
                hits[rewrite.name] += count
                fired += count
            rounds += 1
            if fired == 0:
                break
        verify_rewrite(schedule, working)
        return RewriteResult(
            original=schedule,
            schedule=working,
            hits=hits,
            rounds=rounds,
            balance_factor=self.balance_factor,
            event_runs=self.memo.runs - runs,
            event_reuses=self.memo.reuses - reuses,
        )


def tune_balance_factor(
    schedule: Schedule,
    model: Optional[PerformanceModel] = None,
    candidates: Sequence[float] = BALANCE_FACTOR_CANDIDATES,
    cost_source: str = "analytical",
    memo: Optional[ProfileMemo] = None,
) -> RewriteResult:
    """Rewrite with the balance factor that minimises event-backend cycles.

    Rewrites a clone of ``schedule`` once per candidate factor and scores
    each outcome with the event backend (the model whose overlap, stall
    and contention effects rebalancing actually changes).  Deterministic:
    candidates are scored in order and a later candidate must be strictly
    better to displace an earlier one, so ties resolve to the smallest
    factor — the most conservative rebalancing among equals.

    One :class:`ProfileMemo` serves the whole tuning, so each distinct
    tree is simulated once: the candidates share their first-round
    profile, and a candidate whose last round fired nothing is priced
    from that round's profile.  ``memo`` shares one across tunings (and
    with whoever prices the result); without it the tuning has its own.
    Returns the winning candidate's :class:`RewriteResult`, carrying the
    tuned ``balance_factor`` and this tuning's event runs and reuses.
    """
    model = model or PerformanceModel()
    memo = memo if memo is not None else ProfileMemo()
    runs, reuses = memo.runs, memo.reuses
    best: Optional[RewriteResult] = None
    best_cycles = float("inf")
    for factor in candidates:
        result = ScheduleRewriter(
            balance_factor=factor, cost_source=cost_source, memo=memo
        ).rewrite(schedule, model)
        cycles = memo.simulate(result.schedule, model).cycles
        if cycles < best_cycles:
            best_cycles = cycles
            best = result
    if best is None:
        best = ScheduleRewriter(cost_source=cost_source, memo=memo).rewrite(
            schedule, model
        )
    best.event_runs = memo.runs - runs
    best.event_reuses = memo.reuses - reuses
    return best


def rewrite_schedule(
    schedule: Schedule,
    model: Optional[PerformanceModel] = None,
    rewrites: Optional[Sequence["ScheduleTransformation"]] = None,
    balance_factor: Union[float, str] = DEFAULT_BALANCE_FACTOR,
    cost_source: str = "analytical",
    memo: Optional[ProfileMemo] = None,
) -> RewriteResult:
    """Rewrite one schedule with the default (or a custom) rewrite sequence.

    ``balance_factor="auto"`` tunes the factor per schedule
    (:func:`tune_balance_factor`, whose winning rewrite is the result);
    ``cost_source`` selects the rebalancer's stage-cost oracle
    (``"analytical"`` closed forms or measured ``"event"`` profiles).  Both
    only shape the default rewrite sequence — an explicit ``rewrites``
    list is used as given, with the tuned factor recorded.  ``memo``, when
    given, is the :class:`ProfileMemo` the tuning and the default
    rebalancer profile through.  A rewrite that fired leaves its
    :meth:`RewriteResult.summary` in the rewritten schedule's notes (which
    the emitters print and no backend times).
    """
    result = None
    factor = balance_factor
    if factor == "auto":
        tuned = tune_balance_factor(schedule, model, cost_source=cost_source, memo=memo)
        factor = tuned.balance_factor
        if rewrites is None:
            result = tuned
    if result is None:
        result = ScheduleRewriter(
            rewrites=rewrites, balance_factor=factor, cost_source=cost_source, memo=memo
        ).rewrite(schedule, model)
    if result.changed:
        result.schedule.notes.append(result.summary())
    return result
