"""The design-space exploration engine: prune → search → evaluate → rank.

:func:`explore` drives the paper's central loop — tile a parallel-pattern
program, generate a hardware design, estimate area and cycles — over a
whole :class:`~repro.dse.space.DesignSpace` instead of one hand-picked
configuration per benchmark:

1. every point is scored by the closed-form area estimator and points that
   cannot fit the board are discarded before any compilation work;
2. a search strategy (:mod:`repro.dse.search`) decides which surviving
   points to evaluate — the exhaustive grid by default, annealing when the
   space is too big to enumerate — and the engine evaluates its batches
   under supervision: in-process through the batched backend
   (:func:`repro.dse.batch.evaluate_point_batch`), across a
   ``multiprocessing`` pool, or through a compile farm;
3. results come back Pareto-ranked on (cycles, area).

:func:`explore` and :class:`MultiBenchmarkExplorer` share one evaluation
core: :func:`_build_lane` builds one *lane* per benchmark (shape-only
workload, pruned space, search driver) and :func:`_explore_lanes` drives
the lanes round-robin through one evaluator — journal replay, evaluation,
quarantine, journaling.  :class:`PointLedger` owns what every evaluation
path must agree on about a point: its ``point_results`` key (derived in
:func:`_point_key` only), the checkpoint-journal digest over that key, the
cache lookup, and the seeding of results computed elsewhere.  The batched
backend and the compile farm (:mod:`repro.serve.farm`) use it too.

Whole point evaluations are memoised in the analysis cache
(``point_results`` table) keyed on the program's structural hash, the
workload signature, the point and the board — and, with ``disk_cache=``,
persisted across processes so repeated sweeps and CI runs skip compilation
entirely for points they have seen before.

:func:`evaluate_config` is the shared single-configuration path; the
Figure 7 harness routes its three-configuration sweep through it so the
whole evaluation stack benefits from the same caches.
"""

from __future__ import annotations

import hashlib
import io
import pickle
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import astuple, dataclass, field, replace
from functools import lru_cache
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.apps import get_benchmark
from repro.apps.base import Benchmark
from repro.config import CompileConfig
from repro.dse.cache import ANALYSIS_CACHE, env_signature
from repro.dse.resilience import (
    CheckpointJournal,
    ResiliencePolicy,
    SupervisedEvaluator,
    corrupt_result,
)
from repro.dse.results import PointResult
from repro.errors import FarmError
from repro.dse.space import (
    DesignPoint,
    DesignSpace,
    default_space,
    estimate_point_area,
)
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.session import CompilationResult, CompilerSession
from repro.pipeline.variants import variant_signature
from repro.ppl.program import Program
from repro.schedule.compare import check_cycle_model
from repro.sim.metrics import SimulationResult
from repro.sim.model import PerformanceModel
from repro.target.device import Board, DEFAULT_BOARD

__all__ = [
    "EvaluatedConfig",
    "PointLedger",
    "PointResult",
    "ExplorationResult",
    "MultiBenchmarkExplorer",
    "evaluate_config",
    "evaluate_point",
    "explore",
    "pareto_front",
    "pool_context",
]


@dataclass
class EvaluatedConfig:
    """Rich single-configuration outcome (keeps the compilation artifacts)."""

    label: str
    compilation: CompilationResult
    simulation: SimulationResult


@dataclass
class ExplorationResult:
    """The outcome of one exploration run.

    ``quarantined`` lists points whose evaluation kept failing after every
    retry the :class:`~repro.dse.resilience.ResiliencePolicy` allowed —
    reported here (``failed=True``, with the failure reason) instead of
    aborting the sweep.  ``interrupted`` marks a run cut short by
    ``KeyboardInterrupt``: the lists hold whatever completed before the
    interrupt, after the pool was torn down and the checkpoint journal and
    dirty cache state were flushed.  ``resumed`` counts evaluations served
    from a checkpoint journal instead of being recomputed, and
    ``supervision`` carries the supervisor's counters (evaluations,
    retries, timeouts, pool respawns, …) for the run — in a multi-benchmark
    sweep, for the whole suite.  ``batch_engagement`` totals the batched
    evaluator's per-point outcomes for this benchmark (``vector``,
    ``cached`` or a fallback reason; see :mod:`repro.dse.batch`); it is
    empty when a pool or a farm evaluated the points.  ``cache_stats``
    holds the analysis cache's per-table counters of an in-process run,
    plus ``config_state``: the entries, hits, misses and evictions of the
    run's per-configuration session memo
    (:meth:`~repro.pipeline.session.CompilerSession.config_state`).
    """

    benchmark: str
    sizes: Dict[str, int]
    board_name: str
    evaluated: List[PointResult] = field(default_factory=list)
    pruned: List[PointResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    workers: int = 1
    cache_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    strategy: str = "exhaustive"
    space_size: int = 0
    quarantined: List[PointResult] = field(default_factory=list)
    interrupted: bool = False
    resumed: int = 0
    supervision: Dict[str, int] = field(default_factory=dict)
    batch_engagement: Dict[str, int] = field(default_factory=dict)

    @property
    def pareto(self) -> List[PointResult]:
        """Pareto-optimal points on (cycles, area), fastest first."""
        return pareto_front(self.evaluated)

    @property
    def best(self) -> Optional[PointResult]:
        """The feasible point with the fewest cycles."""
        fits = [r for r in self.evaluated if r.max_utilization <= 1.0]
        pool = fits or self.evaluated
        return min(pool, key=lambda r: r.cycles) if pool else None

    def summary(self) -> str:
        header = (
            f"{'design point':<40} {'cycles':>14} {'logic':>8} {'mem KiB':>9} {'util':>6}"
        )
        extras = ""
        if self.quarantined:
            extras += f", {len(self.quarantined)} quarantined"
        if self.resumed:
            extras += f", {self.resumed} resumed"
        if self.interrupted:
            extras += ", INTERRUPTED"
        lines = [
            f"DSE {self.benchmark} on {self.board_name} [{self.strategy}]: "
            f"{len(self.evaluated)} evaluated, {len(self.pruned)} pruned{extras}, "
            f"{self.elapsed_seconds:.2f}s ({self.workers} worker(s))",
            header,
            "-" * len(header),
        ]
        for result in self.quarantined:
            lines.append(f"{result.label:<40} QUARANTINED: {result.failure}")
        for result in self.pareto:
            lines.append(
                f"{result.label:<40} {result.cycles:>14.0f} {result.logic:>8.0f} "
                f"{result.bram_bits / 8 / 1024:>9.1f} {result.max_utilization:>6.1%}"
            )
        return "\n".join(lines)


def pareto_front(results: Sequence[PointResult]) -> List[PointResult]:
    """Points not dominated on (cycles, logic+memory area), fastest first.

    A point dominates another when it is no worse on both cycles and area
    and strictly better on at least one.  Ties on both objectives are broken
    by label, so the front is canonical — independent of evaluation order.

    Vectorized: one lexicographic sort, then a prefix-minimum sweep over
    the area column — a point is on the front iff its area is strictly
    below every earlier (faster-or-equal) point's area, which is exactly
    the strict-``<`` running-minimum rule of the original Python loop.
    """
    from repro.dse.search import area_key

    results = list(results)
    if len(results) < 2:
        return [r for r in results if area_key(r) < float("inf")]
    cycles = np.array([r.cycles for r in results], dtype=np.float64)
    areas = np.array([area_key(r) for r in results], dtype=np.float64)
    labels = np.array([r.label for r in results])
    # lexsort keys run least-significant first; stability matches sorted().
    order = np.lexsort((labels, areas, cycles))
    sorted_areas = areas[order]
    keep = np.empty(len(results), dtype=bool)
    keep[0] = sorted_areas[0] < float("inf")
    # NaN areas count as +inf in the running minimum: they never join the
    # front and never tighten it — matching the scalar loop, where NaN
    # always failed the strict comparison and left best_area untouched.
    running = np.minimum.accumulate(np.where(np.isnan(sorted_areas), np.inf, sorted_areas))
    keep[1:] = sorted_areas[1:] < running[:-1]
    return [results[index] for index in order[keep]]


# ---------------------------------------------------------------------------
# Single-point evaluation (shared by the engine, Figure 7 and the benchmarks)
# ---------------------------------------------------------------------------


def evaluate_config(
    program: Program,
    config: CompileConfig,
    bindings: Mapping[str, object],
    board: Board = DEFAULT_BOARD,
    par: Optional[int] = None,
    model: Optional[PerformanceModel] = None,
    session: Optional[CompilerSession] = None,
    pipeline: Union[str, Pipeline, None] = None,
    cycle_model: str = "analytical",
) -> EvaluatedConfig:
    """Compile and simulate one configuration, keeping the artifacts.

    ``cycle_model`` picks the schedule backend the timing comes from:
    ``"analytical"`` (closed forms, the default) or ``"event"`` (the
    event-driven simulator with overlap, stalls and contention).

    The compilation runs through a :class:`~repro.pipeline.session.CompilerSession`
    — pass ``session`` to share one across calls (the Figure 7 harness and
    the exploration driver do); without one, a throwaway session against
    ``board``/``model`` is created, which still shares the process-global
    analysis cache, so configurations with equal tile sizes reuse the
    memoised pass results and the per-node analyses hit warm entries.

    A supplied session's board is authoritative — naming a *different*
    ``board`` alongside it would silently compile for the session's board,
    so that combination is rejected.
    """
    if session is None:
        session = CompilerSession(board=board, model=model)
    elif board is not DEFAULT_BOARD and board != session.board:
        raise ValueError(
            f"evaluate_config got board {board.name!r} but a session built for "
            f"{session.board.name!r}; compiles run on the session's board — "
            "drop the board argument or build the session for it"
        )
    compilation = session.compile(program, config, bindings, par=par, pipeline=pipeline)
    simulation = session.simulate(compilation, model, cycle_model=cycle_model)
    return EvaluatedConfig(label=config.label, compilation=compilation, simulation=simulation)


# ---------------------------------------------------------------------------
# Point keys and the point ledger
# ---------------------------------------------------------------------------


def _effective_model(
    model: Optional[PerformanceModel], point: DesignPoint
) -> Optional[PerformanceModel]:
    """Fold the point's DRAM-channel gene into the performance model.

    The channel count is a *design* choice, not a session-wide knob, so the
    engine folds it into the model per point right before timing (and
    before keying the memo table — ``astuple`` then separates channel
    counts naturally).  At the default ``dram_channels=1`` the model passes
    through untouched, keeping single-channel sweeps bit-compatible with
    pre-gene cache entries and journal digests.  Idempotent.
    """
    channels = getattr(point, "dram_channels", 1)
    if channels == 1:
        return model
    base = model if model is not None else PerformanceModel()
    if base.dram_channels == channels:
        return model
    return replace(base, dram_channels=channels)


#: How many leading fields of a point key are its :func:`_workload_head`.
_HEAD_FIELDS = 4


def _workload_head(program: Program, bindings: Mapping[str, object]) -> Tuple:
    """The workload part of every point key of ``(program, bindings)``.

    The program's structural hash, its input and size names, and the
    workload signature (sizes and input shapes, never array contents): the
    first :data:`_HEAD_FIELDS` fields of the key, and the part of the
    session's configuration-memo key that tells workloads apart.
    """
    from repro.analysis.estimate import input_shapes, workload_env

    return (
        program.body.structural_hash(),
        tuple(array.name for array in program.inputs),
        tuple(size.name for size in program.sizes),
        env_signature(workload_env(program, bindings), input_shapes(program, bindings)),
    )


def _point_key(
    program: Program,
    bindings: Mapping[str, object],
    point: DesignPoint,
    session: CompilerSession,
    model: Optional[PerformanceModel],
    cycle_model: str = "analytical",
    *,
    head: Optional[Tuple] = None,
) -> Optional[Tuple]:
    """Cross-process cache key for one whole point evaluation, or None.

    The only place a ``point_results`` key is derived.  Exploration results
    are size-driven (array *contents* never reach the static analyses or
    the cycle model), so the workload signature — structural hash plus
    size/shape bindings (:func:`_workload_head`) — plus the point, board
    and model parameters fully determines the outcome.  The pipeline part
    is the pass-sequence signature the point's gene resolves to
    (:func:`~repro.pipeline.variants.variant_signature`), which raises
    ``ValueError`` for an unknown gene as compiling it would; the point's
    channel gene is folded into ``model``.  Subclassed boards or models
    give None (no memoisation) rather than risk a stale hit.  ``head`` is
    :meth:`PointLedger.head`'s memoised head of these very ``program`` and
    ``bindings`` objects; without it the head is derived here.
    """
    signature = variant_signature(point.pipeline)
    board = session.board
    model = _effective_model(model, point)
    if type(board) is not Board or (model is not None and type(model) is not PerformanceModel):
        return None
    if head is None:
        head = _workload_head(program, bindings)
    return head + (
        point.tile_sizes,
        point.par,
        point.metapipelining,
        signature,
        cycle_model,
        _fields_tuple(board),
        _fields_tuple(model) if model is not None else (),
    )


@lru_cache(maxsize=64)
def _fields_tuple(value: Union[Board, PerformanceModel]) -> Tuple:
    """``astuple(value)``, derived once per board or model *value*.

    ``astuple`` deep-copies every leaf, and every point key embeds both
    tuples.  Keyed by value rather than identity: ``_effective_model``
    builds a fresh model per point when ``dram_channels > 1``.
    """
    return astuple(value)


def _key_digest(key: Tuple) -> Optional[bytes]:
    """The checkpoint-journal digest of a point key: blake2b over its pickle.

    The protocol is pinned so the bytes are stable across interpreter runs
    (the key already is: structural hashes are blake2b themselves), and
    journals written by earlier runs keep replaying.  The pickler keeps no
    memo (``fast``), so the bytes depend on the key's values alone: a
    memo writes a repeated object as a back-reference, and a key built
    from a point that crossed a process or a socket shares fewer objects
    than an equal key built in place.
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=4)
    pickler.fast = True
    try:
        pickler.dump(key)
    except Exception:
        return None
    return hashlib.blake2b(buffer.getvalue(), digest_size=16).digest()


def _detached(result: PointResult) -> PointResult:
    """A copy safe to hand out: callers mutating its utilization dict (or
    the result) cannot poison the shared cache entry."""
    return replace(result, utilization=dict(result.utilization))


_MISS = object()


class PointRef(NamedTuple):
    """A point's ``point_results`` key and the journal digest over it."""

    key: Optional[Tuple]
    digest: Optional[bytes]


class PointLedger:
    """Key → digest → journal → cache → seed, for one run or one farm.

    Every evaluation path asks the same questions about a point: what is
    its ``point_results`` key, has the checkpoint journal recorded it, is it
    memoised in this process, and where does a result computed elsewhere —
    in a pool worker, a farm or an earlier run — go.  The ledger answers
    them for the engine's lane driver, the batched backend and the compile
    farm's admission, so all three agree byte for byte.

    ``session`` resolves pipeline genes and supplies the board and model
    for keys (``model`` overrides the session's, as ``evaluate_point``'s
    argument does); ``checkpoint`` names the journal sidecar, None for no
    journaling.  A lane keys every point of one program and workload, so
    the ledger derives their :func:`_workload_head` once per pair of
    objects (:meth:`head`); a lane's program and workload are never
    mutated while the ledger keys them.
    """

    def __init__(
        self,
        session: CompilerSession,
        checkpoint: Optional[object] = None,
        model: Optional[PerformanceModel] = None,
    ) -> None:
        self.session = session
        self.model = model if model is not None else session.model
        self.journal = CheckpointJournal(checkpoint) if checkpoint is not None else None
        self.journaled: Dict[bytes, PointResult] = (
            self.journal.load() if self.journal is not None else {}
        )
        #: (program, bindings, head) by the ids of the program and bindings.
        self._heads: Dict[Tuple[int, int], Tuple] = {}

    def head(self, program: Program, bindings: Mapping[str, object]) -> Tuple:
        """The workload head of ``(program, bindings)``, derived once per pair."""
        ident = (id(program), id(bindings))
        entry = self._heads.get(ident)
        if entry is None:
            # The entry holds both objects, so their ids stay theirs.
            entry = self._heads[ident] = (program, bindings, _workload_head(program, bindings))
        return entry[2]

    def key(
        self,
        program: Program,
        bindings: Mapping[str, object],
        point: DesignPoint,
        cycle_model: str,
    ) -> Optional[Tuple]:
        """The point's cache key, or None when it cannot be keyed."""
        return _point_key(
            program,
            bindings,
            point,
            self.session,
            self.model,
            cycle_model,
            head=self.head(program, bindings),
        )

    def locate(
        self,
        program: Program,
        bindings: Mapping[str, object],
        point: DesignPoint,
        cycle_model: str,
    ) -> PointRef:
        """The point's key and journal digest, each derived once."""
        key = self.key(program, bindings, point, cycle_model)
        return PointRef(key, _key_digest(key) if key is not None else None)

    def replay(self, ref: PointRef) -> Optional[PointResult]:
        """The journaled result for ``ref``, seeded into the cache; else None."""
        result = self.journaled.get(ref.digest) if ref.digest is not None else None
        if result is not None:
            self.seed(ref.key, result)
        return result

    def lookup(self, key: Optional[Tuple]) -> Optional[PointResult]:
        """A copy of the result memoised under ``key``, or None.

        A hit is counted here (``get`` itself does no accounting); a miss is
        left to whoever evaluates the point, so it is counted once.
        """
        if key is None or not ANALYSIS_CACHE.enabled:
            return None
        cached = ANALYSIS_CACHE.get("point_results", key, _MISS)
        if cached is _MISS:
            return None
        ANALYSIS_CACHE.hits["point_results"] += 1
        return _detached(cached)

    def seed(self, key: Optional[Tuple], result: PointResult) -> None:
        """Memoise a result computed elsewhere in this process's cache."""
        if key is not None and ANALYSIS_CACHE.enabled:
            ANALYSIS_CACHE.put("point_results", key, result)

    def record(self, ref: PointRef, result: PointResult) -> None:
        """Journal ``result`` under ``ref`` unless it is journaled already."""
        if self.journal is None or ref.digest is None or ref.digest in self.journaled:
            return
        self.journal.append(ref.digest, result)
        self.journaled[ref.digest] = result

    def close(self) -> None:
        """Close the journal's append handle (a later record reopens it)."""
        if self.journal is not None:
            self.journal.close()


def evaluate_point(
    program: Program,
    bindings: Mapping[str, object],
    point: DesignPoint,
    board: Board = DEFAULT_BOARD,
    model: Optional[PerformanceModel] = None,
    session: Optional[CompilerSession] = None,
    cycle_model: str = "analytical",
) -> PointResult:
    """Evaluate one design point to its scalar (cycles, area) outcome.

    With the analysis cache disabled this runs the whole pipeline
    (:func:`evaluate_config`), terminal passes included, and reads or
    writes no session state: the reference every faster path is checked
    against.  With the cache on, whole evaluations are memoised in the
    analysis cache (``point_results`` table) under a process-stable key, so
    re-sweeps in one process — and, through the disk-persisted store,
    across processes — skip compilation and simulation entirely; and a
    point under either cycle model is priced by the batched path's
    per-point code on its configuration's state kept by the
    session (:func:`repro.dse.batch.price_configuration`), so a
    configuration seen before skips the pass prefix and the per-node
    re-analysis, and an event-model point's price reuses the event run
    its own balance-factor tuning made of the same tree.  Results are
    bit-identical either way.

    When a ``session`` is supplied, its board and model are authoritative
    (for the key as much as for the compile — they must never diverge).
    """
    if session is None:
        session = CompilerSession(board=board, model=model)
    else:
        board = session.board
        model = model if model is not None else session.model
    # The point's DRAM-channel gene rides on the model: fold it in before
    # the simulate, so the event backend times the provisioning the point
    # actually asks for.
    model = _effective_model(model, point)

    def compute() -> PointResult:
        evaluated = evaluate_config(
            program,
            point.config(),
            bindings,
            board=board,
            par=point.par,
            model=model,
            session=session,
            pipeline=point.pipeline,
            cycle_model=cycle_model,
        )
        compilation = evaluated.compilation
        return PointResult.from_evaluation(
            point, evaluated.simulation, compilation.area, compilation.design
        )

    if not ANALYSIS_CACHE.enabled:
        return compute()
    # Keying resolves the pipeline gene through its memoised signature; no
    # pipeline is built on a hit.
    key = _point_key(program, bindings, point, session, model, cycle_model)
    if key is None:
        return compute()

    def priced() -> PointResult:
        from repro.dse.batch import _split, price_configuration

        (result,) = price_configuration(
            program,
            bindings,
            [point],
            [_split(point.pipeline)],
            session,
            [model],
            key[:_HEAD_FIELDS],
            cycle_model,
        )
        return result

    return _detached(ANALYSIS_CACHE.memoize("point_results", key, priced))


# ---------------------------------------------------------------------------
# Worker-pool plumbing
# ---------------------------------------------------------------------------

def pool_context():
    """The multiprocessing context used for evaluation pools.

    Prefers ``fork`` so workers inherit the parent's warm analysis cache
    (copy-on-write); falls back to the platform default elsewhere.
    """
    import multiprocessing as mp

    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()


_WORKER_STATE: Dict[str, object] = {}


def _init_worker(
    specs: Dict[str, Dict[str, int]],
    board,
    model,
    memoize: bool = True,
    cycle_model: str = "analytical",
    fault_plan=None,
) -> None:
    """Initialise one pool worker for a set of benchmarks.

    ``specs`` maps benchmark name → sizes.  Programs and their shape-only
    workloads (:meth:`~repro.apps.base.Benchmark.workload`: sizes and input
    shapes, no generated data) are built lazily on first use, so a worker
    that only ever sees tasks for one benchmark never pays for the others.
    ``fault_plan`` installs a deterministic fault-injection schedule
    (:class:`repro.dse.resilience.FaultPlan`) consulted at every task entry
    — the chaos-testing hook; None in production.
    """
    _WORKER_STATE["specs"] = dict(specs)
    _WORKER_STATE["board"] = board
    _WORKER_STATE["model"] = model
    _WORKER_STATE["cycle_model"] = cycle_model
    _WORKER_STATE["fault_plan"] = fault_plan
    _WORKER_STATE["programs"] = {}
    # One session per worker: forked workers inherit the parent's warm
    # analysis cache copy-on-write (where fork does not exist they start
    # cold and compute the same results), and the session gives every
    # evaluation in this process the same pipeline/naming-scope ownership
    # as the in-process path.
    _WORKER_STATE["session"] = CompilerSession(board=board, model=model)
    if not memoize:
        ANALYSIS_CACHE.clear()
        ANALYSIS_CACHE.enabled = False


def _evaluate_point_task(task: Tuple) -> PointResult:
    """Evaluate one ``(benchmark, point, attempt[, cycle_model])`` pool task.

    The attempt number travels with the task, so an installed fault plan
    fires identically no matter which worker runs it.  The compile farm
    appends a cycle model that overrides the worker's default per task —
    one farm pool serves analytical and event requests side by side.
    """
    bench_name, point, attempt, *override = task
    plan = _WORKER_STATE.get("fault_plan")
    marker = None
    if plan is not None:
        marker = plan.fire(bench_name, point.label, attempt, in_worker=True)
    programs: Dict[str, Tuple[Program, Dict[str, object]]] = _WORKER_STATE["programs"]
    if bench_name not in programs:
        bench = get_benchmark(bench_name)
        sizes = _WORKER_STATE["specs"][bench_name]
        programs[bench_name] = (bench.build(), bench.workload(sizes))
    program, workload = programs[bench_name]
    result = evaluate_point(
        program,
        workload,
        point,
        board=_WORKER_STATE["board"],
        model=_WORKER_STATE["model"],
        session=_WORKER_STATE["session"],
        cycle_model=override[0] if override else _WORKER_STATE["cycle_model"],
    )
    if marker == "corrupt":
        result = corrupt_result(result)
    return result


# ---------------------------------------------------------------------------
# Lanes and the lane driver
# ---------------------------------------------------------------------------


def _prune_space(
    space: DesignSpace,
    shapes: Mapping[str, Tuple[int, ...]],
    sizes: Mapping[str, int],
    board: Board,
    budget: float,
    prune: bool,
) -> Tuple[List[DesignPoint], List[PointResult]]:
    if not prune:
        return list(space), []
    survivors: List[DesignPoint] = []
    pruned_results: List[PointResult] = []
    for point in space:
        decision = estimate_point_area(shapes, sizes, point, board, budget=budget)
        if decision.feasible:
            survivors.append(point)
        else:
            pruned_results.append(
                PointResult(
                    point=point,
                    logic=decision.logic,
                    bram_bits=decision.bram_bits,
                    dsps=decision.dsps,
                    pruned=True,
                    prune_reason=decision.reason,
                )
            )
    return survivors, pruned_results


@dataclass
class _Lane:
    """One benchmark's search inside a run: workload, pruned space, driver.

    ``workload`` is :meth:`~repro.apps.base.Benchmark.workload`: sizes and
    input shapes, no generated data.
    """

    benchmark: Benchmark
    sizes: Dict[str, int]
    program: Program
    workload: Dict[str, object]
    driver: object  # repro.dse.search.SearchDriver
    pruned: List[PointResult]
    space_size: int
    survivors: int
    elapsed_seconds: float = 0.0
    quarantined: Dict[DesignPoint, PointResult] = field(default_factory=dict)
    resumed: int = 0
    engagement: Counter = field(default_factory=Counter)
    refs: Dict[DesignPoint, PointRef] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.benchmark.name


def _build_lane(
    benchmark: Benchmark,
    sizes: Optional[Mapping[str, int]],
    board: Board,
    strategy,
    search_seed: int,
    budget: float = 1.0,
    prune: bool = True,
    max_evaluations: Optional[int] = None,
    eval_fraction: Optional[float] = None,
    pipelines: Optional[Sequence[str]] = None,
    space: Optional[DesignSpace] = None,
) -> _Lane:
    """Build one lane: sizes, workload, program, pruned space, search driver.

    ``space`` defaults to :func:`~repro.dse.space.default_space` over the
    benchmark's tiled dimensions with ``pipelines`` as the pipeline gene.
    An unknown pipeline gene would fail each of its points alike, so it
    raises ``ValueError`` here, before anything is evaluated.  Every lane
    of a run searches with the same ``search_seed``, so sharing a run is a
    pure scheduling choice: each lane evaluates exactly the points a
    standalone :func:`explore` would.
    """
    from repro.analysis.estimate import input_shapes
    from repro.dse.search import SearchDriver

    sizes = dict(sizes or benchmark.default_sizes)
    workload = benchmark.workload(sizes)
    program = benchmark.build()
    if space is None:
        tiled_dims = {name: sizes[name] for name in benchmark.tile_sizes if name in sizes}
        space = default_space(
            tiled_dims, pipelines=tuple(pipelines) if pipelines else ("default",)
        )
    for gene in sorted({point.pipeline for point in space}):
        variant_signature(gene)
    survivors, pruned = _prune_space(
        space, input_shapes(program, workload), sizes, board, budget, prune
    )
    if max_evaluations is None and eval_fraction is not None:
        max_evaluations = max(1, int(eval_fraction * len(survivors)))
    driver = SearchDriver(
        strategy,
        DesignSpace().extend(survivors),
        seed=search_seed,
        max_evaluations=max_evaluations,
    )
    return _Lane(
        benchmark=benchmark,
        sizes=sizes,
        program=program,
        workload=workload,
        driver=driver,
        pruned=pruned,
        space_size=len(space),
        survivors=len(survivors),
    )


def _explore_lanes(
    lanes: List[_Lane],
    started: float,
    board: Board,
    model: Optional[PerformanceModel],
    workers: Optional[int],
    memoize: bool,
    disk_cache: Optional[object],
    cycle_model: str,
    resilience: Optional[ResiliencePolicy],
    farm: Optional[object] = None,
) -> Dict[str, ExplorationResult]:
    """Drive every lane to completion through one evaluator.

    Each round takes every unfinished lane's fresh points, interleaves them
    round-robin (lane A point 1, lane B point 1, lane A point 2, …), serves
    journaled points from the checkpoint journal, evaluates the rest,
    records quarantined failures, and hands each lane its results; every
    success is journaled through ``SearchDriver.on_record``.

    Every run is supervised (``resilience=None`` means
    ``ResiliencePolicy()``), and the evaluator follows from what the run
    has: the ``farm`` client; the supervised pool when ``workers > 1``
    (per point, through :meth:`SupervisedEvaluator.evaluate
    <repro.dse.resilience.SupervisedEvaluator.evaluate>`; a pool that
    cannot be spawned degrades to serial evaluation); otherwise
    in-process, where each lane's share of a round is one
    :func:`~repro.dse.batch.evaluate_point_batch` call and points a fault
    plan targets detour through per-point supervision.
    ``supervision["evaluations"]`` counts every evaluation attempt the run
    made, on every path.  An unknown ``cycle_model`` would fail every
    point alike, so it raises before anything is evaluated.
    """
    check_cycle_model(cycle_model)
    policy = resilience if resilience is not None else ResiliencePolicy()
    workers = min(workers or 1, max(1, sum(lane.survivors for lane in lanes)))
    by_name = {lane.name: lane for lane in lanes}
    session = CompilerSession(board=board, model=model)
    # Retries and the serial fallback compile through a clone, so a failure
    # mid-compile cannot leave half-recorded state in the main session.
    fallback_session = session.clone()

    def serial_compute(task: Tuple[str, DesignPoint]) -> PointResult:
        lane = by_name[task[0]]
        return evaluate_point(
            lane.program,
            lane.workload,
            task[1],
            model=model,
            session=fallback_session,
            cycle_model=cycle_model,
        )

    pool_factory = None
    if farm is None and workers > 1:
        specs = {lane.name: lane.sizes for lane in lanes}

        def pool_factory():
            return pool_context().Pool(
                processes=workers,
                initializer=_init_worker,
                initargs=(specs, board, model, memoize, cycle_model, policy.fault_plan),
            )

    supervisor = SupervisedEvaluator(
        policy,
        serial_compute,
        workers=workers,
        pool_factory=pool_factory,
        pooled_task=_evaluate_point_task,
    )
    if memoize and disk_cache is not None:
        ANALYSIS_CACHE.load_disk(disk_cache)
    ledger = PointLedger(session, checkpoint=policy.checkpoint)

    def ref(lane: _Lane, point: DesignPoint) -> PointRef:
        found = lane.refs.get(point)
        if found is None:
            found = lane.refs[point] = ledger.locate(
                lane.program, lane.workload, point, cycle_model
            )
        return found

    def in_process(tasks: List[Tuple[_Lane, DesignPoint]]) -> List[PointResult]:
        from repro.dse.batch import evaluate_point_batch

        plan = policy.fault_plan
        out: List[Optional[PointResult]] = [None] * len(tasks)
        shares: Dict[str, List[int]] = {}
        victims: List[int] = []
        for index, (lane, point) in enumerate(tasks):
            if plan is not None and plan.spec_for(lane.name, point.label) is not None:
                victims.append(index)
            else:
                shares.setdefault(lane.name, []).append(index)
        for name, indices in shares.items():
            lane = by_name[name]
            try:
                results = evaluate_point_batch(
                    lane.program,
                    lane.workload,
                    [tasks[index][1] for index in indices],
                    model=model,
                    session=session,
                    cycle_model=cycle_model,
                    engagement=lane.engagement,
                )
                supervisor.stats.evaluations += len(indices)
            except Exception:
                # One broken point must not abort the sweep: re-run the
                # share point by point under supervision (retry, then
                # quarantine), as a pooled run would.
                results = supervisor.evaluate([(name, tasks[index][1]) for index in indices])
            for index, result in zip(indices, results):
                out[index] = result
        # Fault-plan victims take the per-point supervision path (timeouts,
        # retries, corruption checks, quarantine); results are bit-identical
        # either way, so chaos runs match fault-free ones.
        if victims:
            supervised = supervisor.evaluate(
                [(tasks[index][0].name, tasks[index][1]) for index in victims]
            )
            for index, result in zip(victims, supervised):
                out[index] = result
        return out  # type: ignore[return-value]

    def evaluate(tasks: List[Tuple[_Lane, DesignPoint]]) -> List[PointResult]:
        if farm is None and pool_factory is None:
            return in_process(tasks)
        named = [(lane.name, point) for lane, point in tasks]
        if farm is not None:
            results = farm.evaluate(named, cycle_model=cycle_model)
        else:
            results = supervisor.evaluate(named)
        # Pool workers and farms memoise in their own caches: seed this
        # process's, so the disk store and later reruns gain the points.
        for (lane, point), result in zip(tasks, results):
            if not result.failed:
                ledger.seed(ref(lane, point).key, result)
        return results

    def drive() -> None:
        for lane in lanes:
            if ledger.journal is not None:
                lane.driver.on_record = lambda point, result, lane=lane: ledger.record(
                    ref(lane, point), result
                )
            lane.driver.start()
        active = [lane for lane in lanes if not lane.driver.done]
        while active:
            fresh = [lane.driver.fresh_points() for lane in active]
            tasks = [
                (lane, points[cursor])
                for cursor in range(max(map(len, fresh)))
                for lane, points in zip(active, fresh)
                if cursor < len(points)
            ]
            results: List[Optional[PointResult]] = [None] * len(tasks)
            todo: List[int] = []
            for index, (lane, point) in enumerate(tasks):
                hit = ledger.replay(ref(lane, point)) if ledger.journaled else None
                if hit is None:
                    todo.append(index)
                else:
                    results[index] = hit
                    lane.resumed += 1
            if todo:
                computed = evaluate([tasks[index] for index in todo])
                for index, result in zip(todo, computed):
                    results[index] = result
            for lane, points in zip(active, fresh):
                outcomes = [result for (owner, _), result in zip(tasks, results) if owner is lane]
                for point, result in zip(points, outcomes):
                    if result.failed:
                        lane.quarantined.setdefault(point, result)
                if points:
                    lane.driver.record(points, outcomes)
                lane.driver.advance()
                if lane.driver.done:
                    lane.elapsed_seconds = time.perf_counter() - started
            active = [lane for lane in active if not lane.driver.done]

    interrupted = False
    try:
        if not memoize:
            ANALYSIS_CACHE.clear()
        with ANALYSIS_CACHE.disabled() if not memoize else nullcontext():
            drive()
    except KeyboardInterrupt:
        # Return what completed: the journal holds every recorded result,
        # the pool is torn down right below and the dirty cache is flushed.
        interrupted = True
    finally:
        supervisor.close()
        ledger.close()

    if memoize and disk_cache is not None:
        ANALYSIS_CACHE.save_disk(disk_cache, only_if_dirty=True)
    counters = getattr(farm, "stats", None) if farm is not None else supervisor.stats
    supervision = counters.as_dict() if counters is not None else {}
    # Pool workers memoise in their own forked copies of the cache, so
    # parent stats would misrepresent a pooled run.
    cache_stats = {}
    if memoize and workers <= 1:
        cache_stats = ANALYSIS_CACHE.stats()
        # The batched path and the per-point fallback keep their own memos.
        fallback = fallback_session.config_state_stats()
        cache_stats["config_state"] = {
            name: count + fallback[name] for name, count in session.config_state_stats().items()
        }
    return {
        lane.name: ExplorationResult(
            benchmark=lane.name,
            sizes=lane.sizes,
            board_name=board.name,
            evaluated=list(lane.driver.seen.values()),
            pruned=lane.pruned,
            # Completion latency of this lane within the interleaved run
            # (joint batches make exclusive attribution moot).
            elapsed_seconds=lane.elapsed_seconds,
            workers=workers,
            cache_stats=cache_stats,
            strategy=lane.driver.strategy.name,
            space_size=lane.space_size,
            quarantined=list(lane.quarantined.values()),
            interrupted=interrupted,
            resumed=lane.resumed,
            # Supervision counters are per run: lanes share the evaluator.
            supervision=dict(supervision),
            batch_engagement=dict(lane.engagement),
        )
        for lane in lanes
    }


# ---------------------------------------------------------------------------
# The exploration entry points
# ---------------------------------------------------------------------------


def explore(
    bench: Union[str, Benchmark],
    sizes: Optional[Mapping[str, int]] = None,
    board: Board = DEFAULT_BOARD,
    space: Optional[DesignSpace] = None,
    budget: float = 1.0,
    workers: Optional[int] = None,
    memoize: bool = True,
    prune: bool = True,
    model: Optional[PerformanceModel] = None,
    seed: int = 3,
    strategy: Union[str, "Strategy", None] = None,  # noqa: F821
    max_evaluations: Optional[int] = None,
    eval_fraction: Optional[float] = None,
    search_seed: int = 0,
    disk_cache: Optional[object] = None,
    cycle_model: str = "analytical",
    pipelines: Optional[Sequence[str]] = None,
    resilience: Optional[ResiliencePolicy] = None,
    batch_eval: Union[bool, int, None] = None,
) -> ExplorationResult:
    """Explore a benchmark's design space and return Pareto-ranked results.

    One lane through the same driver as :class:`MultiBenchmarkExplorer`
    (see :func:`_explore_lanes`).  ``elapsed_seconds`` covers the whole
    call.

    Args:
        bench: benchmark name (``repro.apps``) or a :class:`Benchmark`.
        sizes: workload sizes; defaults to the benchmark's evaluation sizes.
        board: target board; prune decisions are taken against its device.
        space: design points to consider; defaults to
            :func:`repro.dse.space.default_space` over the benchmark's tiled
            dimensions.
        budget: fraction of each device resource a point may use before the
            analytical pre-filter prunes it (1.0 = the whole chip).
        workers: worker processes; ``None`` and 1 evaluate in-process
            through the batched backend
            (:func:`repro.dse.batch.evaluate_point_batch`: bit-identical to
            per-point evaluation, same cache entries and journal digests,
            outcomes counted in ``batch_engagement``); larger values fan
            each search batch out point by point over a supervised
            ``multiprocessing`` pool (requires ``bench`` to be a registered
            benchmark name).
        memoize: share tiling results and analysis values through the
            process-global cache.  ``False`` clears the cache and disables
            it for the duration of the run — the cold path the benchmarks
            time against.
        prune: apply the analytical area pre-filter before compiling.
        model: performance-model override for simulation.
        seed: accepted for compatibility; it does not affect results.
            Evaluation binds the benchmark's shape-only workload
            (:meth:`~repro.apps.base.Benchmark.workload`) and generates no
            input data.
        strategy: search strategy — a name (``"exhaustive"`` or
            ``"annealing"``) or a :class:`repro.dse.search.Strategy`
            instance.  ``None`` is the exhaustive grid.
        max_evaluations: hard cap on evaluated points (search budget).
        eval_fraction: alternative budget as a fraction of the surviving
            points (ignored when ``max_evaluations`` is given).
        search_seed: seed of the strategy's RNG — search trajectories are
            deterministic for a fixed value.
        disk_cache: path of a persisted analysis store; loaded before and
            saved after the run, so repeated sweeps across processes reuse
            tilings and whole point evaluations.
        cycle_model: schedule backend scoring each point —
            ``"analytical"`` (closed forms, the default) or ``"event"``
            (event-driven, with stage overlap / stalls / contention).
            Memoised point results are keyed per backend.
        pipelines: pass-pipeline variants the default space sweeps as the
            ``pipeline`` gene (e.g. ``("default", "rewrite")`` to search
            with and without the schedule rewriter).  Only consulted when
            ``space`` is None; an explicit space carries its own genes.
        resilience: the :class:`repro.dse.resilience.ResiliencePolicy`
            supervising every evaluation — a per-attempt timeout (pooled
            runs), bounded retries with backoff, pool respawn, quarantine
            of deterministically-failing points, checkpoint/resume
            journaling and (in tests) fault injection.  ``None`` means
            ``ResiliencePolicy()``.  A ``KeyboardInterrupt`` returns partial
            results (``interrupted=True``) and a failed pool spawn degrades
            to serial evaluation.
        batch_eval: deprecated and ignored — in-process evaluation always
            goes through the batched backend.
    """
    started = time.perf_counter()
    benchmark = get_benchmark(bench) if isinstance(bench, str) else bench
    lane = _build_lane(
        benchmark,
        sizes,
        board,
        strategy,
        search_seed,
        budget=budget,
        prune=prune,
        max_evaluations=max_evaluations,
        eval_fraction=eval_fraction,
        pipelines=pipelines,
        space=space,
    )
    (result,) = _explore_lanes(
        [lane],
        started,
        board,
        model,
        workers,
        memoize,
        disk_cache,
        cycle_model,
        resilience,
    ).values()
    result.elapsed_seconds = time.perf_counter() - started
    return result


class MultiBenchmarkExplorer:
    """Run several benchmarks' searches through one shared evaluator.

    A per-benchmark :func:`explore` pays one pool spin-up per sweep and
    leaves workers idle while a small benchmark finishes; this explorer
    instead drives one lane per benchmark through **one** evaluator —
    batched in-process evaluation, one supervised pool, or a compile farm
    — interleaving the benchmarks' search batches round-robin, so a long
    benchmark cannot starve the others and every fork is amortised over
    the whole suite.  It is the same lane driver :func:`explore` runs.

    Every benchmark runs the same strategy against its own pruned space
    with the same search seed; results come back as one
    :class:`ExplorationResult` per benchmark, each with its own
    ``batch_engagement`` and the run's shared ``supervision`` counters.
    Lanes bind each benchmark's shape-only workload
    (:meth:`~repro.apps.base.Benchmark.workload`).
    """

    def __init__(
        self,
        benchmarks: Sequence[Union[str, Benchmark]],
        sizes: Optional[Mapping[str, Mapping[str, int]]] = None,
        board: Board = DEFAULT_BOARD,
        strategy: Union[str, "Strategy", None] = None,  # noqa: F821
        budget: float = 1.0,
        prune: bool = True,
        workers: Optional[int] = None,
        model: Optional[PerformanceModel] = None,
        search_seed: int = 0,
        eval_fraction: Optional[float] = None,
        max_evaluations: Optional[int] = None,
        disk_cache: Optional[object] = None,
        cycle_model: str = "analytical",
        pipelines: Optional[Sequence[str]] = None,
        resilience: Optional[ResiliencePolicy] = None,
        farm: Optional[object] = None,
    ) -> None:
        self.benchmarks = [
            get_benchmark(bench) if isinstance(bench, str) else bench for bench in benchmarks
        ]
        self.sizes = dict(sizes or {})
        self.board = board
        self.strategy = strategy
        self.budget = budget
        self.prune = prune
        self.workers = workers
        self.model = model
        self.search_seed = search_seed
        self.eval_fraction = eval_fraction
        self.max_evaluations = max_evaluations
        self.disk_cache = disk_cache
        self.cycle_model = cycle_model
        self.pipelines = tuple(pipelines) if pipelines else ("default",)
        self.resilience = resilience
        # When set, evaluation routes through a compile-farm client
        # (repro.serve.SyncClient or anything sharing its evaluate()
        # surface) instead of this process.  The farm brings its own pool
        # and supervision: ``workers`` and this explorer's retry settings
        # do not apply to it (its checkpoint journal still does).
        self.farm = farm

    def run(self) -> Dict[str, ExplorationResult]:
        """Drive every lane to completion and return results per benchmark."""
        started = time.perf_counter()
        lanes = [
            _build_lane(
                benchmark,
                self.sizes.get(benchmark.name),
                self.board,
                self.strategy,
                self.search_seed,
                budget=self.budget,
                prune=self.prune,
                max_evaluations=self.max_evaluations,
                eval_fraction=self.eval_fraction,
                pipelines=self.pipelines,
            )
            for benchmark in self.benchmarks
        ]
        if self.farm is not None:
            self._validate_farm(self.farm, lanes)
        return _explore_lanes(
            lanes,
            started,
            self.board,
            self.model,
            self.workers,
            True,
            self.disk_cache,
            self.cycle_model,
            self.resilience,
            farm=self.farm,
        )


    def _validate_farm(self, client, lanes: List[_Lane]) -> None:
        """Reject farm/explorer mismatches before any evaluation runs.

        A farm builds benchmark programs and workloads once at start-up; an
        explorer pointed at it must agree on benchmark set, problem sizes
        and board, or the farm would silently evaluate different workloads
        than a serial :func:`explore` of this explorer's configuration.
        Attributes the client does not expose are skipped — a minimal
        duck-typed client only needs ``evaluate``.
        """
        names = getattr(client, "benchmark_names", None)
        if names is not None:
            known = set(names() if callable(names) else names)
            for lane in lanes:
                if lane.benchmark.name not in known:
                    raise FarmError(
                        f"benchmark {lane.benchmark.name!r} is not served by the "
                        f"farm (serves: {sorted(known)})"
                    )
        lane_sizes = getattr(client, "lane_sizes", None)
        if lane_sizes is not None:
            for lane in lanes:
                farm_sizes = lane_sizes(lane.benchmark.name)
                if farm_sizes is not None and dict(farm_sizes) != dict(lane.sizes):
                    raise FarmError(
                        f"benchmark {lane.benchmark.name!r} sizes differ: explorer "
                        f"uses {dict(lane.sizes)}, farm serves {dict(farm_sizes)}"
                    )
        board_name = getattr(client, "board_name", None)
        if board_name is not None and board_name != self.board.name:
            raise FarmError(
                f"board mismatch: explorer targets {self.board.name!r}, "
                f"farm serves {board_name!r}"
            )
