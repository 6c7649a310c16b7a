"""The design-space exploration engine: prune → search → evaluate → rank.

:func:`explore` drives the paper's central loop — tile a parallel-pattern
program, generate a hardware design, estimate area and cycles — over a
whole :class:`~repro.dse.space.DesignSpace` instead of one hand-picked
configuration per benchmark:

1. every point is scored by the closed-form area estimator and points that
   cannot fit the board are discarded before any compilation work;
2. a search strategy (:mod:`repro.dse.search`) decides which surviving
   points to evaluate — the exhaustive grid by default, hill climbing or a
   genetic algorithm when the space is too big to enumerate — and the
   engine evaluates its batches, either serially (sharing the
   process-global analysis cache) or fanned out across a
   ``multiprocessing`` pool;
3. results come back Pareto-ranked on (cycles, area).

Whole point evaluations are memoised in the analysis cache
(``point_results`` table) keyed on the program's structural hash, the
workload signature, the point and the board — and, with ``disk_cache=``,
persisted across processes so repeated sweeps and CI runs skip compilation
entirely for points they have seen before.

:func:`evaluate_config` is the shared single-point path; the Figure 7
harness routes its three-configuration sweep through it so the whole
evaluation stack benefits from the same caches.  For sweeping several
benchmarks at once, :class:`MultiBenchmarkExplorer` runs every benchmark's
search through **one** shared worker pool with interleaved scheduling,
instead of paying one pool spin-up per sweep.
"""

from __future__ import annotations

import hashlib
import pickle
import time
import warnings
from collections import Counter
from dataclasses import astuple, dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

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
from repro.sim.metrics import SimulationResult
from repro.sim.model import PerformanceModel
from repro.target.device import Board, DEFAULT_BOARD

__all__ = [
    "EvaluatedConfig",
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
    ``supervision`` carries the supervisor's counters (retries, timeouts,
    pool respawns, …) for the run — in a multi-benchmark sweep, for the
    whole shared-pool suite.  ``batch_engagement`` totals the batched
    evaluator's per-point outcomes over a ``batch_eval`` run (``vector``,
    ``cached`` or a fallback reason; see :mod:`repro.dse.batch`), and is
    empty otherwise.
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


def _pipeline_signature(session: CompilerSession, gene: str) -> Tuple:
    """Signature of the pipeline ``session`` runs for a point's pipeline gene.

    ``"default"`` is the session's own pipeline (signature cached on the
    instance); any other gene resolves through the variant registry, whose
    memoised :func:`~repro.pipeline.variants.variant_signature` matches what
    ``session.pipeline_for`` would build — without constructing the
    pipeline on the warm path.  Raises ``ValueError`` for unknown variants,
    exactly as the compile itself would.
    """
    if gene == "default":
        return session.pipeline.signature()
    return variant_signature(gene)


def _effective_model(
    model: Optional[PerformanceModel], point: DesignPoint
) -> Optional[PerformanceModel]:
    """Fold the point's DRAM-channel gene into the performance model.

    The channel count is a *design* choice, not a session-wide knob, so the
    engine folds it into the model per point right before timing (and
    before keying the memo table — ``astuple`` then separates channel
    counts naturally).  At the default ``dram_channels=1`` the model passes
    through untouched, keeping single-channel sweeps bit-compatible with
    pre-gene cache entries and journal digests.
    """
    channels = getattr(point, "dram_channels", 1)
    if channels == 1:
        return model
    base = model if model is not None else PerformanceModel()
    if base.dram_channels == channels:
        return model
    return replace(base, dram_channels=channels)


def _point_result_key(
    program: Program,
    bindings: Mapping[str, object],
    point: DesignPoint,
    board: Board,
    model: Optional[PerformanceModel],
    pipeline_signature: Tuple,
    cycle_model: str = "analytical",
) -> Optional[Tuple]:
    """Cross-process cache key for one whole point evaluation, or None.

    Exploration results are size-driven (array *contents* never reach the
    static analyses or the cycle model), so the workload signature —
    structural hash plus size/shape bindings — plus the point, board and
    model parameters fully determines the outcome.  ``pipeline_signature``
    must be the pass-sequence signature of the pipeline the evaluation
    *actually compiles through* (the session's resolution of the point's
    pipeline gene, not the registry's) — keying on anything else would let
    a session with an overridden pipeline poison the shared table.
    Subclassed boards or models fall back to None (no memoisation) rather
    than risk a stale hit.
    """
    if type(board) is not Board or (model is not None and type(model) is not PerformanceModel):
        return None
    from repro.analysis.estimate import input_shapes, workload_env

    return (
        program.body.structural_hash(),
        tuple(array.name for array in program.inputs),
        tuple(size.name for size in program.sizes),
        env_signature(workload_env(program, bindings), input_shapes(program, bindings)),
        point.tile_sizes,
        point.par,
        point.metapipelining,
        pipeline_signature,
        cycle_model,
        astuple(board),
        astuple(model) if model is not None else (),
    )


def _point_digest(
    program: Program,
    bindings: Mapping[str, object],
    point: DesignPoint,
    board: Board,
    model: Optional[PerformanceModel],
    session: CompilerSession,
    cycle_model: str = "analytical",
) -> Optional[bytes]:
    """Stable digest of a point evaluation's cache key, or None.

    The checkpoint journal keys its records on this: blake2b over the
    pickled :func:`_point_result_key` tuple (protocol pinned so the bytes
    are stable across interpreter runs — the key already is, since
    structural hashes are blake2b themselves).  Points the cache would
    refuse to key (subclassed boards/models, unregistered pipeline
    variants) are not journalable either.
    """
    try:
        signature = _pipeline_signature(session, point.pipeline)
    except ValueError:
        return None
    key = _point_result_key(
        program,
        bindings,
        point,
        board,
        _effective_model(model, point),
        signature,
        cycle_model,
    )
    if key is None:
        return None
    try:
        blob = pickle.dumps(key, protocol=4)
    except Exception:
        return None
    return hashlib.blake2b(blob, digest_size=16).digest()


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

    Whole evaluations are memoised in the analysis cache (``point_results``
    table) under a process-stable key, so re-sweeps in one process — and,
    through the disk-persisted store, across processes — skip compilation
    and simulation entirely.  When a ``session`` is supplied, its board,
    model and pipeline resolution are authoritative (for the key as much
    as for the compile — they must never diverge).
    """
    if session is None:
        session = CompilerSession(board=board, model=model)
    else:
        board = session.board
        model = model if model is not None else session.model
    # The point's DRAM-channel gene rides on the model: fold it in before
    # the key is formed and before the simulate, so channel counts memoise
    # separately and the event backend times the provisioning the point
    # actually asks for.
    model = _effective_model(model, point)
    # The signature of the pipeline the compile will actually run (raises
    # for an unregistered variant name) keys the memoised result.  The
    # session resolves string genes through the registry, so the memoised
    # registry signature matches — and the variant pipeline itself is only
    # constructed on a cache miss, inside the compile.
    pipeline_signature = _pipeline_signature(session, point.pipeline)

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
        area = evaluated.compilation.area
        design = evaluated.compilation.design
        return PointResult(
            point=point,
            cycles=evaluated.simulation.cycles,
            seconds=evaluated.simulation.seconds,
            logic=area.total.logic,
            ffs=area.total.ffs,
            bram_bits=area.total.bram_bits,
            dsps=area.total.dsps,
            utilization={
                "logic": area.logic_utilization,
                "ffs": area.ff_utilization,
                "bram": area.bram_utilization,
                "dsps": area.dsp_utilization,
            },
            read_bytes=design.main_memory_read_bytes,
            write_bytes=design.main_memory_write_bytes,
        )

    if not ANALYSIS_CACHE.enabled:
        return compute()
    key = _point_result_key(
        program, bindings, point, board, model, pipeline_signature, cycle_model
    )
    if key is None:
        return compute()
    cached = ANALYSIS_CACHE.memoize("point_results", key, compute)
    # Hand out a copy so callers mutating the utilization dict (or the
    # result) cannot poison the shared cache entry.
    return replace(cached, utilization=dict(cached.utilization))


def _seed_point_results(
    program: Program,
    bindings: Mapping[str, object],
    board: Board,
    model: Optional[PerformanceModel],
    points: Sequence[DesignPoint],
    results: Sequence[PointResult],
    session: Optional[CompilerSession] = None,
    cycle_model: str = "analytical",
) -> None:
    """Insert pool-computed evaluations into this process's cache.

    Forked workers memoise in their own copies of the cache; without this,
    a parallel sweep would leave the parent's ``point_results`` table empty
    and the disk store (plus later serial reruns) would gain nothing from
    the run.  ``session`` must resolve pipelines the same way the workers'
    sessions did (workers build plain default-pipeline sessions, so any
    default session over the same board/model matches).
    """
    if not ANALYSIS_CACHE.enabled:
        return
    if session is None:
        session = CompilerSession(board=board, model=model)
    for point, result in zip(points, results):
        try:
            signature = _pipeline_signature(session, point.pipeline)
        except ValueError:
            continue  # unregistered variant: never memoise
        key = _point_result_key(
            program,
            bindings,
            point,
            board,
            _effective_model(model, point),
            signature,
            cycle_model,
        )
        if key is not None:
            ANALYSIS_CACHE.put("point_results", key, result)


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
    specs: Dict[str, Tuple[Dict[str, int], int]],
    board,
    model,
    memoize: bool = True,
    cycle_model: str = "analytical",
    fault_plan=None,
    cache_warmup: Optional[Tuple[str, object]] = None,
) -> None:
    """Initialise one pool worker for a set of benchmarks.

    ``specs`` maps benchmark name → (sizes, input seed).  Programs and
    bindings are built lazily on first use, so a worker that only ever sees
    tasks for one benchmark never pays for the others.  ``fault_plan``
    installs a deterministic fault-injection schedule
    (:class:`repro.dse.resilience.FaultPlan`) consulted at every task entry
    — the chaos-testing hook; None in production.

    ``cache_warmup`` pre-warms the worker's analysis cache from a persisted
    store: ``("load", path)`` pays a full eager ``load_disk`` (every table
    unpickled at spawn), ``("snapshot", path)`` attaches a memory-mapped
    snapshot (:mod:`repro.serve.snapshot`) whose tables load lazily on
    first touch — the compile farm's fast spawn path.  ``None`` (the
    default) keeps the historical behaviour: forked workers inherit the
    parent's warm cache copy-on-write and spawn-context workers start cold.
    """
    _WORKER_STATE["specs"] = dict(specs)
    _WORKER_STATE["board"] = board
    _WORKER_STATE["model"] = model
    _WORKER_STATE["cycle_model"] = cycle_model
    _WORKER_STATE["fault_plan"] = fault_plan
    _WORKER_STATE["programs"] = {}
    # One session per worker: forked workers inherit the parent's warm
    # analysis cache copy-on-write, and the session gives every evaluation
    # in this process the same pipeline/naming-scope ownership as the
    # serial path.
    _WORKER_STATE["session"] = CompilerSession(board=board, model=model)
    if not memoize:
        ANALYSIS_CACHE.clear()
        ANALYSIS_CACHE.enabled = False
    elif cache_warmup is not None:
        mode, path = cache_warmup
        if mode == "load":
            ANALYSIS_CACHE.load_disk(path)
        elif mode == "snapshot":
            from repro.serve.snapshot import attach_snapshot

            attach_snapshot(ANALYSIS_CACHE, path)
        else:
            raise ValueError(f"unknown cache warmup mode {mode!r}")


def _evaluate_point_task(task: Tuple) -> PointResult:
    """Evaluate one ``(benchmark, point[, attempt[, cycle_model]])`` task.

    The supervised evaluator ships 3-tuples carrying the attempt number, so
    an installed fault plan fires identically no matter which worker runs
    the task; the legacy fast path still sends 2-tuples (attempt 1).  The
    compile farm ships 4-tuples that additionally override the worker's
    default cycle backend per task — one farm pool serves analytical and
    event requests side by side.
    """
    cycle_model = None
    if len(task) == 4:
        bench_name, point, attempt, cycle_model = task
    elif len(task) == 3:
        bench_name, point, attempt = task
    else:
        bench_name, point = task
        attempt = 1
    plan = _WORKER_STATE.get("fault_plan")
    marker = None
    if plan is not None:
        marker = plan.fire(bench_name, point.label, attempt, in_worker=True)
    programs: Dict[str, Tuple[Program, Dict[str, object]]] = _WORKER_STATE["programs"]
    if bench_name not in programs:
        sizes, seed = _WORKER_STATE["specs"][bench_name]
        bench = get_benchmark(bench_name)
        programs[bench_name] = (
            bench.build(),
            bench.bindings(sizes, np.random.default_rng(seed)),
        )
    program, bindings = programs[bench_name]
    result = evaluate_point(
        program,
        bindings,
        point,
        board=_WORKER_STATE["board"],
        model=_WORKER_STATE["model"],
        session=_WORKER_STATE["session"],
        cycle_model=cycle_model or _WORKER_STATE.get("cycle_model", "analytical"),
    )
    if marker == "corrupt":
        result = corrupt_result(result)
    return result


# ---------------------------------------------------------------------------
# The exploration driver
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

    Args:
        bench: benchmark name (``repro.apps``) or a :class:`Benchmark`.
        sizes: workload sizes; defaults to the benchmark's evaluation sizes.
        board: target board; prune decisions are taken against its device.
        space: design points to consider; defaults to
            :func:`repro.dse.space.default_space` over the benchmark's tiled
            dimensions.
        budget: fraction of each device resource a point may use before the
            analytical pre-filter prunes it (1.0 = the whole chip).
        workers: worker processes; ``None`` and 1 evaluate in-process,
            larger values fan each search batch out over a
            ``multiprocessing`` pool (requires ``bench`` to be a registered
            benchmark name).
        memoize: share tiling results and analysis values through the
            process-global cache.  ``False`` clears the cache and disables
            it for the duration of the run — the cold path the benchmarks
            time against.
        prune: apply the analytical area pre-filter before compiling.
        model: performance-model override for simulation.
        seed: RNG seed for input generation (results are size-driven, so
            the seed only affects array contents).
        strategy: search strategy — a name (``"exhaustive"``,
            ``"hill-climb"``, ``"genetic"``) or a
            :class:`repro.dse.search.Strategy` instance.  ``None`` is the
            exhaustive grid, PR 1's behaviour.
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
        resilience: a :class:`repro.dse.resilience.ResiliencePolicy`
            enabling supervised evaluation — per-point timeouts, bounded
            retries with backoff, pool respawn, quarantine of
            deterministically-failing points, checkpoint/resume journaling
            and (in tests) fault injection.  ``None`` keeps the unsupervised
            fast path; a ``KeyboardInterrupt`` still returns partial
            results (``interrupted=True``) and a failed pool spawn still
            degrades to serial evaluation in either mode.
        batch_eval: evaluate each search batch through the vectorized
            backend (:func:`repro.dse.batch.evaluate_point_batch`) instead
            of per-point calls — bit-identical results, same cache entries
            and journal digests.  ``True`` evaluates whole batches; an
            integer caps the block size (memory bound on the stacked
            arrays); ``None``/``False`` keeps the per-point path.  Only the
            in-process path batches: with ``workers > 1`` the pool already
            amortises dispatch, so ``batch_eval`` is ignored there.  Under
            a resilience policy, points the fault plan targets detour
            through the supervised per-point path (retries, quarantine,
            corruption checks), everything else is batched — chaos runs
            stay bit-identical to fault-free ones.
    """
    from repro.dse.search import SearchDriver, get_strategy

    benchmark = get_benchmark(bench) if isinstance(bench, str) else bench
    sizes = dict(sizes or benchmark.default_sizes)
    bindings = benchmark.bindings(sizes, np.random.default_rng(seed))
    program = benchmark.build()
    if space is None:
        tiled_dims = {name: sizes[name] for name in benchmark.tile_sizes if name in sizes}
        space = default_space(
            tiled_dims, pipelines=tuple(pipelines) if pipelines else ("default",)
        )

    from repro.analysis.estimate import input_shapes

    shapes = input_shapes(program, bindings)
    session = CompilerSession(board=board, model=model)
    started = time.perf_counter()

    survivors, pruned_results = _prune_space(space, shapes, sizes, board, budget, prune)
    survivor_space = DesignSpace().extend(survivors)

    strat = get_strategy(strategy)
    if max_evaluations is None and eval_fraction is not None:
        max_evaluations = max(1, int(eval_fraction * len(survivors)))

    workers = workers if workers is not None else 1
    workers = min(workers, len(survivors)) if survivors else 1

    if memoize and disk_cache is not None:
        ANALYSIS_CACHE.load_disk(disk_cache)

    specs = {benchmark.name: (sizes, seed)}

    # -- checkpoint journal (resume without re-evaluating) ----------------
    journal: Optional[CheckpointJournal] = None
    journal_entries: Dict[bytes, PointResult] = {}
    if resilience is not None and resilience.checkpoint is not None:
        journal = CheckpointJournal(resilience.checkpoint)
        journal_entries = journal.load()
    state = {"resumed": 0}

    def digest_of(point: DesignPoint) -> Optional[bytes]:
        return _point_digest(
            program, bindings, point, board, model, session, cycle_model
        )

    def journal_record(point: DesignPoint, result: PointResult) -> None:
        if journal is None:
            return
        digest = digest_of(point)
        if digest is None or digest in journal_entries:
            return
        journal.append(digest, result)
        journal_entries[digest] = result

    quarantine_order: Dict[DesignPoint, PointResult] = {}
    driver = SearchDriver(
        strat,
        survivor_space,
        seed=search_seed,
        max_evaluations=max_evaluations,
        on_record=journal_record,
    )

    def drive(evaluate_batch: Callable[[List[DesignPoint]], List[PointResult]]) -> None:
        driver.start()
        while not driver.done:
            fresh = driver.fresh_points()
            if fresh:
                results = evaluate_batch(fresh)
                for point, result in zip(fresh, results):
                    if getattr(result, "failed", False):
                        quarantine_order.setdefault(point, result)
                driver.record(fresh, results)
            driver.advance()

    def with_replay(
        evaluate_batch: Callable[[List[DesignPoint]], List[PointResult]]
    ) -> Callable[[List[DesignPoint]], List[PointResult]]:
        """Serve journaled results before paying for an evaluation."""
        if not journal_entries:
            return evaluate_batch

        def wrapped(points: List[DesignPoint]) -> List[PointResult]:
            out: List[Optional[PointResult]] = [None] * len(points)
            todo: List[int] = []
            replayed: List[Tuple[DesignPoint, PointResult]] = []
            for i, point in enumerate(points):
                digest = digest_of(point)
                hit = journal_entries.get(digest) if digest is not None else None
                if hit is not None:
                    out[i] = hit
                    state["resumed"] += 1
                    replayed.append((point, hit))
                else:
                    todo.append(i)
            if replayed and memoize:
                _seed_point_results(
                    program,
                    bindings,
                    board,
                    model,
                    [p for p, _ in replayed],
                    [r for _, r in replayed],
                    session=session,
                    cycle_model=cycle_model,
                )
            if todo:
                computed = evaluate_batch([points[i] for i in todo])
                for i, result in zip(todo, computed):
                    out[i] = result
            return out

        return wrapped

    def eval_serial(points: List[DesignPoint]) -> List[PointResult]:
        return [
            evaluate_point(
                program,
                bindings,
                point,
                board=board,
                model=model,
                session=session,
                cycle_model=cycle_model,
            )
            for point in points
        ]

    # Per-point outcomes of the batched evaluator (empty unless batching).
    engagement: Counter = Counter()
    if batch_eval is not None and batch_eval is not False:
        if batch_eval is not True and (
            not isinstance(batch_eval, int) or batch_eval < 1
        ):
            raise ValueError(
                f"batch_eval must be True, False, None or a positive block "
                f"size, got {batch_eval!r}"
            )
        block = None if batch_eval is True else int(batch_eval)

        def eval_batched(points: List[DesignPoint]) -> List[PointResult]:
            from repro.dse.batch import evaluate_point_batch

            if block is None or block >= len(points):
                blocks = [points]
            else:
                blocks = [
                    points[start : start + block]
                    for start in range(0, len(points), block)
                ]
            out: List[PointResult] = []
            for chunk in blocks:
                out.extend(
                    evaluate_point_batch(
                        program,
                        bindings,
                        chunk,
                        model=model,
                        session=session,
                        cycle_model=cycle_model,
                        engagement=engagement,
                    )
                )
            return out

        eval_in_process = eval_batched
    else:
        eval_in_process = eval_serial

    def run_legacy() -> None:
        if workers <= 1:
            drive(with_replay(eval_in_process))
            return
        try:
            pool = pool_context().Pool(
                processes=workers,
                initializer=_init_worker,
                initargs=(specs, board, model, memoize, cycle_model),
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            warnings.warn(
                f"worker pool spawn failed ({type(exc).__name__}: {exc}); "
                "falling back to in-process serial evaluation",
                RuntimeWarning,
                stacklevel=2,
            )
            drive(with_replay(eval_in_process))
            return

        def eval_pool(points: List[DesignPoint]) -> List[PointResult]:
            results = pool.map(
                _evaluate_point_task, [(benchmark.name, p) for p in points]
            )
            if memoize:
                _seed_point_results(
                    program,
                    bindings,
                    board,
                    model,
                    points,
                    results,
                    session=session,
                    cycle_model=cycle_model,
                )
            return results

        with pool:
            drive(with_replay(eval_pool))

    supervision: Dict[str, int] = {}

    def run_supervised(policy: ResiliencePolicy) -> None:
        pool_factory = None
        if workers > 1:
            def pool_factory():
                return pool_context().Pool(
                    processes=workers,
                    initializer=_init_worker,
                    initargs=(
                        specs, board, model, memoize, cycle_model, policy.fault_plan
                    ),
                )

        # Retries and the serial fallback compile through a clone, so a
        # failure mid-compile cannot leave half-recorded state in the
        # session the rest of the exploration uses.
        fallback_session = session.clone()

        def serial_compute(task: Tuple[str, DesignPoint]) -> PointResult:
            return evaluate_point(
                program,
                bindings,
                task[1],
                board=board,
                model=model,
                session=fallback_session,
                cycle_model=cycle_model,
            )

        evaluator = SupervisedEvaluator(
            policy,
            serial_compute,
            workers=workers,
            pool_factory=pool_factory,
            pooled_task=_evaluate_point_task,
        )
        try:
            def eval_supervised(points: List[DesignPoint]) -> List[PointResult]:
                if eval_in_process is not eval_serial and workers <= 1:
                    # Batched + supervised: only the points the fault plan
                    # actually targets need the per-point supervision
                    # machinery (timeouts, retries, corruption checks,
                    # quarantine); the rest go through the vectorized
                    # backend.  Results are bit-identical either way, so
                    # chaos runs match fault-free ones exactly as in the
                    # per-point path.
                    plan = policy.fault_plan
                    victims = {
                        i
                        for i, p in enumerate(points)
                        if plan is not None
                        and plan.spec_for(benchmark.name, p.label) is not None
                    }
                    out: List[Optional[PointResult]] = [None] * len(points)
                    clean = [i for i in range(len(points)) if i not in victims]
                    if clean:
                        for i, result in zip(
                            clean, eval_in_process([points[i] for i in clean])
                        ):
                            out[i] = result
                    if victims:
                        ordered = sorted(victims)
                        supervised = evaluator.evaluate(
                            [(benchmark.name, points[i]) for i in ordered]
                        )
                        for i, result in zip(ordered, supervised):
                            out[i] = result
                    return out  # type: ignore[return-value]
                results = evaluator.evaluate([(benchmark.name, p) for p in points])
                if memoize and workers > 1:
                    ok = [
                        (p, r)
                        for p, r in zip(points, results)
                        if not getattr(r, "failed", False)
                    ]
                    if ok:
                        _seed_point_results(
                            program,
                            bindings,
                            board,
                            model,
                            [p for p, _ in ok],
                            [r for _, r in ok],
                            session=session,
                            cycle_model=cycle_model,
                        )
                return results

            drive(with_replay(eval_supervised))
        finally:
            evaluator.close()
            supervision.update(evaluator.stats.as_dict())

    def run_exploration() -> None:
        if resilience is not None:
            run_supervised(resilience)
        else:
            run_legacy()

    interrupted = False
    try:
        if not memoize:
            ANALYSIS_CACHE.clear()
            with ANALYSIS_CACHE.disabled():
                run_exploration()
        else:
            run_exploration()
    except KeyboardInterrupt:
        # Return what completed: the pool is already torn down (context
        # manager / evaluator.close), the journal holds every recorded
        # result, and the dirty cache state is flushed right below.
        interrupted = True

    if memoize and disk_cache is not None:
        ANALYSIS_CACHE.save_disk(disk_cache, only_if_dirty=True)

    elapsed = time.perf_counter() - started
    # Workers memoize in their own forked copies of the cache, so parent
    # stats would misrepresent a parallel run — report them only when the
    # evaluation actually went through this process's cache.
    stats = ANALYSIS_CACHE.stats() if memoize and workers <= 1 else {}
    return ExplorationResult(
        benchmark=benchmark.name,
        sizes=sizes,
        board_name=board.name,
        evaluated=list(driver.seen.values()),
        pruned=pruned_results,
        elapsed_seconds=elapsed,
        workers=workers,
        cache_stats=stats,
        strategy=strat.name,
        space_size=len(space),
        quarantined=list(quarantine_order.values()),
        interrupted=interrupted,
        resumed=state["resumed"],
        supervision=supervision,
        batch_engagement=dict(engagement),
    )


# ---------------------------------------------------------------------------
# Multi-benchmark exploration over one shared pool
# ---------------------------------------------------------------------------


@dataclass
class _Lane:
    """Per-benchmark search state inside the multi-benchmark explorer."""

    benchmark: Benchmark
    sizes: Dict[str, int]
    program: Program
    bindings: Dict[str, object]
    driver: object  # repro.dse.search.SearchDriver
    pruned: List[PointResult]
    space_size: int
    elapsed_seconds: float = 0.0
    quarantined: Dict[DesignPoint, PointResult] = field(default_factory=dict)
    resumed: int = 0


class MultiBenchmarkExplorer:
    """Run several benchmarks' searches through one shared worker pool.

    A per-benchmark :func:`explore` pays one pool spin-up per sweep and
    leaves workers idle while a small benchmark finishes; this explorer
    instead keeps **one** pool alive and interleaves the benchmarks' search
    batches round-robin across it, so a long benchmark cannot starve the
    others and every fork is amortised over the whole suite.

    Every benchmark runs the same strategy (fresh instance each, seeded
    deterministically per lane) against its own pruned space; results come
    back as one :class:`ExplorationResult` per benchmark.
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
        seed: int = 3,
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
        self.seed = seed
        self.search_seed = search_seed
        self.eval_fraction = eval_fraction
        self.max_evaluations = max_evaluations
        self.disk_cache = disk_cache
        self.cycle_model = cycle_model
        self.pipelines = tuple(pipelines) if pipelines else ("default",)
        self.resilience = resilience
        # When set, evaluation routes through a compile-farm client
        # (repro.serve.SyncClient or anything sharing its evaluate()
        # surface) instead of a locally owned pool.  The farm brings its
        # own supervision; ``workers`` and ``resilience.pool`` settings on
        # this explorer only affect the farm-less fallback paths.
        self.farm = farm

    def _build_lanes(self) -> List[_Lane]:
        from repro.analysis.estimate import input_shapes
        from repro.dse.search import SearchDriver

        lanes: List[_Lane] = []
        for benchmark in self.benchmarks:
            sizes = dict(self.sizes.get(benchmark.name) or benchmark.default_sizes)
            bindings = benchmark.bindings(sizes, np.random.default_rng(self.seed))
            program = benchmark.build()
            tiled_dims = {
                name: sizes[name] for name in benchmark.tile_sizes if name in sizes
            }
            space = default_space(tiled_dims, pipelines=self.pipelines)
            shapes = input_shapes(program, bindings)
            survivors, pruned = _prune_space(
                space, shapes, sizes, self.board, self.budget, self.prune
            )
            survivor_space = DesignSpace().extend(survivors)
            cap = self.max_evaluations
            if cap is None and self.eval_fraction is not None:
                cap = max(1, int(self.eval_fraction * len(survivors)))
            # Every lane uses the same search seed, so the shared pool is a
            # pure scheduling optimisation: each benchmark evaluates exactly
            # the points a standalone explore(search_seed=...) would.
            lanes.append(
                _Lane(
                    benchmark=benchmark,
                    sizes=sizes,
                    program=program,
                    bindings=bindings,
                    driver=SearchDriver(
                        self.strategy,
                        survivor_space,
                        seed=self.search_seed,
                        max_evaluations=cap,
                    ),
                    pruned=pruned,
                    space_size=len(space),
                )
            )
        return lanes

    def run(self) -> Dict[str, ExplorationResult]:
        """Drive every lane to completion and return results per benchmark."""
        started = time.perf_counter()
        if self.disk_cache is not None:
            ANALYSIS_CACHE.load_disk(self.disk_cache)
        lanes = self._build_lanes()
        by_name = {lane.benchmark.name: lane for lane in lanes}
        # Mirrors the workers' default-pipeline sessions so seeded cache and
        # journal keys match what a serial rerun would look up.
        seed_session = CompilerSession(board=self.board, model=self.model)

        policy = self.resilience
        journal: Optional[CheckpointJournal] = None
        journal_entries: Dict[bytes, PointResult] = {}
        if policy is not None and policy.checkpoint is not None:
            journal = CheckpointJournal(policy.checkpoint)
            journal_entries = journal.load()

        def digest_of(bench_name: str, point: DesignPoint) -> Optional[bytes]:
            lane = by_name[bench_name]
            return _point_digest(
                lane.program,
                lane.bindings,
                point,
                self.board,
                self.model,
                seed_session,
                self.cycle_model,
            )

        def make_recorder(lane: _Lane):
            def on_record(point: DesignPoint, result: PointResult) -> None:
                if journal is None:
                    return
                digest = digest_of(lane.benchmark.name, point)
                if digest is None or digest in journal_entries:
                    return
                journal.append(digest, result)
                journal_entries[digest] = result

            return on_record

        for lane in lanes:
            lane.driver.on_record = make_recorder(lane)
            lane.driver.start()

        def with_replay(evaluate_tasks):
            """Serve journaled results before paying for an evaluation."""
            if not journal_entries:
                return evaluate_tasks

            def wrapped(tasks):
                out = [None] * len(tasks)
                todo = []
                for i, (bench_name, point) in enumerate(tasks):
                    digest = digest_of(bench_name, point)
                    hit = journal_entries.get(digest) if digest is not None else None
                    if hit is not None:
                        out[i] = hit
                        lane = by_name[bench_name]
                        lane.resumed += 1
                        _seed_point_results(
                            lane.program,
                            lane.bindings,
                            self.board,
                            self.model,
                            [point],
                            [hit],
                            session=seed_session,
                            cycle_model=self.cycle_model,
                        )
                    else:
                        todo.append(i)
                if todo:
                    computed = evaluate_tasks([tasks[i] for i in todo])
                    for i, result in zip(todo, computed):
                        out[i] = result
                return out

            return wrapped

        total_points = sum(
            len(lane.driver.requested) for lane in lanes
        )  # first-round estimate only, used to cap workers
        workers = self.workers if self.workers is not None else 1
        workers = min(workers, max(1, total_points))
        specs = {lane.benchmark.name: (lane.sizes, self.seed) for lane in lanes}

        def seed_results(tasks, results) -> None:
            for (bench_name, point), result in zip(tasks, results):
                if getattr(result, "failed", False):
                    continue
                lane = by_name[bench_name]
                _seed_point_results(
                    lane.program,
                    lane.bindings,
                    self.board,
                    self.model,
                    [point],
                    [result],
                    session=seed_session,
                    cycle_model=self.cycle_model,
                )

        supervision: Dict[str, int] = {}
        interrupted = False

        def run_legacy_pool() -> None:
            nonlocal interrupted
            try:
                pool = pool_context().Pool(
                    processes=workers,
                    initializer=_init_worker,
                    initargs=(specs, self.board, self.model, True, self.cycle_model),
                )
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                warnings.warn(
                    f"worker pool spawn failed ({type(exc).__name__}: {exc}); "
                    "falling back to in-process serial evaluation",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self._drive(lanes, with_replay(self._serial_evaluate(lanes)), started)
                return

            def pooled_evaluate(tasks):
                results = pool.map(_evaluate_point_task, tasks)
                seed_results(tasks, results)
                return results

            with pool:
                self._drive(lanes, with_replay(pooled_evaluate), started)

        def run_supervised() -> None:
            pool_factory = None
            if workers > 1:
                def pool_factory():
                    return pool_context().Pool(
                        processes=workers,
                        initializer=_init_worker,
                        initargs=(
                            specs,
                            self.board,
                            self.model,
                            True,
                            self.cycle_model,
                            policy.fault_plan,
                        ),
                    )

            serial_lane_evaluate = self._serial_evaluate(lanes)

            def serial_compute(task):
                return serial_lane_evaluate([task])[0]

            evaluator = SupervisedEvaluator(
                policy,
                serial_compute,
                workers=workers,
                pool_factory=pool_factory,
                pooled_task=_evaluate_point_task,
            )
            try:
                def supervised_evaluate(tasks):
                    results = evaluator.evaluate(tasks)
                    if workers > 1:
                        seed_results(tasks, results)
                    return results

                self._drive(lanes, with_replay(supervised_evaluate), started)
            finally:
                evaluator.close()
                supervision.update(evaluator.stats.as_dict())

        def run_farm() -> None:
            client = self.farm
            self._validate_farm(client, lanes)

            def farm_evaluate(tasks):
                results = client.evaluate(tasks, cycle_model=self.cycle_model)
                seed_results(tasks, results)
                return results

            self._drive(lanes, with_replay(farm_evaluate), started)
            farm_stats = getattr(client, "stats", None)
            if farm_stats is not None:
                supervision.update(farm_stats.as_dict())

        try:
            if self.farm is not None:
                run_farm()
            elif policy is not None:
                run_supervised()
            elif workers > 1:
                run_legacy_pool()
            else:
                self._drive(lanes, with_replay(self._serial_evaluate(lanes)), started)
        except KeyboardInterrupt:
            # Partial results: pools are torn down by their context manager
            # or evaluator.close(), the journal already holds everything
            # recorded, and the dirty cache flushes right below.
            interrupted = True

        if self.disk_cache is not None:
            ANALYSIS_CACHE.save_disk(self.disk_cache, only_if_dirty=True)

        results: Dict[str, ExplorationResult] = {}
        for lane in lanes:
            results[lane.benchmark.name] = ExplorationResult(
                benchmark=lane.benchmark.name,
                sizes=lane.sizes,
                board_name=self.board.name,
                evaluated=list(lane.driver.seen.values()),
                pruned=lane.pruned,
                # Completion latency of this lane within the interleaved
                # suite (joint batches make exclusive attribution moot).
                elapsed_seconds=lane.elapsed_seconds,
                workers=workers,
                strategy=lane.driver.strategy.name,
                space_size=lane.space_size,
                quarantined=list(lane.quarantined.values()),
                interrupted=interrupted,
                resumed=lane.resumed,
                # Supervision counters are per-suite: the pool (and its
                # supervisor) is shared across lanes.
                supervision=dict(supervision),
            )
        return results

    def _validate_farm(self, client, lanes: List[_Lane]) -> None:
        """Reject farm/explorer mismatches before any evaluation runs.

        A farm builds benchmark programs and bindings once at start-up; an
        explorer pointed at it must agree on benchmark set, problem sizes,
        input seed and board, or the farm would silently evaluate different
        workloads than a serial :func:`explore` of this explorer's
        configuration.  Attributes the client does not expose are skipped —
        a minimal duck-typed client only needs ``evaluate``.
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
        farm_seed = getattr(client, "seed", None)
        if farm_seed is not None and farm_seed != self.seed:
            raise FarmError(
                f"input seed mismatch: explorer uses {self.seed}, farm uses "
                f"{farm_seed} — bindings (and thus results) would differ"
            )

    def _serial_evaluate(self, lanes: List[_Lane]):
        by_name = {lane.benchmark.name: lane for lane in lanes}
        # One session shared by every lane: the whole suite compiles through
        # the same pipeline, caches and naming scope.
        session = CompilerSession(board=self.board, model=self.model)

        def evaluate(tasks: List[Tuple[str, DesignPoint]]) -> List[PointResult]:
            out = []
            for bench_name, point in tasks:
                lane = by_name[bench_name]
                out.append(
                    evaluate_point(
                        lane.program,
                        lane.bindings,
                        point,
                        board=self.board,
                        model=self.model,
                        session=session,
                        cycle_model=self.cycle_model,
                    )
                )
            return out

        return evaluate

    def _drive(self, lanes: List[_Lane], evaluate, started: float) -> None:
        """Round-robin the lanes' batches over one evaluator until all finish."""
        while any(not lane.driver.done for lane in lanes):
            active = [lane for lane in lanes if not lane.driver.done]
            per_lane = {id(lane): lane.driver.fresh_points() for lane in active}

            # Interleave: lane A point 1, lane B point 1, lane A point 2, …
            tasks: List[Tuple[str, DesignPoint]] = []
            owners: List[_Lane] = []
            cursor = 0
            while True:
                emitted = False
                for lane in active:
                    fresh = per_lane[id(lane)]
                    if cursor < len(fresh):
                        tasks.append((lane.benchmark.name, fresh[cursor]))
                        owners.append(lane)
                        emitted = True
                cursor += 1
                if not emitted:
                    break

            if tasks:
                results = evaluate(tasks)
                by_lane: Dict[int, Tuple[List[DesignPoint], List[PointResult]]] = {}
                for (bench_name, point), lane, result in zip(tasks, owners, results):
                    points, outcomes = by_lane.setdefault(id(lane), ([], []))
                    points.append(point)
                    outcomes.append(result)
                for lane in active:
                    points, outcomes = by_lane.get(id(lane), ([], []))
                    for point, result in zip(points, outcomes):
                        if getattr(result, "failed", False):
                            lane.quarantined.setdefault(point, result)
                    lane.driver.record(points, outcomes)

            for lane in active:
                lane.driver.advance()
                if lane.driver.done:
                    lane.elapsed_seconds = time.perf_counter() - started
