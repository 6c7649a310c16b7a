"""The instrumented compiler session: the single entry point to compilation.

A :class:`CompilerSession` (aliased :data:`Session`) owns everything one
stream of compilations shares — the target board, the pass pipeline, the
performance model and the analysis cache — and exposes
:meth:`CompilerSession.compile` / :meth:`CompilerSession.compile_point` as
the one way to turn a PPL program into a :class:`CompilationResult`:

    session = Session(board=DEFAULT_BOARD)
    result = session.compile(program, config, bindings)
    sim = session.simulate(result)
    print(session.last_report.table())

Transform passes mint new symbol names from the process-global generator,
whose monotonicity is what guarantees a fresh name can never capture a
symbol already bound in the incoming program.  A caller that wants minted
names (and therefore structural hashes) to be a pure function of the
compile builds and compiles the program inside one
:func:`repro.utils.naming.fresh_naming_scope`, as
:meth:`repro.apps.base.Benchmark.compile` does.

Sessions are cheap to create: by default they share the process-global
:data:`~repro.dse.cache.ANALYSIS_CACHE`, so creating one session per sweep
(or per worker) costs nothing while keeping ownership explicit.  Besides
bounded instrumentation, a session keeps per-program state for the DSE
evaluators: the generation state of recently seen tiling configurations
(:meth:`CompilerSession.config_state`), an LRU of at most
:data:`CONFIG_STATE_LIMIT` entries keyed by content, and each pipeline
gene's split into pass prefix and terminal tail
(:meth:`CompilerSession.pipeline_split`).  So a long-lived session — a farm
lane's, a pool worker's — serves a configuration it has seen before
without building a pipeline or re-running the pass prefix.  Both are
bypassed while the analysis cache is disabled.  (The old module-level
``repro.compiler`` entry points served one deprecation release as shims
and have been removed.)
"""

from __future__ import annotations

from collections import Counter, OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Hashable, List, Mapping, Optional, TypeVar, Union

from repro.analysis.area import AreaReport, estimate_area
from repro.config import CompileConfig
from repro.dse.cache import ANALYSIS_CACHE, AnalysisCache
from repro.hw.design import HardwareDesign
from repro.hw.generation import generate_hardware
from repro.pipeline.passes import PassContext
from repro.pipeline.pipeline import Pipeline, PipelineOutcome, PipelineReport
from repro.pipeline.variants import get_pipeline, registry_generation
from repro.ppl.program import Program
from repro.schedule.ir import Schedule
from repro.sim.engine import simulate
from repro.sim.metrics import SimulationResult
from repro.sim.model import PerformanceModel
from repro.target.device import DEFAULT_BOARD, Board

__all__ = [
    "CONFIG_STATE_LIMIT",
    "CompilationResult",
    "CompilerSession",
    "Session",
    "TilingResult",
]

#: How many tiling configurations' generation state one session keeps
#: (:meth:`CompilerSession.config_state`); the least recently used entry is
#: evicted first.  The six apps' default spaces hold 114 configurations.
CONFIG_STATE_LIMIT = 256

_State = TypeVar("_State")
_MISSING = object()


class TilingResult:
    """The paper's stage snapshots of one compile's Section 4 tiling flow.

    ``strip_mined`` is the program just before pattern interchange (after
    the first cleanup), ``interchanged`` the program right after it, and
    ``tiled`` the program hardware generation saw; the Figure 5c table and
    the Table 3 harness read these forms.  A snapshot taken from the
    symbolic stretch of the pipeline is instantiated for ``config`` when
    first read (``resolve``).
    """

    _STAGES = ("original", "fused", "strip_mined", "interchanged", "tiled")

    def __init__(
        self,
        original: Program,
        fused: Program,
        strip_mined: Program,
        interchanged: Program,
        tiled: Program,
        config: CompileConfig,
        applied_interchanges: Optional[List[str]] = None,
        resolve: Optional[Callable[[Program], Program]] = None,
    ) -> None:
        self._snapshots = dict(zip(self._STAGES, (original, fused, strip_mined, interchanged, tiled)))
        self._resolve = resolve
        self.config = config
        self.applied_interchanges = list(applied_interchanges or [])

    def _stage(self, name: str) -> Program:
        snapshot = self._snapshots[name]
        if self._resolve is not None:
            snapshot = self._snapshots[name] = self._resolve(snapshot)
        return snapshot

    original = property(lambda self: self._stage("original"))
    fused = property(lambda self: self._stage("fused"))
    strip_mined = property(lambda self: self._stage("strip_mined"))
    interchanged = property(lambda self: self._stage("interchanged"))
    tiled = property(lambda self: self._stage("tiled"))

    def stages(self) -> Dict[str, Program]:
        return {name: self._stage(name) for name in self._STAGES}


@dataclass
class CompilationResult:
    """Everything produced by one compilation: IR stages, design, schedule,
    area, timing."""

    program: Program
    config: CompileConfig
    tiling: TilingResult
    design: HardwareDesign
    area: AreaReport
    schedule: Optional[Schedule] = None
    report: Optional[PipelineReport] = None

    @property
    def tiled_program(self) -> Program:
        return self.tiling.tiled

    def simulate(
        self,
        model: Optional[PerformanceModel] = None,
        cycle_model: str = "analytical",
    ) -> SimulationResult:
        target = self.schedule if self.schedule is not None else self.design
        return simulate(target, model, cycle_model=cycle_model)


class CompilerSession:
    """A configured compiler instance: board + pipeline + model + caches.

    Args:
        board: target board every compile is generated for.
        pipeline: the default pass pipeline — a
            :class:`~repro.pipeline.pipeline.Pipeline`, a registered variant
            name, or None for the paper's full flow.
        model: performance-model override used by :meth:`simulate`.
        cache: analysis cache to memoise through; defaults to the
            process-global :data:`~repro.dse.cache.ANALYSIS_CACHE`.
        keep_reports: how many per-compile :class:`PipelineReport` objects
            to retain (aggregate totals are always kept).
    """

    def __init__(
        self,
        board: Board = DEFAULT_BOARD,
        pipeline: Union[str, Pipeline, None] = None,
        model: Optional[PerformanceModel] = None,
        cache: Optional[AnalysisCache] = None,
        keep_reports: int = 64,
    ) -> None:
        self.board = board
        self.pipeline = get_pipeline(pipeline)
        self.model = model
        self.cache = cache if cache is not None else ANALYSIS_CACHE
        self.reports: Deque[PipelineReport] = deque(maxlen=keep_reports)
        self.compilations = 0
        self.pass_totals: Dict[str, Dict[str, float]] = {}
        self._config_states: "OrderedDict[Hashable, object]" = OrderedDict()
        self._config_counts: Counter = Counter()
        #: gene → (session pipeline, registry generation, split).
        self._splits: Dict[str, tuple] = {}

    def clone(self) -> "CompilerSession":
        """A fresh session with this one's configuration and no history.

        The DSE supervision layer uses this when it degrades a pooled
        exploration to in-process evaluation: the fallback compiles through
        an equivalent — but untouched — session, so whatever state the
        failure left behind (half-recorded reports, instrument totals)
        cannot leak into the recovered run's accounting.
        """
        return CompilerSession(
            board=self.board,
            pipeline=self.pipeline,
            model=self.model,
            cache=self.cache,
            keep_reports=self.reports.maxlen or 64,
        )

    # -- pipeline resolution -------------------------------------------------
    def pipeline_for(self, spec: Union[str, Pipeline, None] = None) -> Pipeline:
        """Resolve a per-compile pipeline override.

        ``None`` (and the gene value ``"default"``) mean *this session's*
        pipeline; a variant name resolves through the registry — freshly on
        every call, so re-registering a variant takes effect for live
        sessions too; a :class:`Pipeline` instance passes through.
        """
        if spec is None or spec == "default":
            return self.pipeline
        if isinstance(spec, Pipeline):
            return spec
        return get_pipeline(spec)

    # -- compilation -----------------------------------------------------------
    def compile(
        self,
        program: Program,
        config: CompileConfig,
        bindings: Mapping[str, object],
        par: Optional[int] = None,
        pipeline: Union[str, Pipeline, None] = None,
    ) -> CompilationResult:
        """Compile a PPL program for the given configuration and workload.

        ``bindings`` provides the concrete workload (sizes and, optionally,
        input arrays or their shapes alone —
        :meth:`~repro.apps.base.Benchmark.workload`) used to size buffers,
        trip counts and DRAM transfers.
        ``pipeline`` overrides the session pipeline for this one compile.
        """
        pipe = self.pipeline_for(pipeline)
        ctx = PassContext(
            config=config,
            bindings=bindings,
            board=self.board,
            par=par,
            model=self.model,
            cache=self.cache,
        )
        outcome = pipe.run(program, ctx)
        design = ctx.artifacts.get("design")
        if design is None:
            # Transform-only pipelines (no terminal passes) still yield a
            # complete result: the session generates and costs the design
            # itself, exactly as the terminal passes would have.
            design = generate_hardware(
                outcome.program, config, bindings, board=self.board, par=par
            )
        schedule = ctx.artifacts.get("schedule")
        if schedule is None:
            schedule = design.schedule()
        area = ctx.artifacts.get("area")
        if area is None:
            area = estimate_area(design)
        result = CompilationResult(
            program=program,
            config=config,
            tiling=self._tiling_result(program, config, ctx, outcome),
            design=design,
            area=area,
            schedule=schedule,
            report=outcome.report,
        )
        self._record(outcome.report)
        return result

    def compile_point(
        self,
        program: Program,
        point,
        bindings: Mapping[str, object],
    ) -> CompilationResult:
        """Compile one design point (:class:`repro.dse.space.DesignPoint`).

        The point's tile sizes and metapipelining flag become the compile
        config, its parallelisation factor the innermost ``par``, and its
        ``pipeline`` gene selects the pass-pipeline variant.
        """
        return self.compile(
            program,
            point.config(),
            bindings,
            par=point.par,
            pipeline=getattr(point, "pipeline", None),
        )

    def simulate(
        self,
        compilation: CompilationResult,
        model: Optional[PerformanceModel] = None,
        cycle_model: str = "analytical",
    ) -> SimulationResult:
        """Simulate a compiled design under this session's performance model.

        ``cycle_model`` selects the schedule backend: ``"analytical"`` (the
        closed forms, the DSE default) or ``"event"`` (the event-driven
        simulator with stage overlap, buffer stalls and DRAM contention).
        """
        return compilation.simulate(
            model if model is not None else self.model, cycle_model=cycle_model
        )

    # -- instrumentation -------------------------------------------------------
    @property
    def last_report(self) -> Optional[PipelineReport]:
        return self.reports[-1] if self.reports else None

    def _record(self, report: PipelineReport) -> None:
        self.compilations += 1
        self.reports.append(report)
        for record in report.records:
            totals = self.pass_totals.setdefault(
                record.name, {"runs": 0, "cache_hits": 0, "seconds": 0.0}
            )
            totals["runs"] += 1
            totals["cache_hits"] += 1 if record.cached else 0
            totals["seconds"] += record.seconds

    def pass_summary(self) -> str:
        """Aggregate per-pass totals over every compile this session ran."""
        header = f"{'pass':<22} {'runs':>6} {'hits':>6} {'total':>10}"
        lines = [
            f"session: {self.compilations} compilations on {self.board.name} "
            f"[pipeline {self.pipeline.name!r}]",
            header,
            "-" * len(header),
        ]
        for name, totals in self.pass_totals.items():
            lines.append(
                f"{name:<22} {int(totals['runs']):>6} {int(totals['cache_hits']):>6} "
                f"{totals['seconds'] * 1e3:>8.2f}ms"
            )
        return "\n".join(lines)

    # -- cache management ------------------------------------------------------
    def config_state(self, key: Hashable, build: Callable[[], _State]) -> _State:
        """The state ``build`` makes for one tiling configuration, kept by ``key``.

        The DSE evaluators (:mod:`repro.dse.batch`) keep each configuration's
        tiled program and its :class:`~repro.hw.generation.GenerationShared`
        here, keyed by content: the point key's workload head, the prefix
        pass signature and the config signature.  The memo is an LRU of at
        most :data:`CONFIG_STATE_LIMIT` entries.  While the analysis cache is
        disabled it is bypassed: ``build`` runs and nothing is read or kept.
        """
        if not (self.cache.enabled and ANALYSIS_CACHE.enabled):
            return build()
        states = self._config_states
        state = states.get(key, _MISSING)
        if state is not _MISSING:
            states.move_to_end(key)
            self._config_counts["hits"] += 1
            return state  # type: ignore[return-value]
        self._config_counts["misses"] += 1
        state = states[key] = build()
        while len(states) > CONFIG_STATE_LIMIT:
            states.popitem(last=False)
            self._config_counts["evictions"] += 1
        return state

    def pipeline_split(self, gene: str, split: Callable[[Pipeline], _State]) -> _State:
        """``split`` of the pipeline this session runs for ``gene``, kept per gene.

        The DSE evaluators (:mod:`repro.dse.batch`) keep each gene's stock
        tail split here, so a warm single-point call builds no pipeline.  An
        entry is split again once the gene may resolve to another pipeline:
        when this session's pipeline is replaced, or when any variant is
        registered (:func:`~repro.pipeline.variants.registry_generation`).
        Like :meth:`config_state`, it is bypassed while the analysis cache
        is disabled.  Raises ``ValueError`` for an unknown gene, as
        :meth:`pipeline_for` does.
        """
        if not (self.cache.enabled and ANALYSIS_CACHE.enabled):
            return split(self.pipeline_for(gene))
        generation = registry_generation()
        known = self._splits.get(gene)
        if known is None or known[0] is not self.pipeline or known[1] != generation:
            known = self._splits[gene] = (
                self.pipeline,
                generation,
                split(self.pipeline_for(gene)),
            )
        return known[2]

    def config_state_stats(self) -> Dict[str, int]:
        """Entries, hits, misses and evictions of :meth:`config_state`'s memo."""
        counts = self._config_counts
        return {
            "entries": len(self._config_states),
            "hits": counts["hits"],
            "misses": counts["misses"],
            "evictions": counts["evictions"],
        }

    def clear_caches(self) -> None:
        """Drop every memoised value and reset the disk-store dirty state.

        After this, the next compile is cold: every pass reruns, and a
        subsequent :meth:`~repro.dse.cache.AnalysisCache.save_disk` writes a
        fresh store even to a path the cache was previously clean against.
        The configuration memo (:meth:`config_state`) and the kept pipeline
        splits (:meth:`pipeline_split`) empty too.
        """
        self.cache.clear()
        self._config_states.clear()
        self._config_counts.clear()
        self._splits.clear()

    # -- stage snapshots -------------------------------------------------------
    def _tiling_result(
        self,
        program: Program,
        config: CompileConfig,
        ctx: PassContext,
        outcome: PipelineOutcome,
    ) -> TilingResult:
        """Reconstruct the paper's stage snapshots from the pipeline trace.

        ``strip_mined`` is the program just before pattern interchange
        (i.e. after the first cleanup), ``interchanged`` the program right
        after it.  Pipelines without an interchange pass collapse the
        intermediate stages onto the final program.
        """
        trace = outcome.raw_trace
        fused = outcome.stage("fusion") or program
        tiled = outcome.program
        names = [name for name, _ in trace]
        if "interchange" in names:
            index = names.index("interchange")
            strip_mined = trace[index - 1][1]
            interchanged = trace[index][1]
        else:
            strip_mined = tiled
            interchanged = tiled
        return TilingResult(
            original=program,
            fused=fused,
            strip_mined=strip_mined,
            interchanged=interchanged,
            tiled=tiled,
            config=config,
            applied_interchanges=ctx.artifacts.get("applied_interchanges", []),
            resolve=outcome.resolve,
        )


#: The friendly alias the examples and docs use: ``Session(board=..., pipeline=...)``.
Session = CompilerSession
