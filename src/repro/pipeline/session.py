"""The instrumented compiler session: the single entry point to compilation.

A :class:`CompilerSession` (aliased :data:`Session`) owns everything one
stream of compilations shares — the target board, the pass pipeline, the
performance model, the analysis cache and the naming scope — and exposes
:meth:`CompilerSession.compile` / :meth:`CompilerSession.compile_point` as
the one way to turn a PPL program into a :class:`CompilationResult`:

    session = Session(board=DEFAULT_BOARD)
    result = session.compile(program, config, bindings)
    sim = session.simulate(result)
    print(session.last_report.table())

Transform passes mint new symbol names from the process-global generator,
whose monotonicity is what guarantees a fresh name can never capture a
symbol already bound in the incoming program.  ``fresh_names=True`` opts a
session into running each compile under a fresh naming scope
(:func:`repro.utils.naming.fresh_naming_scope`) instead — making minted
names (and therefore structural hashes) a pure function of the compile —
but is only safe when the program itself was built inside the same scope;
:meth:`repro.apps.base.Benchmark.compile` arranges exactly that.

Sessions are cheap: they hold no per-program state beyond bounded
instrumentation, and by default they share the process-global
:data:`~repro.dse.cache.ANALYSIS_CACHE`, so creating one session per sweep
(or per worker) costs nothing while keeping ownership explicit.  (The old
module-level ``repro.compiler`` entry points served one deprecation release
as shims and have been removed.)
"""

from __future__ import annotations

from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Deque, Dict, Mapping, Optional, Union

from repro.analysis.area import AreaReport, estimate_area
from repro.config import CompileConfig
from repro.dse.cache import ANALYSIS_CACHE, AnalysisCache
from repro.hw.design import HardwareDesign
from repro.hw.generation import generate_hardware
from repro.pipeline.passes import PassContext
from repro.pipeline.pipeline import Pipeline, PipelineOutcome, PipelineReport
from repro.pipeline.variants import get_pipeline
from repro.ppl.program import Program
from repro.schedule.ir import Schedule
from repro.sim.engine import simulate
from repro.sim.metrics import SimulationResult
from repro.sim.model import PerformanceModel
from repro.target.device import DEFAULT_BOARD, Board
from repro.transforms.tiling import TilingResult
from repro.utils.naming import fresh_naming_scope

__all__ = ["CompilationResult", "CompilerSession", "Session"]


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
        fresh_names: run each compile under a fresh naming scope so minted
            IR names (and therefore structural hashes) are a pure function
            of the compile.  Only safe when the compiled program was built
            inside the same scope (a scope restarts name counters, so a
            program built outside it may already use the names the
            transforms would mint).  Default off: names come from the
            process-global generator, which is always capture-free.
        keep_reports: how many per-compile :class:`PipelineReport` objects
            to retain (aggregate totals are always kept).
    """

    def __init__(
        self,
        board: Board = DEFAULT_BOARD,
        pipeline: Union[str, Pipeline, None] = None,
        model: Optional[PerformanceModel] = None,
        cache: Optional[AnalysisCache] = None,
        fresh_names: bool = False,
        keep_reports: int = 64,
    ) -> None:
        self.board = board
        self.pipeline = get_pipeline(pipeline)
        self.model = model
        self.cache = cache if cache is not None else ANALYSIS_CACHE
        self.fresh_names = fresh_names
        self.reports: Deque[PipelineReport] = deque(maxlen=keep_reports)
        self.compilations = 0
        self.pass_totals: Dict[str, Dict[str, float]] = {}

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
            fresh_names=self.fresh_names,
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
        scope = fresh_naming_scope() if self.fresh_names else nullcontext()
        with scope:
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
    def clear_caches(self) -> None:
        """Drop every memoised value and reset the disk-store dirty state.

        After this, the next compile is cold: every pass reruns, and a
        subsequent :meth:`~repro.dse.cache.AnalysisCache.save_disk` writes a
        fresh store even to a path the cache was previously clean against.
        """
        self.cache.clear()

    # -- back-compat -----------------------------------------------------------
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
        after it — exactly the stages the old :class:`TilingDriver`
        recorded.  Pipelines without an interchange pass collapse the
        intermediate stages onto the final program.
        """
        fused = outcome.stage("fusion") or program
        tiled = outcome.program
        names = [name for name, _ in outcome.trace]
        if "interchange" in names:
            index = names.index("interchange")
            strip_mined = outcome.trace[index - 1][1]
            interchanged = outcome.trace[index][1]
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
            applied_interchanges=list(ctx.artifacts.get("applied_interchanges", [])),
        )


#: The friendly alias the examples and docs use: ``Session(board=..., pipeline=...)``.
Session = CompilerSession
