"""Figure 7: speedups and relative resource use of the optimised designs.

For every benchmark of Table 5 the harness compiles three hardware designs —
baseline, +tiling, +tiling+metapipelining — on the same workload and with the
same innermost parallelism factor (Section 6.2), simulates them, and reports

* the speedup of each optimised design over the baseline (Figure 7, top), and
* the resource use of each optimised design relative to the baseline for
  logic, flip-flops and on-chip memory (Figure 7, bottom).

Beyond the paper's three fixed configurations, ``run_figure7`` can search
each benchmark's whole design space: ``dse_strategy="annealing"`` (or
``"exhaustive"``) runs the DSE engine per benchmark — all
benchmarks sharing **one** worker pool through
:class:`repro.dse.engine.MultiBenchmarkExplorer` when ``dse_shared_pool``
is set — and reports the best point found as an extra ``dse-best`` column
in the speedup table.

Timing comes from a schedule backend selected by ``cycle_model``
(``"analytical"`` — the closed forms, or ``"event"`` — the event-driven
simulator).  How closely the two agree, and how far a knob fit tightens
that, is :mod:`repro.schedule.compare` and :mod:`repro.schedule.calibrate`
(run over every benchmark by ``benchmarks/bench_sim.py``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.area import relative_area
from repro.apps import all_benchmarks, get_benchmark
from repro.apps.base import Benchmark
from repro.config import BASELINE, CompileConfig
from repro.dse.engine import evaluate_config
from repro.dse.results import PointResult
from repro.pipeline.pipeline import PipelineReport
from repro.pipeline.session import CompilationResult, CompilerSession
from repro.sim.metrics import SimulationResult, speedup
from repro.sim.model import PerformanceModel
from repro.target.device import DEFAULT_BOARD, Board

__all__ = ["BenchmarkResult", "Figure7Report", "run_benchmark", "run_figure7", "PAPER_FIGURE7"]


# The numbers reported in the paper's Figure 7 (speedup over the baseline).
PAPER_FIGURE7: Dict[str, Dict[str, float]] = {
    "outerprod": {"tiling": 1.1, "tiling+metapipelining": 1.1},
    "sumrows": {"tiling": 6.5, "tiling+metapipelining": 11.5},
    "gemm": {"tiling": 4.1, "tiling+metapipelining": 6.3},
    "tpchq6": {"tiling": 1.6, "tiling+metapipelining": 2.0},
    "gda": {"tiling": 13.4, "tiling+metapipelining": 39.4},
    "kmeans": {"tiling": 15.5, "tiling+metapipelining": 19.7},
}


@dataclass
class ConfigResult:
    """Compilation + simulation outcome for one configuration of one benchmark."""

    label: str
    compilation: CompilationResult
    simulation: SimulationResult
    relative_resources: Dict[str, float] = field(default_factory=dict)

    @property
    def pipeline_report(self) -> Optional[PipelineReport]:
        """Per-pass instrumentation of this configuration's compilation."""
        return self.compilation.report


@dataclass
class BenchmarkResult:
    """All three configurations of one benchmark (plus an optional DSE best)."""

    name: str
    sizes: Dict[str, int]
    baseline: ConfigResult
    tiling: ConfigResult
    metapipelining: ConfigResult
    dse_best: Optional[PointResult] = None
    dse_strategy: str = ""
    dse_evaluations: int = 0
    cycle_model: str = "analytical"

    @property
    def speedup_tiling(self) -> float:
        return speedup(self.baseline.simulation, self.tiling.simulation)

    @property
    def speedup_metapipelining(self) -> float:
        return speedup(self.baseline.simulation, self.metapipelining.simulation)

    @property
    def speedup_dse(self) -> Optional[float]:
        """Speedup of the searched best design over the baseline (or None)."""
        if self.dse_best is None or not self.dse_best.seconds:
            return None
        return self.baseline.simulation.seconds / self.dse_best.seconds

    def speedups(self) -> Dict[str, float]:
        table = {
            "tiling": self.speedup_tiling,
            "tiling+metapipelining": self.speedup_metapipelining,
        }
        if self.speedup_dse is not None:
            table["dse-best"] = self.speedup_dse
        return table


@dataclass
class Figure7Report:
    """The full figure: one row per benchmark."""

    results: List[BenchmarkResult] = field(default_factory=list)

    def result(self, name: str) -> BenchmarkResult:
        for result in self.results:
            if result.name == name:
                return result
        raise KeyError(name)

    def speedup_table(self) -> str:
        with_dse = any(result.dse_best is not None for result in self.results)
        header = (
            f"{'benchmark':<10} {'+tiling':>10} {'+tiling+meta':>14}"
            f" {'paper +tiling':>14} {'paper +meta':>12}"
        )
        if with_dse:
            header += f" {'dse-best':>10}"
        lines = [header, "-" * len(header)]
        for result in self.results:
            paper = PAPER_FIGURE7.get(result.name, {})
            line = (
                f"{result.name:<10} {result.speedup_tiling:>10.1f} "
                f"{result.speedup_metapipelining:>14.1f} "
                f"{paper.get('tiling', float('nan')):>14.1f} "
                f"{paper.get('tiling+metapipelining', float('nan')):>12.1f}"
            )
            if with_dse:
                dse = result.speedup_dse
                line += f" {dse:>10.1f}" if dse is not None else f" {'-':>10}"
            lines.append(line)
        return "\n".join(lines)

    def resource_table(self) -> str:
        header = f"{'benchmark':<10} {'config':<24} {'logic':>8} {'FF':>8} {'mem':>8}"
        lines = [header, "-" * len(header)]
        for result in self.results:
            for config_result in (result.tiling, result.metapipelining):
                rel = config_result.relative_resources
                lines.append(
                    f"{result.name:<10} {config_result.label:<24} "
                    f"{rel.get('logic', 1.0):>8.2f} {rel.get('FF', 1.0):>8.2f} {rel.get('mem', 1.0):>8.2f}"
                )
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {result.name: result.speedups() for result in self.results}

    def pass_table(self) -> str:
        """Per-pass timing/caching breakdown across every compiled config.

        Only populated when the report was produced with
        ``run_figure7(report_passes=True)`` (otherwise compilations still
        carry reports, and this renders them all the same).
        """
        header = (
            f"{'benchmark':<10} {'config':<24} {'pass':<20} "
            f"{'time':>10} {'budget':>10} {'cached':>7} {'delta':>7}"
        )
        lines = [header, "-" * len(header)]
        for result in self.results:
            for config_result in (result.baseline, result.tiling, result.metapipelining):
                report = config_result.pipeline_report
                if report is None:
                    continue
                for record in report.records:
                    lines.append(
                        f"{result.name:<10} {config_result.label:<24} {record.name:<20} "
                        f"{record.seconds * 1e3:>8.2f}ms {record.budget_label:>10} "
                        f"{'hit' if record.cached else '-':>7} {record.node_delta:>+7}"
                    )
        return "\n".join(lines)


def _configs_for(bench: Benchmark) -> Dict[str, CompileConfig]:
    tiles = dict(bench.tile_sizes)
    pars = dict(bench.par_factors)
    return {
        "baseline": BASELINE,
        "tiling": CompileConfig(tiling=True, tile_sizes=tiles, par_factors=pars),
        "tiling+metapipelining": CompileConfig(
            tiling=True, metapipelining=True, tile_sizes=tiles, par_factors=pars
        ),
    }


def run_benchmark(
    name: str,
    sizes: Optional[Mapping[str, int]] = None,
    board: Board = DEFAULT_BOARD,
    model: Optional[PerformanceModel] = None,
    par: Optional[int] = None,
    session: Optional[CompilerSession] = None,
    cycle_model: str = "analytical",
) -> BenchmarkResult:
    """Compile and simulate all three configurations of one benchmark.

    The configurations compile against the benchmark's shape-only workload
    (:meth:`~repro.apps.base.Benchmark.workload`): the cycle, area and
    traffic models read sizes and shapes, never input data.

    The sweep runs through one :class:`~repro.pipeline.session.CompilerSession`
    (pass ``session`` to share it across benchmarks, as :func:`run_figure7`
    does), so the tiling and tiling+metapipelining configurations — which
    share tile sizes — reuse the memoised pipeline-pass results, and all
    three share the warm analysis caches.  Each configuration's
    compilation carries its per-pass :class:`PipelineReport`.

    ``cycle_model`` selects the schedule backend the speedups come from.
    """
    bench = get_benchmark(name)
    sizes = dict(sizes or bench.default_sizes)
    workload = bench.workload(sizes)
    program = bench.build()
    par = par or bench.par_factors.get("inner", 16)
    if session is None:
        session = CompilerSession(board=board, model=model)

    configs = _configs_for(bench)
    results: Dict[str, ConfigResult] = {}
    for label, config in configs.items():
        evaluated = evaluate_config(
            program,
            config,
            workload,
            board=board,
            par=par,
            model=model,
            session=session,
            cycle_model=cycle_model,
        )
        results[label] = ConfigResult(
            label=label, compilation=evaluated.compilation, simulation=evaluated.simulation
        )

    baseline_area = results["baseline"].compilation.area
    for label in ("tiling", "tiling+metapipelining"):
        results[label].relative_resources = relative_area(
            baseline_area, results[label].compilation.area
        )

    return BenchmarkResult(
        name=name,
        sizes=sizes,
        baseline=results["baseline"],
        tiling=results["tiling"],
        metapipelining=results["tiling+metapipelining"],
        cycle_model=cycle_model,
    )


def run_figure7(
    benchmarks: Optional[Sequence[str]] = None,
    board: Board = DEFAULT_BOARD,
    model: Optional[PerformanceModel] = None,
    sizes_override: Optional[Mapping[str, Mapping[str, int]]] = None,
    workers: Optional[int] = None,
    dse_strategy: Optional[str] = None,
    dse_eval_fraction: Optional[float] = 0.4,
    dse_shared_pool: bool = True,
    dse_disk_cache: Optional[object] = None,
    dse_pipelines: Optional[Sequence[str]] = None,
    resilience: Optional[object] = None,
    report_passes: bool = False,
    cycle_model: str = "analytical",
) -> Figure7Report:
    """Reproduce Figure 7 across the benchmark suite.

    The three fixed configurations of every benchmark compile through
    **one** shared :class:`~repro.pipeline.session.CompilerSession`,
    sharing the warm analysis caches (and memoised pipeline passes) across
    benchmarks.

    ``report_passes=True`` keeps every configuration's per-pass
    :class:`~repro.pipeline.pipeline.PipelineReport` (wall-clock, budget,
    cache hits, IR node deltas) attached, rendered by
    :meth:`Figure7Report.pass_table`; the default drops the
    instrumentation to keep result payloads lean.  Passes exceeding their
    advisory time budget are reported via ``warnings.warn`` and flagged
    with ``!`` in the table's budget column.

    ``cycle_model`` selects the schedule backend scoring every
    configuration (``"analytical"`` or ``"event"``).

    ``dse_strategy`` additionally searches each benchmark's design space
    (``"exhaustive"``, ``"annealing"`` or a
    :class:`repro.dse.search.Strategy`) and attaches the best point found
    to each row; ``dse_eval_fraction`` bounds the search budget as a
    fraction of the surviving space (ignored for the exhaustive strategy,
    whose whole point is sweeping the full grid).  ``workers > 1`` runs
    the searches on a worker pool: with ``dse_shared_pool`` (the default)
    every benchmark's search runs through **one** shared pool with
    interleaved scheduling instead of one pool per sweep;
    ``dse_disk_cache`` names a persisted analysis store so repeated runs
    (CI) skip already-evaluated points.  ``dse_pipelines`` names the
    pass-pipeline variants the search sweeps as the ``pipeline`` gene —
    e.g. ``("default", "rewrite")`` lets the search decide per benchmark
    whether the schedule rewriter pays off.

    ``resilience`` (a :class:`repro.dse.resilience.ResiliencePolicy`)
    supervises the DSE sweeps: per-attempt timeouts, retries, quarantine of
    failing points and checkpoint/resume journaling — so a long Figure 7
    run survives hung or crashed evaluations and completes with the
    failures reported instead of aborting.
    """
    names = list(benchmarks) if benchmarks else [bench.name for bench in all_benchmarks()]
    session = CompilerSession(board=board, model=model)
    report = Figure7Report(
        [
            run_benchmark(
                name,
                sizes=(sizes_override or {}).get(name),
                board=board,
                model=model,
                session=session,
                cycle_model=cycle_model,
            )
            for name in names
        ]
    )
    if report_passes:
        over_budget = sorted(
            {
                f"{result.name}/{config_result.label}:{record.name}"
                for result in report.results
                for config_result in (result.baseline, result.tiling, result.metapipelining)
                if config_result.pipeline_report is not None
                for record in config_result.pipeline_report.over_budget()
            }
        )
        if over_budget:
            warnings.warn(
                "passes exceeded their time budget: " + ", ".join(over_budget),
                RuntimeWarning,
                stacklevel=2,
            )
    else:
        for result in report.results:
            for config_result in (result.baseline, result.tiling, result.metapipelining):
                config_result.compilation.report = None

    if dse_strategy is not None:
        from repro.dse.engine import MultiBenchmarkExplorer, explore
        from repro.dse.search import ExhaustiveStrategy, get_strategy

        strategy = get_strategy(dse_strategy)
        # A budget fraction would silently truncate the exhaustive grid to an
        # enumeration-order prefix — exactly what "exhaustive" promises not
        # to do — so it only applies to the iterative strategies.
        eval_fraction = None if isinstance(strategy, ExhaustiveStrategy) else dse_eval_fraction
        sizes_map = {
            result.name: dict(result.sizes) for result in report.results
        }
        if dse_shared_pool:
            explorations = MultiBenchmarkExplorer(
                names,
                sizes=sizes_map,
                board=board,
                strategy=dse_strategy,
                workers=workers,
                model=model,
                eval_fraction=eval_fraction,
                disk_cache=dse_disk_cache,
                cycle_model=cycle_model,
                pipelines=dse_pipelines,
                resilience=resilience,
            ).run()
        else:
            explorations = {
                name: explore(
                    name,
                    sizes=sizes_map.get(name),
                    board=board,
                    workers=workers,
                    model=model,
                    strategy=dse_strategy,
                    eval_fraction=eval_fraction,
                    disk_cache=dse_disk_cache,
                    cycle_model=cycle_model,
                    pipelines=dse_pipelines,
                    resilience=resilience,
                )
                for name in names
            }
        for result in report.results:
            exploration = explorations.get(result.name)
            if exploration is None:
                continue
            result.dse_best = exploration.best
            result.dse_strategy = exploration.strategy
            result.dse_evaluations = len(exploration.evaluated)
    return report
