"""PGO-style knob calibration: fit the analytical model to the event timeline.

The analytical backend is the DSE inner loop — closed forms, microseconds
per design — while the event backend charges for what the closed forms
idealise away: stage overlap limits, double-buffer backpressure and DRAM
channel contention.  This module closes the loop the way profile-guided
optimisation does: run the event backend once as the *reference profile*,
read its stall/contention attribution, and fit the analytical model's
calibration knobs (stream efficiencies, outstanding requests, sync
overhead) so the cheap closed forms reproduce the event cycle counts on
the profiled schedules.

The fit is a deterministic coordinate descent: each knob in turn is
1-D-searched (grid refinement for the continuous efficiencies, an integer
scan for the discrete knobs) against the worst relative error across the
profiled schedules, and the profile's attribution decides which knob moves
first — contention-dominated profiles lead with the stream efficiencies
(contention is bandwidth the closed forms over-credit), stall-dominated
profiles lead with the per-stage sync overhead.  The event reference is
computed once, under the *base* model: calibration moves the analytical
side only, so the fitted knobs are exactly "what the closed forms must
assume to predict the timeline", never a change to the timeline itself.

:func:`calibrate_model` fits against explicit schedules;
:func:`calibrate_benchmark` is the convenience wrapper the benchmarks and
the Figure 7 harness use (compile a benchmark's metapipelined
configuration, fit on its schedule).  ``benchmarks/bench_sim.py`` asserts
the fitted agreement on every benchmark at
:data:`~repro.schedule.compare.DEFAULT_TOLERANCE` — the tightened bound
that replaced the raw ±40%
(:data:`~repro.schedule.compare.UNCALIBRATED_TOLERANCE`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.schedule.analytical import AnalyticalScheduleBackend
from repro.schedule.event import EventScheduleBackend
from repro.schedule.ir import Schedule
from repro.sim.metrics import SimulationResult
from repro.sim.model import PerformanceModel

__all__ = [
    "CALIBRATED_KNOBS",
    "CalibrationResult",
    "calibrate_benchmark",
    "calibrate_model",
]

#: The PerformanceModel fields the fit may move, with their legal ranges.
#: Efficiencies are continuous in (0, 1]; the discrete knobs scan small
#: integer ranges.  The DRAM channel knobs are deliberately absent — they
#: configure the event *reference*, not the analytical approximation.
CALIBRATED_KNOBS: Dict[str, Tuple[float, float]] = {
    "tiled_stream_efficiency": (0.05, 1.0),
    "baseline_stream_efficiency": (0.05, 1.0),
    "metapipeline_sync": (0, 512),
    "baseline_outstanding": (1, 16),
}

_INTEGER_KNOBS = ("metapipeline_sync", "baseline_outstanding")


@dataclass
class CalibrationResult:
    """Outcome of fitting the analytical knobs to an event-backend profile."""

    fitted: PerformanceModel
    base: PerformanceModel
    #: Worst |analytical/event − 1| across the profiled schedules, before
    #: and after the fit (the fit minimises the *after* number).
    error_before: float
    error_after: float
    #: Per-schedule ``(ratio_before, ratio_after)`` of analytical/event.
    ratios: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    #: The reference profile's aggregate attribution: total event cycles,
    #: booked stall cycles and DRAM contention cycles across schedules.
    attribution: Dict[str, float] = field(default_factory=dict)

    @property
    def knob_deltas(self) -> Dict[str, Tuple[float, float]]:
        """The knobs the fit moved: name → (base value, fitted value)."""
        return {
            name: (getattr(self.base, name), getattr(self.fitted, name))
            for name in CALIBRATED_KNOBS
            if getattr(self.base, name) != getattr(self.fitted, name)
        }

    def within(self, tolerance: float) -> bool:
        return self.error_after <= tolerance

    def summary(self) -> str:
        moved = ", ".join(
            f"{name} {before:g}->{after:g}"
            for name, (before, after) in self.knob_deltas.items()
        )
        return (
            f"calibration: worst error {self.error_before:.3f} -> "
            f"{self.error_after:.3f}" + (f" ({moved})" if moved else " (no-op)")
        )


def _reference_profiles(
    schedules: Sequence[Schedule], base: PerformanceModel
) -> List[SimulationResult]:
    return [EventScheduleBackend(base).run(schedule) for schedule in schedules]


def _worst_error(
    schedules: Sequence[Schedule],
    references: Sequence[SimulationResult],
    model: PerformanceModel,
) -> float:
    worst = 0.0
    for schedule, reference in zip(schedules, references):
        analytical = AnalyticalScheduleBackend(model).run(schedule).cycles
        if reference.cycles == 0:
            continue
        worst = max(worst, abs(analytical / reference.cycles - 1.0))
    return worst


def _knob_order(references: Sequence[SimulationResult]) -> List[str]:
    """Attribution-guided coordinate order.

    Contention is bandwidth the closed forms over-credit, so a
    contention-dominated profile moves the stream efficiencies first; a
    stall-dominated one leads with the sync overhead that prices
    per-iteration handshakes.  The remaining knobs follow either way —
    coordinate descent revisits them all, the order only decides who gets
    the first (largest) correction.
    """
    contention = sum(r.contention_cycles for r in references)
    stalls = sum(r.stall_cycles for r in references)
    if stalls > contention:
        return [
            "metapipeline_sync",
            "tiled_stream_efficiency",
            "baseline_stream_efficiency",
            "baseline_outstanding",
        ]
    return [
        "tiled_stream_efficiency",
        "baseline_stream_efficiency",
        "metapipeline_sync",
        "baseline_outstanding",
    ]


def _search_continuous(
    schedules, references, model: PerformanceModel, knob: str, lo: float, hi: float
) -> PerformanceModel:
    """Refine a continuous knob over three shrinking 9-point grids."""
    best_value = getattr(model, knob)
    best_error = _worst_error(schedules, references, model)
    for _ in range(3):
        step = (hi - lo) / 8
        for i in range(9):
            value = lo + i * step
            candidate = replace(model, **{knob: value})
            error = _worst_error(schedules, references, candidate)
            if error < best_error - 1e-12:
                best_error = error
                best_value = value
        lo = max(CALIBRATED_KNOBS[knob][0], best_value - step)
        hi = min(CALIBRATED_KNOBS[knob][1], best_value + step)
    return replace(model, **{knob: best_value})


def _search_integer(
    schedules, references, model: PerformanceModel, knob: str, lo: int, hi: int
) -> PerformanceModel:
    """Scan an integer knob over a geometric-ish candidate ladder."""
    candidates = sorted(
        {
            getattr(model, knob),
            *(v for v in (lo, 1, 2, 4, 8, 16, 32, 64, 128, 256, hi) if lo <= v <= hi),
        }
    )
    best_value = getattr(model, knob)
    best_error = _worst_error(schedules, references, model)
    for value in candidates:
        candidate = replace(model, **{knob: int(value)})
        error = _worst_error(schedules, references, candidate)
        if error < best_error - 1e-12:
            best_error = error
            best_value = int(value)
    return replace(model, **{knob: best_value})


def calibrate_model(
    schedules: Sequence[Schedule],
    base: Optional[PerformanceModel] = None,
    rounds: int = 2,
    knobs: Optional[Sequence[str]] = None,
) -> CalibrationResult:
    """Fit the analytical knobs so the closed forms track the event backend.

    Args:
        schedules: the schedules to fit against (typically one benchmark's
            metapipelined configuration — overlap-free schedules already
            agree exactly and would pin the knobs to their defaults).
        base: the model the event *reference* runs under (and the starting
            point of the fit); defaults to the stock
            :class:`~repro.sim.model.PerformanceModel`.
        rounds: coordinate-descent sweeps over the knob set.
        knobs: restrict the fit to a subset of :data:`CALIBRATED_KNOBS`.

    Returns a :class:`CalibrationResult` whose ``fitted`` model is meant
    for the *analytical* backend only — timing a design with
    ``cycle_model="event"`` should keep using the base model the reference
    was profiled with.
    """
    base = base or PerformanceModel()
    schedules = list(schedules)
    if not schedules:
        return CalibrationResult(
            fitted=base, base=base, error_before=0.0, error_after=0.0
        )
    references = _reference_profiles(schedules, base)
    allowed = list(knobs) if knobs is not None else list(CALIBRATED_KNOBS)
    unknown = [k for k in allowed if k not in CALIBRATED_KNOBS]
    if unknown:
        raise ValueError(
            f"cannot calibrate {unknown}; calibratable knobs: "
            f"{sorted(CALIBRATED_KNOBS)}"
        )
    order = [k for k in _knob_order(references) if k in allowed]

    before = {
        s.name: AnalyticalScheduleBackend(base).run(s).cycles / r.cycles
        for s, r in zip(schedules, references)
        if r.cycles
    }
    error_before = _worst_error(schedules, references, base)

    model = base
    for _ in range(max(1, rounds)):
        for knob in order:
            lo, hi = CALIBRATED_KNOBS[knob]
            if knob in _INTEGER_KNOBS:
                model = _search_integer(
                    schedules, references, model, knob, int(lo), int(hi)
                )
            else:
                model = _search_continuous(schedules, references, model, knob, lo, hi)

    ratios = {
        s.name: (
            before.get(s.name, 1.0),
            AnalyticalScheduleBackend(model).run(s).cycles / r.cycles,
        )
        for s, r in zip(schedules, references)
        if r.cycles
    }
    return CalibrationResult(
        fitted=model,
        base=base,
        error_before=error_before,
        error_after=_worst_error(schedules, references, model),
        ratios=ratios,
        attribution={
            "event_cycles": sum(r.cycles for r in references),
            "stall_cycles": sum(r.stall_cycles for r in references),
            "contention_cycles": sum(r.contention_cycles for r in references),
        },
    )


def calibrate_benchmark(
    bench,
    sizes: Optional[Mapping[str, int]] = None,
    base: Optional[PerformanceModel] = None,
    session=None,
    rounds: int = 2,
) -> CalibrationResult:
    """Fit per-benchmark knobs on the metapipelined configuration's schedule.

    Compiles the benchmark's Figure 7 tiling+metapipelining configuration
    (the only one whose backends disagree — the overlap-free configurations
    already match to float noise) and fits against that schedule, compiled
    from the benchmark's shape-only workload
    (:meth:`~repro.apps.base.Benchmark.workload`).
    ``bench`` is a benchmark name or :class:`~repro.apps.base.Benchmark`.
    """
    from repro.apps import get_benchmark
    from repro.config import CompileConfig
    from repro.pipeline.session import CompilerSession

    benchmark = get_benchmark(bench) if isinstance(bench, str) else bench
    session = session or CompilerSession(model=base)
    sizes = dict(sizes or benchmark.default_sizes)
    config = CompileConfig(
        tiling=True,
        metapipelining=True,
        tile_sizes=dict(benchmark.tile_sizes),
        par_factors=dict(benchmark.par_factors),
    )
    compiled = session.compile(
        benchmark.build(),
        config,
        benchmark.workload(sizes),
        par=benchmark.par_factors.get("inner", 16),
    )
    return calibrate_model([compiled.schedule], base=base, rounds=rounds)
