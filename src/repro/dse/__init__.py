"""Design-space exploration over tile sizes, parallelism and metapipelining.

The subsystem has three layers:

* :mod:`repro.dse.cache` — the process-global :class:`AnalysisCache` backing
  the memoised analyses and the per-pass transform results (importable from
  anywhere; it depends only on the standard library).
* :mod:`repro.dse.space` — design-point enumeration and the cheap analytical
  area pre-filter used to prune infeasible points before simulation.
* :mod:`repro.dse.search` — pluggable exploration strategies (exhaustive,
  annealing) plus the hypervolume utility.
* :mod:`repro.dse.resilience` — the fault-tolerance layer: supervised
  (timeout/retry/quarantine) evaluation, checkpoint journals and the
  deterministic fault-injection harness.
* :mod:`repro.dse.engine` — the exploration driver: prune → search →
  evaluate (in-process through :mod:`repro.dse.batch`, across a supervised
  ``multiprocessing`` pool, or through a compile farm) → Pareto-rank.
  :func:`explore` and :class:`MultiBenchmarkExplorer` share its one lane
  driver and point ledger.

``engine`` and ``search`` are imported lazily: they pull in the whole
compiler, and the analysis modules import :mod:`repro.dse.cache` at
startup — an eager import here would be circular.
"""

from repro.dse.cache import ANALYSIS_CACHE, CACHE_VERSION, AnalysisCache

__all__ = [
    "ANALYSIS_CACHE",
    "AnalysisCache",
    "CACHE_VERSION",
    "CheckpointJournal",
    "DesignPoint",
    "DesignSpace",
    "ExplorationResult",
    "FaultPlan",
    "FaultSpec",
    "MultiBenchmarkExplorer",
    "PointResult",
    "ResiliencePolicy",
    "Strategy",
    "SupervisionStats",
    "default_space",
    "estimate_point_area",
    "explore",
    "get_strategy",
    "hypervolume",
    "run_search",
]

_ENGINE_EXPORTS = {"ExplorationResult", "MultiBenchmarkExplorer", "PointResult", "explore"}
_SPACE_EXPORTS = {"DesignPoint", "DesignSpace", "default_space", "estimate_point_area"}
_SEARCH_EXPORTS = {
    "Strategy",
    "get_strategy",
    "hypervolume",
    "run_search",
}
_RESILIENCE_EXPORTS = {
    "CheckpointJournal",
    "FaultPlan",
    "FaultSpec",
    "ResiliencePolicy",
    "SupervisionStats",
}


def __getattr__(name: str):
    if name in _ENGINE_EXPORTS:
        from repro.dse import engine

        return getattr(engine, name)
    if name in _SPACE_EXPORTS:
        from repro.dse import space

        return getattr(space, name)
    if name in _SEARCH_EXPORTS:
        from repro.dse import search

        return getattr(search, name)
    if name in _RESILIENCE_EXPORTS:
        from repro.dse import resilience

        return getattr(resilience, name)
    raise AttributeError(f"module 'repro.dse' has no attribute {name!r}")
