"""repro.pipeline — the composable pass-pipeline compiler API.

The package decomposes the compiler into three layers:

* :mod:`repro.pipeline.passes` — the :class:`PipelinePass` protocol and the
  built-in passes: :class:`TransformationStage`, which runs any framework
  transformation of :mod:`repro.rewrite`, plus the
  :class:`GenerateHardwareStage` / :class:`BuildScheduleStage` /
  :class:`EstimateAreaStage` terminals;
* :mod:`repro.pipeline.pipeline` — :class:`Pipeline`: ordering with
  insertion/removal/replacement, per-pass wall-clock + IR-delta
  instrumentation (:class:`PipelineReport`) and structural-hash-aware
  memoisation layered on the analysis cache;
* :mod:`repro.pipeline.session` — :class:`CompilerSession` (alias
  :data:`Session`): the single compilation entry point owning board,
  caches and performance model; each compile names its pipeline.

Pipeline *variants* (``default``, ``no-fusion``, ``no-cse``,
``late-cleanup``, ``rewrite``, ``rewrite-profiled``) are a constant map
from name to step ordering (:mod:`repro.pipeline.variants`); the name
doubles as the ``pipeline`` gene on :class:`~repro.dse.space.DesignPoint`,
as do self-describing ``auto:`` ordering names, so design-space searches
can sweep transform orderings alongside tile sizes and parallelism.
"""

from repro.pipeline.passes import (
    BuildScheduleStage,
    EstimateAreaStage,
    GenerateHardwareStage,
    PassContext,
    PipelinePass,
    TransformationStage,
)
from repro.pipeline.pipeline import PassRecord, Pipeline, PipelineOutcome, PipelineReport
from repro.pipeline.session import CompilationResult, CompilerSession, Session, TilingResult
from repro.pipeline.variants import (
    default_passes,
    default_pipeline,
    get_pipeline,
    pipeline_variants,
)

__all__ = [
    "BuildScheduleStage",
    "CompilationResult",
    "CompilerSession",
    "EstimateAreaStage",
    "GenerateHardwareStage",
    "PassContext",
    "PassRecord",
    "Pipeline",
    "PipelineOutcome",
    "PipelinePass",
    "PipelineReport",
    "Session",
    "TilingResult",
    "TransformationStage",
    "default_passes",
    "default_pipeline",
    "get_pipeline",
    "pipeline_variants",
]
