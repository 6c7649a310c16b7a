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
  pipeline, caches, naming scope and performance model.

Pipeline *variants* (``no-fusion``, ``no-cse``, ``late-cleanup``, plus
anything registered via :func:`register_pipeline_variant`) are named
factories; the name doubles as the ``pipeline`` gene on
:class:`~repro.dse.space.DesignPoint`, so design-space searches can sweep
transform orderings alongside tile sizes and parallelism.
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
    register_pipeline_variant,
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
    "register_pipeline_variant",
]
