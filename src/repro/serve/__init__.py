"""Compile-farm service: batched, deduplicating evaluation serving.

The library's :class:`~repro.pipeline.session.CompilerSession` stack is a
single-process affair; this package fronts it with a service. A
:class:`~repro.serve.farm.CompileFarm` accepts batches of
(benchmark, :class:`~repro.dse.space.DesignPoint`, pipeline, cycle_model)
requests, dedupes them against in-flight work and the shared
:class:`~repro.dse.cache.AnalysisCache` *before* anything is scheduled,
evaluates the residue under the engine's supervision loop
(:class:`~repro.dse.resilience.SupervisedEvaluator`: retries, a flat
timeout per pooled attempt, one pool respawn per hang or crash), and
streams per-request results back as they finish, tagged with stable
request ids.

Layers
------

* :mod:`repro.serve.protocol` — request/response records, submission-order
  :func:`~repro.serve.protocol.gather`, and checksummed wire framing.
* :mod:`repro.serve.farm` — the asyncio server core: admission, dedup,
  journal-first completion, journaled graceful shutdown.
* :mod:`repro.serve.client` — :class:`~repro.serve.client.SyncClient`,
  the blocking facade that runs a farm on a background event-loop thread;
  it is what :class:`~repro.dse.engine.MultiBenchmarkExplorer` plugs in via
  its ``farm=`` argument.
* :mod:`repro.serve.net` — optional TCP transport (trusted networks only).
"""

from repro.serve.farm import Batch, CompileFarm, FarmStats
from repro.serve.client import SyncClient
from repro.serve.protocol import (
    CompileRequest,
    CompileResponse,
    STATUSES,
    gather,
)

__all__ = [
    "Batch",
    "CompileFarm",
    "CompileRequest",
    "CompileResponse",
    "FarmStats",
    "STATUSES",
    "SyncClient",
    "gather",
]
