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
* :mod:`repro.serve.snapshot` — read-only memory-mapped cache snapshots so
  pool workers attach a warm store lazily instead of paying a full
  ``load_disk`` on spawn.
* :mod:`repro.serve.farm` — the asyncio server core: admission, dedup,
  journal-first completion, journaled graceful shutdown.
* :mod:`repro.serve.client` — :class:`~repro.serve.client.Client` (async)
  and :class:`~repro.serve.client.SyncClient` (background-loop) facades;
  the sync facade is what :class:`~repro.dse.engine.MultiBenchmarkExplorer`
  plugs in via its ``farm=`` argument.
* :mod:`repro.serve.net` — optional TCP transport (trusted networks only).
"""

from repro.serve.farm import Batch, CompileFarm, FarmStats
from repro.serve.client import Client, SyncClient
from repro.serve.protocol import (
    CompileRequest,
    CompileResponse,
    STATUSES,
    gather,
)
from repro.serve.snapshot import SnapshotView, attach_snapshot, write_snapshot

__all__ = [
    "Batch",
    "Client",
    "CompileFarm",
    "CompileRequest",
    "CompileResponse",
    "FarmStats",
    "STATUSES",
    "SnapshotView",
    "SyncClient",
    "attach_snapshot",
    "gather",
    "write_snapshot",
]
