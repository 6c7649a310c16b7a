"""The compile farm: async batched evaluation with dedup-before-schedule.

A :class:`CompileFarm` owns, for a fixed set of benchmarks, everything a
:func:`repro.dse.engine.explore` run would build per sweep — programs,
shape-only workloads, a supervised worker pool, a checkpoint journal, a
persisted cache store — and serves evaluation requests against them
continuously.

Admission pipeline (synchronous, per request, *before* any scheduling).
The request's cache key and journal digest are derived once, by the
engine's :class:`~repro.dse.engine.PointLedger`, which also owns the
journal, the cache lookup and the seeding of completed results — so the
farm and :func:`~repro.dse.engine.explore` agree on every point byte for
byte:

1. **journal replay** — a digest already in the checkpoint journal is
   answered instantly (``status="journal"``); so is a digest quarantined
   earlier in this farm's lifetime (``status="failed"``).
2. **cache hit** — the shared ``point_results`` table answers without
   scheduling (``status="cached"``).
3. **in-flight coalescing** — a digest currently being evaluated gains a
   waiter instead of a second evaluation (``status="coalesced"``).
4. **schedule** — only the residue is evaluated (``status="evaluated"``).

Completion is journal-first: a finished evaluation is appended to the
journal, then seeded into the analysis cache, and only then handed to its
waiters — so a SIGINT at any instant loses zero *completed* evaluations
(a farm started over the same journal replays them).

With ``workers > 1``, starting the farm loads the store into this
process's cache, and the pool forks from that warm parent the first time
it is acquired (:func:`~repro.dse.engine.pool_context`): its workers
inherit every table copy-on-write, and a respawned pool inherits the
parent's cache as it stands then.  Where fork does not exist, workers start
with an empty cache and compute the same results.

Each scheduled request is one run of the engine's supervision loop,
:meth:`SupervisedEvaluator.run <repro.dse.resilience.SupervisedEvaluator.run>`:
retries with backoff, a flat timeout per pooled attempt, one pool respawn
per hang or crash, the quarantine memo, and at most ``max(4, 2 × workers)``
requests in flight.  In-process evaluation — an inline farm, or a pool
that could not be spawned or respawned — runs *on the event-loop thread*
deliberately: the process-global :data:`~repro.dse.cache.ANALYSIS_CACHE`
is not thread-safe, and the farm trades loop responsiveness for
correctness.  It evaluates on one session for the farm's lifetime, whose
configuration memo
(:meth:`~repro.pipeline.session.CompilerSession.config_state`) lets a
request skip the pass prefix when its configuration was seen before.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    AsyncIterator,
    Awaitable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.apps import get_benchmark
from repro.dse.cache import ANALYSIS_CACHE
from repro.dse.engine import (
    PointLedger,
    PointRef,
    _evaluate_point_task,
    _init_worker,
    evaluate_point,
    pool_context,
)
from repro.dse.resilience import (
    PoolSupervisor,
    ResiliencePolicy,
    SupervisedEvaluator,
    SupervisionStats,
)
from repro.dse.results import PointResult
from repro.dse.space import DesignPoint
from repro.errors import FarmError
from repro.pipeline.session import CompilerSession
from repro.pipeline.variants import variant_signature
from repro.schedule.compare import CYCLE_MODELS
from repro.serve.protocol import CompileRequest, CompileResponse, gather
from repro.sim.model import PerformanceModel
from repro.target.device import Board, DEFAULT_BOARD

__all__ = ["Batch", "CompileFarm", "FarmStats"]


@dataclass
class FarmStats:
    """Admission and completion counters for one farm's lifetime.

    ``scheduled`` is the load-bearing dedup counter: duplicate submissions
    (in one batch or across concurrent batches) must never move it more
    than once per distinct point.  ``supervision`` is the
    :class:`~repro.dse.resilience.SupervisionStats` of the farm's
    :class:`~repro.dse.resilience.SupervisedEvaluator`, so retries,
    respawns and fallbacks are reported exactly as an exploration would
    report them.

    ``cache`` holds the most recent per-table snapshot of the analysis
    cache — entries, evictions, hits, misses and the derived hit rate —
    refreshed by :meth:`CompileFarm.cache_metrics` and on farm shutdown.
    Its ``config_state`` entry counts the same for the per-configuration
    memo of the session that evaluates in this process
    (:meth:`~repro.pipeline.session.CompilerSession.config_state`).
    It is deliberately *not* merged into :meth:`as_dict`, which stays flat
    integers: an exploration routed through the farm reports it as its
    ``supervision`` counters, and the TCP ``stats`` op sends it as is.
    """

    received: int = 0
    journal_hits: int = 0
    cache_hits: int = 0
    coalesced: int = 0
    scheduled: int = 0
    completed: int = 0
    failed: int = 0
    supervision: SupervisionStats = field(default_factory=SupervisionStats)
    cache: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, int]:
        out = {
            "received": self.received,
            "journal_hits": self.journal_hits,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "scheduled": self.scheduled,
            "completed": self.completed,
            "failed": self.failed,
        }
        out.update(self.supervision.as_dict())
        return out

    def record_cache(self, stats: Mapping[str, Mapping[str, int]]) -> None:
        """Snapshot per-table cache counters, deriving hit rates.

        ``stats`` is :meth:`repro.dse.cache.AnalysisCache.stats` output;
        the hit rate is hits over total lookups (0.0 before any lookup).
        """
        snapshot: Dict[str, Dict[str, float]] = {}
        for name, counters in stats.items():
            hits = int(counters.get("hits", 0))
            misses = int(counters.get("misses", 0))
            lookups = hits + misses
            snapshot[name] = {
                "entries": int(counters.get("entries", 0)),
                "evictions": int(counters.get("evictions", 0)),
                "hits": hits,
                "misses": misses,
                "hit_rate": (hits / lookups) if lookups else 0.0,
            }
        self.cache = snapshot


@dataclass
class _FarmLane:
    """One served benchmark: its program, shape-only workload and sizes."""

    benchmark: object
    sizes: Dict[str, int]
    program: object
    workload: Dict[str, object]


class Batch:
    """One submitted batch: response futures plus their submission order.

    Responses complete out of order; :meth:`stream` yields them as they
    finish (the streaming surface), :meth:`gather` awaits them all and
    restores submission order via the request ids — the deterministic
    surface whose output is bit-comparable to a serial sweep.
    """

    def __init__(self, request_ids: List[str], responses: List["asyncio.Task"]) -> None:
        self._request_ids = list(request_ids)
        self._responses = list(responses)

    @property
    def request_ids(self) -> List[str]:
        return list(self._request_ids)

    def __len__(self) -> int:
        return len(self._responses)

    async def stream(self) -> AsyncIterator[CompileResponse]:
        """Yield responses in completion order."""
        for step in asyncio.as_completed(list(self._responses)):
            yield await step

    async def gather(self) -> List[CompileResponse]:
        """Await every response and restore submission order."""
        responses = await asyncio.gather(*self._responses)
        return gather(responses, self._request_ids)

    def cancel(self) -> None:
        """Detach this batch's responses from their evaluations.

        In-flight evaluations keep running (other batches may share them);
        this batch's unresolved responses settle with ``status="cancelled"``.
        """
        for task in self._responses:
            task.cancel()


def _check_fields(request: CompileRequest) -> None:
    """Raise :class:`~repro.errors.FarmError` for a field of the wrong type."""
    if not isinstance(request.point, DesignPoint):
        raise FarmError(
            f"request point must be a DesignPoint, not {type(request.point).__name__}"
        )
    for name in ("benchmark", "request_id"):
        if not isinstance(getattr(request, name), str):
            raise FarmError(f"request {name} must be a str")
    for name in ("pipeline", "cycle_model"):
        value = getattr(request, name)
        if value is not None and not isinstance(value, str):
            raise FarmError(f"request {name} must be None or a str")


def _check_cycle_model(cycle_model: str, field: str) -> None:
    if cycle_model not in CYCLE_MODELS:
        raise FarmError(f"{field} {cycle_model!r} is not one of {sorted(CYCLE_MODELS)}")


def _check_choices(request: CompileRequest) -> None:
    """Raise :class:`~repro.errors.FarmError` for a resolved request naming a
    cycle model or pipeline variant no lane can compile."""
    _check_cycle_model(request.cycle_model, "request cycle_model")
    try:
        variant_signature(request.point.pipeline)
    except ValueError as exc:
        raise FarmError(f"request pipeline: {exc}") from None


class CompileFarm:
    """An asyncio compile service over the existing evaluation machinery.

    Usage::

        farm = CompileFarm(["matmul", "dotproduct"], workers=4)
        async with farm:
            batch = await farm.submit(
                [CompileRequest("matmul", point) for point in points]
            )
            async for response in batch.stream():
                ...

    The farm must be entered (``async with`` or :meth:`start`) before
    :meth:`submit`; exiting drains in-flight work, persists the cache
    store, and tears the pool down.  One farm serves any number of
    concurrent batches; admission dedup spans all of them.

    Each lane binds its benchmark's shape-only workload
    (:meth:`~repro.apps.base.Benchmark.workload`: sizes and input shapes,
    no generated data), in this process and in pool workers alike, so
    ``seed`` is accepted for compatibility and does not affect results.
    Stores and journals written from generated bindings replay unchanged:
    both kinds of input give the same point keys.
    """

    def __init__(
        self,
        benchmarks: Sequence[Union[str, object]],
        sizes: Optional[Mapping[str, Mapping[str, int]]] = None,
        board: Board = DEFAULT_BOARD,
        model: Optional[PerformanceModel] = None,
        workers: int = 2,
        cycle_model: str = "analytical",
        seed: int = 3,
        resilience: Optional[ResiliencePolicy] = None,
        store: Optional[Union[str, Path]] = None,
    ) -> None:
        self.benchmarks = [
            get_benchmark(bench) if isinstance(bench, str) else bench
            for bench in benchmarks
        ]
        self.sizes = dict(sizes or {})
        self.board = board
        self.model = model
        self.workers = max(1, workers)
        _check_cycle_model(cycle_model, "cycle_model")
        self.cycle_model = cycle_model
        self.policy = resilience if resilience is not None else ResiliencePolicy()
        self.store = Path(store) if store is not None else None
        self.stats = FarmStats()

        self._lanes: Dict[str, _FarmLane] = {}
        self._session: Optional[CompilerSession] = None
        self._serial_session: Optional[CompilerSession] = None
        self._ledger: Optional[PointLedger] = None
        self._inflight: Dict[bytes, "asyncio.Task"] = {}
        self._tasks: Set["asyncio.Task"] = set()
        self.supervisor: Optional[SupervisedEvaluator] = None
        self._next_id = 0
        self._started = False
        self._closing = False
        self._closed = False

    # -- introspection (the explorer's compatibility surface) ---------------
    @property
    def benchmark_names(self) -> Tuple[str, ...]:
        return tuple(bench.name for bench in self.benchmarks)

    def lane_sizes(self, name: str) -> Optional[Dict[str, int]]:
        lane = self._lanes.get(name)
        if lane is not None:
            return dict(lane.sizes)
        bench = next((b for b in self.benchmarks if b.name == name), None)
        if bench is None:
            return None
        return dict(self.sizes.get(name) or bench.default_sizes)

    @property
    def board_name(self) -> str:
        return self.board.name

    @property
    def pools(self) -> Optional[PoolSupervisor]:
        """The worker pool's lifecycle, once the farm has started."""
        return self.supervisor.pools if self.supervisor is not None else None

    def cache_metrics(self) -> Dict[str, Dict[str, float]]:
        """Refresh :attr:`FarmStats.cache` from the live analysis cache and
        the evaluating session's configuration memo."""
        stats = ANALYSIS_CACHE.stats()
        if self._serial_session is not None:
            stats["config_state"] = self._serial_session.config_state_stats()
        self.stats.record_cache(stats)
        return self.stats.cache

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> "CompileFarm":
        """Build lanes, warm the cache, load the journal, arm the supervisor."""
        if self._started:
            raise FarmError("farm already started")
        self._lanes = {}
        for bench in self.benchmarks:
            sizes = dict(self.sizes.get(bench.name) or bench.default_sizes)
            self._lanes[bench.name] = _FarmLane(
                benchmark=bench,
                sizes=sizes,
                program=bench.build(),
                workload=bench.workload(sizes),
            )
        self._session = CompilerSession(board=self.board, model=self.model)
        # Serial fallback compiles through a clone so a failure mid-compile
        # cannot leave half-recorded state in the session used for keys.
        self._serial_session = self._session.clone()

        if self.store is not None:
            ANALYSIS_CACHE.load_disk(self.store)
        self._ledger = PointLedger(self._session, checkpoint=self.policy.checkpoint)

        pool_factory = None
        if self.workers > 1:
            specs = {name: lane.sizes for name, lane in self._lanes.items()}
            policy = self.policy

            def pool_factory():
                return pool_context().Pool(
                    processes=self.workers,
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

        def compute(task: Tuple[str, DesignPoint, str]) -> PointResult:
            bench, point, cycle_model = task
            lane = self._lanes[bench]
            return evaluate_point(
                lane.program,
                lane.workload,
                point,
                board=self.board,
                model=self.model,
                session=self._serial_session,
                cycle_model=cycle_model,
            )

        self.supervisor = SupervisedEvaluator(
            self.policy,
            compute,
            workers=self.workers,
            pool_factory=pool_factory,
            pooled_task=_evaluate_point_task,
        )
        self.stats.supervision = self.supervisor.stats
        self._started = True
        return self

    async def aclose(self, drain: bool = True) -> None:
        """Shut down: drain (or cancel) in-flight work, persist, teardown.

        With ``drain=True`` (graceful — also the ``async with`` exit path)
        every admitted evaluation runs to completion and is journaled;
        with ``drain=False`` in-flight evaluations are cancelled and their
        waiters settle with ``status="cancelled"``.  Either way the cache
        store is saved (merge-on-save: concurrent farms writing one store
        lose nothing) and the pool is torn down.
        """
        if self._closed:
            return
        self._closing = True
        if drain:
            await self.drain()
        else:
            for task in list(self._tasks):
                task.cancel()
            if self._tasks:
                await asyncio.gather(*list(self._tasks), return_exceptions=True)
        if self.supervisor is not None:
            self.supervisor.close()
        if self._ledger is not None:
            self._ledger.close()
        if self.store is not None:
            ANALYSIS_CACHE.save_disk(self.store, only_if_dirty=True)
        self.cache_metrics()
        self._closed = True

    async def drain(self) -> None:
        """Wait until every admitted evaluation has settled."""
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    async def __aenter__(self) -> "CompileFarm":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        # A normal exit drains; an interrupt (SIGINT surfaces here as
        # CancelledError or KeyboardInterrupt under asyncio.run) must not
        # sit out a hung worker — completed work is already journaled, so
        # cancelling the rest loses nothing.
        interrupted = exc_type is not None and issubclass(
            exc_type, (KeyboardInterrupt, SystemExit, asyncio.CancelledError)
        )
        await self.aclose(drain=not interrupted)

    # -- submission ----------------------------------------------------------
    async def submit(
        self,
        requests: Sequence[Union[CompileRequest, Tuple[str, DesignPoint]]],
    ) -> Batch:
        """Admit a batch; returns immediately with its response futures.

        Admission — id assignment, journal/cache lookup, in-flight
        coalescing, scheduling — happens synchronously here, so dedup is
        exact even for duplicates within one batch.  A malformed request
        (neither a :class:`CompileRequest` nor a ``(benchmark, DesignPoint)``
        pair, or a field of the wrong type) or an unknown benchmark fails
        the whole batch with :class:`~repro.errors.FarmError` before
        anything is admitted, as does a request naming an unknown cycle
        model or pipeline variant.
        """
        if not self._started:
            raise FarmError("farm not started; use 'async with farm:' or await start()")
        if self._closing or self._closed:
            raise FarmError("farm is shut down; no further batches accepted")

        resolved: List[CompileRequest] = []
        seen_ids: Set[str] = set()
        for request in requests:
            if not isinstance(request, CompileRequest):
                if not (isinstance(request, tuple) and len(request) == 2):
                    raise FarmError(
                        "a request is a CompileRequest or a (benchmark, DesignPoint) "
                        f"pair, not {type(request).__name__}"
                    )
                bench_name, point = request
                request = CompileRequest(benchmark=bench_name, point=point)
            _check_fields(request)
            request = request.resolved(self.cycle_model)
            _check_choices(request)
            if request.benchmark not in self._lanes:
                raise FarmError(
                    f"benchmark {request.benchmark!r} is not served by this farm "
                    f"(serves: {sorted(self._lanes)})"
                )
            rid = request.request_id
            if not rid:
                rid = f"r{self._next_id}"
                self._next_id += 1
                request = replace(request, request_id=rid)
            if rid in seen_ids:
                raise FarmError(f"duplicate request id {rid!r} within one batch")
            seen_ids.add(rid)
            resolved.append(request)

        loop = asyncio.get_running_loop()
        responses: List["asyncio.Task"] = []
        for request in resolved:
            status, source = self._admit(request)
            responses.append(loop.create_task(self._respond(request, status, source)))
        return Batch([request.request_id for request in resolved], responses)

    def _admit(
        self, request: CompileRequest
    ) -> Tuple[str, Union[PointResult, Awaitable[PointResult]]]:
        """Classify one request without awaiting; schedule only the residue."""
        self.stats.received += 1
        lane = self._lanes[request.benchmark]
        ref = self._ledger.locate(
            lane.program, lane.workload, request.point, request.cycle_model
        )
        journaled = self._ledger.replay(ref)
        if journaled is not None:
            self.stats.journal_hits += 1
            self.stats.supervision.resumed += 1
            return "journal", journaled
        known = self.supervisor.quarantine.get(ref.digest)
        if known is not None:
            return "failed", known
        cached = self._ledger.lookup(ref.key)
        if cached is not None:
            self.stats.cache_hits += 1
            return "cached", cached
        if ref.digest is not None:
            inflight = self._inflight.get(ref.digest)
            if inflight is not None:
                self.stats.coalesced += 1
                return "coalesced", inflight
        self.stats.scheduled += 1
        if ANALYSIS_CACHE.enabled and self.workers > 1:
            # Pool workers memoise in their own process caches, so the
            # parent-side miss is recorded here; the serial path's
            # ``memoize()`` inside evaluate_point accounts for itself.
            ANALYSIS_CACHE.misses["point_results"] += 1
        task = asyncio.get_running_loop().create_task(self._evaluate(request, ref))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        if ref.digest is not None:
            self._inflight[ref.digest] = task
            task.add_done_callback(lambda _t, d=ref.digest: self._inflight.pop(d, None))
        return "evaluated", task

    async def _respond(
        self,
        request: CompileRequest,
        status: str,
        source: Union[PointResult, Awaitable[PointResult]],
    ) -> CompileResponse:
        started = time.perf_counter()
        try:
            if isinstance(source, PointResult):
                result = source
            else:
                result = await asyncio.shield(source)
        except asyncio.CancelledError:
            self.stats.supervision.cancelled += 1
            return CompileResponse(
                request_id=request.request_id,
                benchmark=request.benchmark,
                point=request.point,
                status="cancelled",
                error="evaluation cancelled before completion",
                elapsed_seconds=time.perf_counter() - started,
            )
        if getattr(result, "failed", False):
            status = "failed"
        return CompileResponse(
            request_id=request.request_id,
            benchmark=request.benchmark,
            point=request.point,
            status=status,
            result=result,
            error=result.failure if getattr(result, "failed", False) else None,
            elapsed_seconds=time.perf_counter() - started,
        )

    # -- evaluation ----------------------------------------------------------
    async def _evaluate(self, request: CompileRequest, ref: PointRef) -> PointResult:
        result = await self.supervisor.run(
            (request.benchmark, request.point, request.cycle_model), ref.digest
        )
        # Journal-first completion: by the time any waiter observes the
        # result, it has already been made durable — a SIGINT between
        # completion and response loses nothing.
        if result.failed:
            self.stats.failed += 1
            return result
        self._ledger.record(ref, result)
        self._ledger.seed(ref.key, result)
        self.stats.completed += 1
        return result
