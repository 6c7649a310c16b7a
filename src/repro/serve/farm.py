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
4. **schedule** — only the residue reaches the pool
   (``status="evaluated"``), bounded by the policy's ``max_inflight``
   backpressure semaphore.

Completion is journal-first: a finished evaluation is appended to the
journal, then seeded into the analysis cache, and only then handed to its
waiters — so a SIGINT at any instant loses zero *completed* evaluations
(the PR 6 resume machinery replays the journal on the next start).

With ``workers > 1``, starting the farm writes a memory-mapped snapshot
of the live cache that the pool's workers attach lazily
(:mod:`repro.serve.snapshot`); an inline farm (``workers=1``) writes none.

Pool supervision reuses :class:`~repro.dse.resilience.PoolSupervisor`
verbatim: timeouts respawn the pool, a spawn failure or exhausted respawn
budget degrades to in-process serial evaluation.  The serial fallback runs
*inline on the event-loop thread* deliberately — the process-global
:data:`~repro.dse.cache.ANALYSIS_CACHE` is not thread-safe, and the
degraded mode trades loop responsiveness for correctness.
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

import numpy as np

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
    SupervisionStats,
    corrupt_result,
    validate_point_result,
)
from repro.dse.results import PointResult
from repro.dse.space import DesignPoint
from repro.errors import (
    CorruptResultError,
    EvaluationTimeoutError,
    FarmError,
)
from repro.pipeline.session import CompilerSession
from repro.serve.protocol import CompileRequest, CompileResponse, gather
from repro.sim.model import PerformanceModel
from repro.target.device import Board, DEFAULT_BOARD

__all__ = ["Batch", "CompileFarm", "FarmStats"]


@dataclass
class FarmStats:
    """Admission and completion counters for one farm's lifetime.

    ``scheduled`` is the load-bearing dedup counter: duplicate submissions
    (in one batch or across concurrent batches) must never move it more
    than once per distinct point.  ``supervision`` is the shared
    :class:`~repro.dse.resilience.SupervisionStats` the pool supervisor
    writes into, so respawns and fallbacks are reported exactly as an
    exploration would report them.

    ``cache`` holds the most recent per-table snapshot of the analysis
    cache — entries, evictions, hits, misses and the derived hit rate —
    refreshed by :meth:`CompileFarm.cache_metrics` and on farm shutdown.
    It is deliberately *not* merged into :meth:`as_dict`, whose consumers
    (``supervision.update(...)`` in the explorer) index flat integers.
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
        warmup: Optional[str] = "snapshot",
        snapshot_path: Optional[Union[str, Path]] = None,
    ) -> None:
        if warmup not in (None, "snapshot", "load"):
            raise FarmError(f"unknown warmup mode {warmup!r}")
        self.benchmarks = [
            get_benchmark(bench) if isinstance(bench, str) else bench
            for bench in benchmarks
        ]
        self.sizes = dict(sizes or {})
        self.board = board
        self.model = model
        self.workers = max(1, workers)
        self.cycle_model = cycle_model
        self.policy = resilience if resilience is not None else ResiliencePolicy()
        self.store = Path(store) if store is not None else None
        self.warmup = warmup
        self.snapshot_path = Path(snapshot_path) if snapshot_path is not None else None
        self.stats = FarmStats()

        self._lanes: Dict[str, _FarmLane] = {}
        self._session: Optional[CompilerSession] = None
        self._serial_session: Optional[CompilerSession] = None
        self._ledger: Optional[PointLedger] = None
        self._quarantine: Dict[bytes, PointResult] = {}
        self._inflight: Dict[bytes, "asyncio.Task"] = {}
        self._tasks: Set["asyncio.Task"] = set()
        self._slots: Optional[asyncio.Semaphore] = None
        self._rng = np.random.default_rng(self.policy.seed)
        self.pools: Optional[PoolSupervisor] = None
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

    def cache_metrics(self) -> Dict[str, Dict[str, float]]:
        """Refresh :attr:`FarmStats.cache` from the live analysis cache."""
        self.stats.record_cache(ANALYSIS_CACHE.stats())
        return self.stats.cache

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> "CompileFarm":
        """Build lanes, warm the cache, load the journal, arm the pool."""
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
            # Only pool workers attach the snapshot; inline evaluation
            # (workers=1) reads the live cache, so none is written for it.
            cache_warmup: Optional[Tuple[str, str]] = None
            if self.warmup == "snapshot":
                snapshot = self.snapshot_path
                if snapshot is None and self.store is not None:
                    snapshot = self.store.with_name(self.store.name + ".snap")
                if snapshot is not None:
                    from repro.serve.snapshot import write_snapshot

                    if write_snapshot(snapshot) > 0:
                        cache_warmup = ("snapshot", str(snapshot))
            elif self.warmup == "load" and self.store is not None:
                cache_warmup = ("load", str(self.store))
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
                        cache_warmup,
                    ),
                )

        self.pools = PoolSupervisor(self.policy, pool_factory, self.stats.supervision)
        bound = self.policy.max_inflight
        if bound is None:
            bound = max(4, 2 * self.workers)
        self._slots = asyncio.Semaphore(bound)
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
        if self.pools is not None:
            self.pools.teardown()
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
        exact even for duplicates within one batch.  Unknown benchmarks
        fail the whole batch with :class:`~repro.errors.FarmError` before
        anything is scheduled.
        """
        if not self._started:
            raise FarmError("farm not started; use 'async with farm:' or await start()")
        if self._closing or self._closed:
            raise FarmError("farm is shut down; no further batches accepted")

        resolved: List[CompileRequest] = []
        seen_ids: Set[str] = set()
        for request in requests:
            if not isinstance(request, CompileRequest):
                bench_name, point = request
                request = CompileRequest(benchmark=bench_name, point=point)
            request = request.resolved(self.cycle_model)
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
        known = self._quarantine.get(ref.digest) if ref.digest is not None else None
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
        task = asyncio.get_running_loop().create_task(
            self._evaluate(lane, request, ref)
        )
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
    async def _evaluate(
        self, lane: _FarmLane, request: CompileRequest, ref: PointRef
    ) -> PointResult:
        async with self._slots:
            result = await self._run_supervised(lane, request)
        # Journal-first completion: by the time any waiter observes the
        # result, it has already been made durable — a SIGINT between
        # completion and response loses nothing.
        if result.failed:
            self.stats.failed += 1
            if ref.digest is not None:
                self._quarantine[ref.digest] = result
            return result
        self._ledger.record(ref, result)
        self._ledger.seed(ref.key, result)
        self.stats.completed += 1
        return result

    async def _run_supervised(
        self, lane: _FarmLane, request: CompileRequest
    ) -> PointResult:
        """One point under the resilience policy: retries, timeouts, respawn."""
        policy = self.policy
        point = request.point
        reason = "unknown failure"
        attempt = 0
        for attempt in range(1, policy.retries + 2):
            pool = self.pools.acquire() if self.pools is not None else None
            try:
                self.stats.supervision.evaluations += 1
                if pool is None:
                    value = self._serial_compute(lane, request, attempt)
                else:
                    value = await self._pool_apply(
                        pool,
                        (request.benchmark, point, attempt, request.cycle_model),
                        policy.timeout,
                    )
                problem = validate_point_result(value, point)
                if problem is not None:
                    raise CorruptResultError(problem)
                if attempt > 1:
                    self.stats.supervision.recovered += 1
                return value
            except (KeyboardInterrupt, SystemExit, asyncio.CancelledError):
                raise
            except EvaluationTimeoutError as exc:
                reason = str(exc)
                self.stats.supervision.timeouts += 1
                # The hung task may still occupy its worker; respawn so
                # the retry runs on a clean pool (respawn budget applies).
                if pool is not None:
                    self.pools.respawn()
            except Exception as exc:
                reason = f"{type(exc).__name__}: {exc}"
            if attempt <= policy.retries:
                self.stats.supervision.retries += 1
                delay = policy.backoff_seconds(attempt, self._rng)
                if delay > 0:
                    await asyncio.sleep(delay)
        self.stats.supervision.quarantined += 1
        return PointResult(
            point=point, failed=True, failure=reason, attempts=attempt
        )

    def _serial_compute(
        self, lane: _FarmLane, request: CompileRequest, attempt: int
    ) -> PointResult:
        plan = self.policy.fault_plan
        marker = None
        if plan is not None:
            marker = plan.fire(
                request.benchmark, request.point.label, attempt, in_worker=False
            )
        result = evaluate_point(
            lane.program,
            lane.workload,
            request.point,
            board=self.board,
            model=self.model,
            session=self._serial_session,
            cycle_model=request.cycle_model,
        )
        if marker == "corrupt":
            result = corrupt_result(result)
        return result

    async def _pool_apply(
        self, pool, task: Tuple, timeout: Optional[float]
    ) -> PointResult:
        """Bridge one ``apply_async`` onto the event loop, with a watchdog."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()

        def deliver(apply) -> None:
            try:
                loop.call_soon_threadsafe(apply)
            except RuntimeError:
                pass  # loop closed mid-shutdown; the result is moot

        def on_ok(value) -> None:
            deliver(lambda: future.done() or future.set_result(value))

        def on_error(exc) -> None:
            deliver(lambda: future.done() or future.set_exception(exc))

        pool.apply_async(
            _evaluate_point_task, (task,), callback=on_ok, error_callback=on_error
        )
        try:
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            raise EvaluationTimeoutError(
                f"timed out after {timeout:.1f}s (hung or crashed worker)"
            ) from None
