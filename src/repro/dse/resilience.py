"""Fault-tolerant execution for the design-space exploration engine.

A multi-benchmark sweep is long-running, parallel work: one hung
``evaluate_point``, one worker killed by the OS, or one truncated cache
store used to abort the whole exploration.  This module is the recovery
layer the engine (:mod:`repro.dse.engine`) wraps its evaluation paths in:

* :class:`ResiliencePolicy` — the knobs: per-attempt wall-clock timeout,
  bounded retries with exponential backoff + deterministic jitter, a
  checkpoint-journal path and an optional fault plan.
* :class:`SupervisedEvaluator` — the supervision loop itself, one
  coroutine per task, which the engine and the compile farm
  (:mod:`repro.serve.farm`) both run.  A pooled attempt that outlives the
  timeout (which is also how lost results from crashed workers surface)
  retires its pool, so the next attempt gets a fresh one; when the pool
  is unrecoverable, attempts fall back to in-process evaluation with a
  ``RuntimeWarning`` so sweeps always complete.  Points that keep failing
  are *quarantined*: reported on the
  :class:`~repro.dse.engine.ExplorationResult` instead of crashing the
  sweep, and never re-evaluated within the run.
* :class:`CheckpointJournal` — an append-only sidecar of evaluated point
  results (length-prefixed, per-record blake2b checksums), so an
  interrupted ``explore(...)`` resumes without re-evaluating anything it
  already journaled; a truncated tail (crash mid-write) loses at most the
  partial record, and is cut off on load so later appends stay readable.
* :class:`FaultPlan` — a deterministic, seeded fault-injection schedule
  (crash / hang / transient error / corrupt result) fired at worker entry,
  used by ``tests/dse/test_resilience.py`` and ``bench_dse.py --faults``
  to prove every recovery path without any real flakiness.

Everything here is deterministic under its seeds: the same plan against
the same space injects the same faults, and because point evaluation is a
pure function of the design point, a retried evaluation returns a result
bit-identical to the fault-free one.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import os
import pickle
import struct
import time
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import (
    BinaryIO,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.dse.results import PointResult
from repro.dse.space import DesignPoint
from repro.errors import (
    CorruptResultError,
    EvaluationTimeoutError,
    TransientEvaluationError,
    WorkerCrashError,
)

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "CheckpointJournal",
    "PoolSupervisor",
    "ResiliencePolicy",
    "SupervisedEvaluator",
    "SupervisionStats",
    "validate_point_result",
]

#: The fault kinds a :class:`FaultPlan` can schedule.
FAULT_KINDS = ("crash", "hang", "error", "corrupt")

#: Exit code a crash fault terminates its worker with (visible in strace /
#: pool diagnostics; never seen by the supervisor, which only observes the
#: lost result).
_CRASH_EXIT_CODE = 23


# ---------------------------------------------------------------------------
# Deterministic fault injection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: what goes wrong and for how many attempts.

    ``times`` is the number of *leading attempts* that fail — ``1`` makes a
    transient fault (the retry succeeds), ``-1`` a deterministic one (every
    attempt fails, so the supervisor quarantines the point).
    """

    kind: str
    times: int = 1
    hang_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}")

    def applies(self, attempt: int) -> bool:
        return self.times < 0 or attempt <= self.times


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of faults, keyed on (benchmark, point label).

    The plan is installed into every pool worker at ``_init_worker`` time
    (it pickles cleanly) and consulted once per evaluation attempt; the
    supervisor passes the attempt number with each task, so the decision is
    identical no matter which worker — or the serial fallback — runs it.

    In-worker firing is physical: a ``crash`` calls ``os._exit``, a
    ``hang`` sleeps past any reasonable timeout.  In-process firing
    (serial evaluation, where killing the process would kill the sweep)
    raises the equivalent exception instead, so every strategy test can
    exercise the recovery paths without a pool.
    """

    faults: Tuple[Tuple[Tuple[str, str], FaultSpec], ...] = ()
    seed: int = 0

    @staticmethod
    def make(faults: Mapping[Tuple[str, str], FaultSpec], seed: int = 0) -> "FaultPlan":
        return FaultPlan(faults=tuple(sorted(faults.items())), seed=seed)

    @staticmethod
    def seeded(
        points_by_benchmark: Mapping[str, Sequence[DesignPoint]],
        seed: int = 0,
        crashes: int = 1,
        hangs: int = 1,
        errors: int = 1,
        corrupts: int = 0,
        times: int = 1,
        hang_seconds: float = 3600.0,
    ) -> "FaultPlan":
        """Pick fault victims deterministically from the given points.

        Victims are drawn without replacement from the flattened, sorted
        (benchmark, label) population, so the same seed over the same space
        always schedules the same faults.
        """
        population = sorted(
            (bench, point.label)
            for bench, points in points_by_benchmark.items()
            for point in points
        )
        wanted = [
            spec
            for kind, count in (
                ("crash", crashes),
                ("hang", hangs),
                ("error", errors),
                ("corrupt", corrupts),
            )
            for spec in [FaultSpec(kind=kind, times=times, hang_seconds=hang_seconds)] * count
        ]
        if len(wanted) > len(population):
            raise ValueError(
                f"fault plan wants {len(wanted)} victims but only "
                f"{len(population)} points exist"
            )
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(population), size=len(wanted), replace=False)
        faults = {population[int(i)]: spec for i, spec in zip(picks, wanted)}
        return FaultPlan.make(faults, seed=seed)

    def spec_for(self, benchmark: str, label: str) -> Optional[FaultSpec]:
        for key, spec in self.faults:
            if key == (benchmark, label):
                return spec
        return None

    def fire(
        self, benchmark: str, label: str, attempt: int, in_worker: bool
    ) -> Optional[str]:
        """Inject the scheduled fault for this attempt, if any.

        Returns ``"corrupt"`` when the caller should corrupt its result
        (the one fault that must happen *after* evaluation); raises or
        kills the process for the others; returns None when no fault is
        scheduled for this attempt.
        """
        spec = self.spec_for(benchmark, label)
        if spec is None or not spec.applies(attempt):
            return None
        where = f"{benchmark}:{label} attempt {attempt}"
        if spec.kind == "crash":
            if in_worker:
                os._exit(_CRASH_EXIT_CODE)
            raise WorkerCrashError(f"injected worker crash at {where}")
        if spec.kind == "hang":
            if in_worker:
                time.sleep(spec.hang_seconds)
                # If the supervisor's timeout is longer than the injected
                # hang, surface the fault rather than silently succeeding.
                raise EvaluationTimeoutError(f"injected hang outlived at {where}")
            raise EvaluationTimeoutError(f"injected hang at {where}")
        if spec.kind == "error":
            raise TransientEvaluationError(f"injected transient error at {where}")
        return "corrupt"

    def __len__(self) -> int:
        return len(self.faults)


def corrupt_result(result: PointResult) -> PointResult:
    """The payload a ``corrupt`` fault hands back: non-finite metrics."""
    return replace(result, cycles=float("nan"), logic=float("nan"))


def validate_point_result(result: object, point: DesignPoint) -> Optional[str]:
    """Reject results a broken worker (or a corrupt fault) handed back.

    Returns a reason string for invalid results, None for valid ones.  The
    checks are cheap and structural: right type, right point, finite
    non-negative metrics.
    """
    if not isinstance(result, PointResult):
        return f"corrupt result: expected PointResult, got {type(result).__name__}"
    if result.point != point:
        return f"corrupt result: evaluated {result.point.label}, wanted {point.label}"
    for name in ("cycles", "seconds", "logic", "ffs", "bram_bits", "dsps"):
        value = getattr(result, name)
        if not math.isfinite(value) or value < 0:
            return f"corrupt result: non-finite {name} ({value!r})"
    return None


# ---------------------------------------------------------------------------
# The resilience policy
# ---------------------------------------------------------------------------


#: Multiplier applied to the retry backoff per additional attempt.
BACKOFF_FACTOR = 2.0

#: Relative jitter (±fraction) on each backoff sleep, drawn from a
#: generator seeded with :data:`JITTER_SEED`: deterministic, but
#: decorrelated across retrying points.
JITTER = 0.25
JITTER_SEED = 0

#: Pool terminate/recreate cycles tolerated before a run degrades to
#: in-process serial evaluation (with a ``RuntimeWarning``).
MAX_POOL_RESPAWNS = 3


@dataclass(frozen=True)
class ResiliencePolicy:
    """How the engine supervises point evaluations.

    Args:
        timeout: wall-clock budget in seconds of one pooled attempt, from
            its submission to its result.  An attempt exceeding it fails,
            which is also how results lost to a crashed worker surface
            (the supervisor can only observe their absence), and retires
            its pool: the next attempt gets a fresh one, and the old pool
            is terminated once its other attempts have settled there, so
            one incident costs one respawn and cuts no other attempt off.
            The budget is flat: at most ``max(4, 2 × workers)`` attempts
            are in flight, so an attempt queues behind at most about one
            other per worker.  ``None`` disables the watchdog (hangs then
            block forever — only sensible when no faults are possible).
            Inline attempts cannot be preempted, so the timeout only
            applies to pools.
        retries: extra attempts after the first failure (0 = fail fast).
        backoff: base delay before the first retry, in seconds; each later
            retry waits :data:`BACKOFF_FACTOR` times longer, with
            :data:`JITTER`.
        checkpoint: path of the append-only journal sidecar; evaluated
            point results are journaled as they arrive and replayed on the
            next run, so a killed sweep resumes without re-evaluating.
        fault_plan: deterministic fault-injection schedule (tests and the
            ``--faults`` benchmark; None in production).
    """

    timeout: Optional[float] = 120.0
    retries: int = 2
    backoff: float = 0.05
    checkpoint: Optional[Union[str, Path]] = None
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive or None, got {self.timeout}")

    def backoff_seconds(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff before retry number ``attempt`` (1-based), with jitter."""
        base = self.backoff * BACKOFF_FACTOR ** max(0, attempt - 1)
        return max(0.0, base * (1.0 + JITTER * float(rng.uniform(-1.0, 1.0))))


@dataclass
class SupervisionStats:
    """What the supervisor did during one run (reported per exploration).

    ``cancelled`` only moves under the compile farm (:mod:`repro.serve`),
    where in-flight work can be revoked; batch evaluation has no
    cancellation path.
    """

    evaluations: int = 0
    retries: int = 0
    timeouts: int = 0
    recovered: int = 0
    quarantined: int = 0
    pool_respawns: int = 0
    serial_fallback: int = 0
    resumed: int = 0
    cancelled: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


# ---------------------------------------------------------------------------
# Pool lifecycle supervision
# ---------------------------------------------------------------------------


#: How long :meth:`PoolSupervisor.teardown` lets tasks still running on a
#: pool finish before terminating it.  ``Pool.terminate`` SIGTERMs the
#: workers, and one killed while it sends a result leaves the result
#: queue's lock held, on which the pool's own teardown then waits forever.
#: A healthy evaluation returns well within this; a stuck one is killed.
_TERMINATE_GRACE = 1.0


def _terminate(pool) -> None:
    try:
        pool.terminate()
        pool.join()
    except Exception:
        pass


class PoolSupervisor:
    """Owns the worker pool's spawn / retire / teardown lifecycle.

    :meth:`acquire` lazily spawns the pool (respecting the respawn budget,
    :data:`MAX_POOL_RESPAWNS`).
    :meth:`retire` takes it out of service after an attempt on it timed
    out, so the next acquire spawns a fresh one.  The retired pool is
    terminated once the attempts still running on it (counted by
    :meth:`enter` and :meth:`leave`) have settled: ``Pool.terminate``
    fires no callbacks, so terminating it at once would strand them.  Once
    the pool is declared *unrecoverable* — spawn failure or respawn budget
    exhausted — :meth:`acquire` returns ``None`` forever and attempts run
    in-process.

    Counters land in the shared :class:`SupervisionStats`.
    """

    def __init__(
        self,
        pool_factory: Optional[Callable[[], object]],
        stats: Optional[SupervisionStats] = None,
    ) -> None:
        self.stats = stats if stats is not None else SupervisionStats()
        self._factory = pool_factory
        self._pool = None
        self._respawns = 0
        self._running: Counter = Counter()
        #: Per pool, the ``AsyncResult`` of each task that may still run.
        self._jobs: Dict[object, list] = {}
        self._retired: List[object] = []
        self.unrecoverable = False

    def acquire(self):
        """The live pool, spawning one if needed; None when serial-only."""
        if self.unrecoverable or self._factory is None:
            return None
        if self._pool is not None:
            return self._pool
        if self._respawns > MAX_POOL_RESPAWNS:
            self._give_up(f"respawned {self._respawns - 1} times, max {MAX_POOL_RESPAWNS}")
            return None
        try:
            self._pool = self._factory()
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            self._give_up(f"pool spawn failed: {type(exc).__name__}: {exc}")
            return None
        return self._pool

    def enter(self, pool, job) -> None:
        """Count an attempt submitted to ``pool`` as ``job`` (its ``AsyncResult``)."""
        self._running[pool] += 1
        jobs = self._jobs.setdefault(pool, [])
        jobs[:] = [each for each in jobs if not each.ready()]
        jobs.append(job)

    def leave(self, pool) -> None:
        """Count an attempt on ``pool`` settled; terminate it if retired and drained."""
        self._running[pool] -= 1
        if self._running[pool] <= 0:
            del self._running[pool]
            if pool in self._retired:
                self._retired.remove(pool)
                self._jobs.pop(pool, None)
                _terminate(pool)

    def retire(self, pool) -> None:
        """Take ``pool`` out of service: an attempt on it timed out.

        Only the live pool is retired, so one incident costs one respawn
        however many of the pool's attempts then time out.
        """
        if pool is not self._pool:
            return
        self._pool = None
        self._respawns += 1
        self.stats.pool_respawns += 1
        self._retired.append(pool)

    def teardown(self) -> None:
        """Terminate the live pool and every retired one.

        Tasks an interrupt or a cancellation left running get
        :data:`_TERMINATE_GRACE` seconds to finish first.
        """
        deadline = time.monotonic() + _TERMINATE_GRACE
        for pool in [self._pool, *self._retired]:
            if pool is not None:
                for job in self._jobs.get(pool, ()):
                    job.wait(max(0.0, deadline - time.monotonic()))
                _terminate(pool)
        self._pool = None
        self._retired.clear()
        self._running.clear()
        self._jobs.clear()

    def _give_up(self, why: str) -> None:
        if not self.unrecoverable:
            self.unrecoverable = True
            self.stats.serial_fallback = 1
            warnings.warn(
                f"worker pool unrecoverable ({why}); "
                "falling back to in-process serial evaluation",
                RuntimeWarning,
                stacklevel=4,
            )


# ---------------------------------------------------------------------------
# Checkpoint journal
# ---------------------------------------------------------------------------


class CheckpointJournal:
    """Append-only sidecar of evaluated point results, safe against crashes.

    Record layout: ``MAGIC | u32 payload length | 16-byte blake2b(payload)
    | payload`` where the payload pickles ``(digest, PointResult)`` —
    ``digest`` being the engine's stable point-result key hash.  The first
    :meth:`append` opens one append handle, kept until :meth:`close`, and
    every record is flushed as it is written — so nothing sits in the
    buffer when a pool forks.  A process killed mid-write loses at most
    the trailing partial record, which :meth:`load` detects (checksum or
    length mismatch) and truncates away, keeping every complete record
    before it — so the next :meth:`append` lands where the next
    :meth:`load` reads it.
    """

    MAGIC = b"RJNL"
    _HEADER = struct.Struct(">4sI16s")

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.corrupt_records = 0
        self.appended = 0
        self._handle: Optional[BinaryIO] = None

    def load(self) -> Dict[bytes, PointResult]:
        """Replay every intact record; stop (and count) at the first bad one.

        A bad tail is cut off the file, back to the end of the last intact
        record: records appended after it would otherwise sit behind bytes
        every later load stops at.
        """
        entries: Dict[bytes, PointResult] = {}
        self.corrupt_records = 0
        if not self.path.exists():
            return entries
        blob = self.path.read_bytes()
        offset = 0
        while offset < len(blob):
            header = blob[offset : offset + self._HEADER.size]
            if len(header) < self._HEADER.size:
                self.corrupt_records += 1
                break
            magic, length, checksum = self._HEADER.unpack(header)
            payload = blob[offset + self._HEADER.size : offset + self._HEADER.size + length]
            if (
                magic != self.MAGIC
                or len(payload) < length
                or hashlib.blake2b(payload, digest_size=16).digest() != checksum
            ):
                self.corrupt_records += 1
                break
            try:
                digest, result = pickle.loads(payload)
            except Exception:
                self.corrupt_records += 1
                break
            entries[digest] = result
            offset += self._HEADER.size + length
        if self.corrupt_records:
            os.truncate(self.path, offset)
            warnings.warn(
                f"checkpoint journal {self.path} has a corrupt tail; "
                f"truncated to {len(entries)} intact record(s)",
                RuntimeWarning,
                stacklevel=2,
            )
        return entries

    def append(self, digest: bytes, result: PointResult) -> None:
        payload = pickle.dumps((digest, result), protocol=pickle.HIGHEST_PROTOCOL)
        record = (
            self._HEADER.pack(
                self.MAGIC, len(payload), hashlib.blake2b(payload, digest_size=16).digest()
            )
            + payload
        )
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("ab")
        self._handle.write(record)
        self._handle.flush()
        self.appended += 1

    def close(self) -> None:
        """Close the append handle; a later :meth:`append` reopens it."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# ---------------------------------------------------------------------------
# The supervised evaluator
# ---------------------------------------------------------------------------


class _Expired(Exception):
    """Set on a pooled attempt's future when its timeout passes."""


#: A task: ``(benchmark name, design point, *extra)``.  A pooled attempt
#: ships ``(benchmark, point, attempt, *extra)`` to the pool; the compile
#: farm's one extra is the request's cycle model.
Task = Tuple


class SupervisedEvaluator:
    """Run evaluation tasks under a :class:`ResiliencePolicy`.

    :meth:`run` is the supervision loop: one coroutine per task, owning
    its attempts, their backoff, the timeout of each pooled attempt,
    result validation, in-process fault firing, the quarantine memo and
    :attr:`stats`.  The compile farm awaits it per scheduled request on
    its event loop; the engine calls :meth:`evaluate`, which drives it over
    a batch on a private event loop.  At most ``max(4, 2 × workers)``
    tasks are in flight at once.

    ``serial_compute`` evaluates one task in-process: the ``workers <= 1``
    path and the fallback when the pool is unrecoverable.  Inline attempts
    run on the event loop's own thread, because the process-global
    :data:`~repro.dse.cache.ANALYSIS_CACHE` is not thread-safe.
    ``pooled_task`` is the picklable function the pool executes; the pool
    (if any) is created lazily by ``pool_factory`` on first pooled use.
    """

    def __init__(
        self,
        policy: ResiliencePolicy,
        serial_compute: Callable[[Task], PointResult],
        workers: int = 1,
        pool_factory: Optional[Callable[[], object]] = None,
        pooled_task: Optional[Callable] = None,
    ) -> None:
        self.policy = policy
        self._compute = serial_compute
        self._pooled_task = pooled_task
        self._jitter = np.random.default_rng(JITTER_SEED)
        self._slots = asyncio.Semaphore(max(4, 2 * workers))
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.stats = SupervisionStats()
        self.pools = PoolSupervisor(pool_factory, self.stats)
        #: Tasks that failed every attempt, by key: never re-evaluated,
        #: their failure record is replayed on any later proposal.
        self.quarantine: Dict[Hashable, PointResult] = {}

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        self.pools.teardown()
        if self._loop is not None:
            self._loop.close()
            self._loop = None

    def __enter__(self) -> "SupervisedEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the supervision loop ----------------------------------------------
    async def run(self, task: Task, key: Optional[Hashable] = None) -> PointResult:
        """Evaluate one task; a point failing every attempt comes back ``failed=True``.

        ``key`` names the task in the quarantine memo: a key that failed
        before is served its failure record without re-evaluation.  None
        keeps the task out of the memo.
        """
        known = self.quarantine.get(key) if key is not None else None
        if known is not None:
            return known
        policy = self.policy
        reason = "unknown failure"
        attempt = 0
        async with self._slots:
            for attempt in range(1, policy.retries + 2):
                self.stats.evaluations += 1
                try:
                    result = await self._attempt(task, attempt)
                    problem = validate_point_result(result, task[1])
                    if problem is not None:
                        raise CorruptResultError(problem)
                except Exception as exc:
                    reason = f"{type(exc).__name__}: {exc}"
                    if isinstance(exc, EvaluationTimeoutError):
                        self.stats.timeouts += 1
                else:
                    if attempt > 1:
                        self.stats.recovered += 1
                    return result
                if attempt <= policy.retries:
                    self.stats.retries += 1
                    delay = policy.backoff_seconds(attempt, self._jitter)
                    if delay > 0:
                        await asyncio.sleep(delay)
        self.stats.quarantined += 1
        record = PointResult(point=task[1], failed=True, failure=reason, attempts=attempt)
        if key is not None:
            self.quarantine[key] = record
        return record

    async def _attempt(self, task: Task, attempt: int) -> PointResult:
        """One attempt: on the pool under the timeout, else inline."""
        pool = self.pools.acquire()
        if pool is None:
            plan = self.policy.fault_plan
            marker = None
            if plan is not None:
                marker = plan.fire(task[0], task[1].label, attempt, in_worker=False)
            result = self._compute(task)
            return corrupt_result(result) if marker == "corrupt" else result
        loop = asyncio.get_running_loop()
        future = loop.create_future()

        def deliver(apply) -> None:
            try:
                loop.call_soon_threadsafe(apply)
            except RuntimeError:
                pass  # loop closed mid-shutdown; the result is moot

        def on_ok(value) -> None:
            deliver(lambda: future.done() or future.set_result(value))

        def on_error(exc) -> None:
            deliver(lambda: future.done() or future.set_exception(exc))

        def expire() -> None:
            if not future.done():
                future.set_exception(_Expired())

        job = pool.apply_async(
            self._pooled_task,
            ((task[0], task[1], attempt, *task[2:]),),
            callback=on_ok,
            error_callback=on_error,
        )
        self.pools.enter(pool, job)
        # A timer rather than asyncio.wait_for, which hands back a result
        # that arrived after its task was cancelled (3.10, 3.11): awaiting
        # the future itself raises a requested cancellation, so a
        # cancelled attempt never reaches validation.
        timer = None
        if self.policy.timeout is not None:
            timer = loop.call_later(self.policy.timeout, expire)
        try:
            return await future
        except _Expired:
            # The hung (or crashed) worker stays behind on this pool;
            # attempts still running there finish before it goes.
            self.pools.retire(pool)
            raise EvaluationTimeoutError(
                f"timed out after {self.policy.timeout:.1f}s (hung or crashed worker)"
            ) from None
        finally:
            if timer is not None:
                timer.cancel()
            self.pools.leave(pool)

    # -- the synchronous entry point -----------------------------------------
    def evaluate(self, tasks: Sequence[Task]) -> List[PointResult]:
        """Evaluate tasks; results align with ``tasks``.

        Drives :meth:`run` over the batch on this evaluator's private event
        loop, keying the quarantine memo by task.  Called from inside a
        coroutine, this thread's own loop is busy (and blocked on this
        call), so the private loop runs on a helper thread instead.
        """
        if not tasks:
            return []
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            return self._drive(tasks)
        with ThreadPoolExecutor(max_workers=1) as helper:
            return helper.submit(self._drive, tasks).result()

    def _drive(self, tasks: Sequence[Task]) -> List[PointResult]:
        if self._loop is None:
            self._loop = asyncio.new_event_loop()
        loop = self._loop
        runs = [loop.create_task(self.run(task, task)) for task in tasks]
        settled = asyncio.gather(*runs, return_exceptions=True)
        interrupt: Optional[BaseException] = None
        while not settled.done():
            try:
                loop.run_until_complete(settled)
            except BaseException as exc:
                # An interrupt: cancel what the batch left in flight and
                # drain until every run has settled, so the loop is idle
                # for the next batch or close().  A further interrupt
                # during the drain cancels again; the first is raised.
                if interrupt is None:
                    interrupt = exc
                for run in runs:
                    run.cancel()
        if interrupt is not None:
            raise interrupt
        return [run.result() for run in runs]
