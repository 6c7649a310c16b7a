"""Fault-tolerant execution for the design-space exploration engine.

A multi-benchmark sweep is long-running, parallel work: one hung
``evaluate_point``, one worker killed by the OS, or one truncated cache
store used to abort the whole exploration.  This module is the recovery
layer the engine (:mod:`repro.dse.engine`) wraps its evaluation paths in:

* :class:`ResiliencePolicy` — the knobs: per-point wall-clock timeout,
  bounded retries with exponential backoff + deterministic jitter, pool
  respawn limits, a checkpoint-journal path and an optional fault plan.
* :class:`SupervisedEvaluator` — the supervision loop itself.  In pooled
  mode it submits tasks asynchronously, detects timeouts (which is also
  how lost results from crashed workers surface), respawns the pool to
  reclaim hung workers, and — when the pool is unrecoverable — falls back
  to in-process serial evaluation with a ``RuntimeWarning`` so sweeps
  always complete.  Points that keep failing are *quarantined*: reported
  on the :class:`~repro.dse.engine.ExplorationResult` instead of crashing
  the sweep, and never re-evaluated within the run.
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

import hashlib
import math
import os
import pickle
import struct
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Callable,
    Dict,
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


@dataclass(frozen=True)
class ResiliencePolicy:
    """How the engine supervises point evaluations.

    Args:
        timeout: per-point wall-clock budget in seconds (pooled mode).  A
            task exceeding it is treated as failed and its pool respawned —
            which is also how results lost to a crashed worker surface
            (the supervisor can only observe their absence).  The budget
            is scaled for tasks queued behind others in the same wave, so
            a deep batch on few workers does not time out spuriously.
            ``None`` disables the watchdog (hangs then block forever — only
            sensible when no faults are possible).  Serial evaluation
            cannot be preempted, so the timeout only applies to pools.
        retries: extra attempts after the first failure (0 = fail fast).
        backoff: base delay before the first retry, in seconds.
        backoff_factor: multiplier applied per additional attempt.
        jitter: relative jitter (±fraction) on each backoff sleep, drawn
            from a generator seeded with ``seed`` — deterministic, but
            decorrelated across retrying points.
        max_pool_respawns: pool terminate/recreate cycles tolerated before
            the run degrades to in-process serial evaluation (with a
            ``RuntimeWarning``).
        checkpoint: path of the append-only journal sidecar; evaluated
            point results are journaled as they arrive and replayed on the
            next run, so a killed sweep resumes without re-evaluating.
        fault_plan: deterministic fault-injection schedule (tests and the
            ``--faults`` benchmark; None in production).
        max_inflight: backpressure bound for the compile farm
            (:mod:`repro.serve`): how many evaluations may be scheduled but
            unfinished at once before admission awaits a free slot.  ``None``
            lets the farm pick ``max(4, 2 × workers)``.  Batch evaluators
            (the engine's search loop) ignore it — their batches are already
            bounded by the strategy.
        seed: seed of the jitter generator.
    """

    timeout: Optional[float] = 120.0
    retries: int = 2
    backoff: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.25
    max_pool_respawns: int = 3
    checkpoint: Optional[Union[str, Path]] = None
    fault_plan: Optional[FaultPlan] = None
    max_inflight: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive or None, got {self.timeout}")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1 or None, got {self.max_inflight}"
            )

    def backoff_seconds(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff before retry number ``attempt`` (1-based), with jitter."""
        base = self.backoff * (self.backoff_factor ** max(0, attempt - 1))
        if self.jitter:
            base *= 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
        return max(0.0, base)


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
        return {
            "evaluations": self.evaluations,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "recovered": self.recovered,
            "quarantined": self.quarantined,
            "pool_respawns": self.pool_respawns,
            "serial_fallback": self.serial_fallback,
            "resumed": self.resumed,
            "cancelled": self.cancelled,
        }


# ---------------------------------------------------------------------------
# Pool lifecycle supervision (shared by the evaluator and the compile farm)
# ---------------------------------------------------------------------------


class PoolSupervisor:
    """Owns one worker pool's spawn / respawn / teardown lifecycle.

    Extracted from :class:`SupervisedEvaluator` so the compile farm
    (:mod:`repro.serve.farm`) reuses the same policy-bounded recovery
    behaviour instead of growing a second, subtly different pool manager:
    :meth:`acquire` lazily spawns the pool (respecting the respawn budget),
    :meth:`respawn` tears it down after a timeout so the next acquire gets a
    clean one, and once the pool is declared *unrecoverable* — spawn failure
    or respawn budget exhausted — :meth:`acquire` returns ``None`` forever
    and the owner degrades to in-process serial evaluation.

    Counters land in the shared :class:`SupervisionStats` so a farm and an
    exploration report respawns/fallbacks identically.
    """

    def __init__(
        self,
        policy: ResiliencePolicy,
        pool_factory: Optional[Callable[[], object]],
        stats: Optional[SupervisionStats] = None,
    ) -> None:
        self.policy = policy
        self.stats = stats if stats is not None else SupervisionStats()
        self._factory = pool_factory
        self._pool = None
        self._respawns = 0
        self.unrecoverable = False

    @property
    def enabled(self) -> bool:
        """Whether pooled evaluation is configured at all."""
        return self._factory is not None

    def acquire(self):
        """The live pool, spawning one if needed; None when serial-only."""
        if self.unrecoverable or self._factory is None:
            return None
        if self._pool is not None:
            return self._pool
        if self._respawns > self.policy.max_pool_respawns:
            self._give_up(
                f"respawned {self._respawns - 1} times, max "
                f"{self.policy.max_pool_respawns}"
            )
            return None
        try:
            self._pool = self._factory()
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            self._give_up(f"pool spawn failed: {type(exc).__name__}: {exc}")
            return None
        return self._pool

    def respawn(self) -> None:
        """Tear the pool down (hung/crashed worker); next acquire respawns."""
        self.teardown()
        self._respawns += 1
        self.stats.pool_respawns += 1

    def teardown(self) -> None:
        if self._pool is not None:
            try:
                self._pool.terminate()
                self._pool.join()
            except Exception:
                pass
            self._pool = None

    close = teardown

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
        self.teardown()


# ---------------------------------------------------------------------------
# Checkpoint journal
# ---------------------------------------------------------------------------


class CheckpointJournal:
    """Append-only sidecar of evaluated point results, safe against crashes.

    Record layout: ``MAGIC | u32 payload length | 16-byte blake2b(payload)
    | payload`` where the payload pickles ``(digest, PointResult)`` —
    ``digest`` being the engine's stable point-result key hash.  Appends
    are flushed immediately; a process killed mid-write loses at most the
    trailing partial record, which :meth:`load` detects (checksum or
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
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("ab") as handle:
            handle.write(record)
            handle.flush()
        self.appended += 1


# ---------------------------------------------------------------------------
# The supervised evaluator
# ---------------------------------------------------------------------------

#: A task as the engine ships it: (benchmark name, design point).
Task = Tuple[str, DesignPoint]


class SupervisedEvaluator:
    """Run evaluation tasks under a :class:`ResiliencePolicy`.

    The engine constructs one per exploration and calls :meth:`evaluate`
    with each pooled search batch — and, in-process, with the points a
    fault plan targets or a batched evaluation that raised.  Construction
    is cheap; the worker pool (if any) is created lazily by
    ``pool_factory`` on first pooled use and respawned after timeouts, so
    a hung worker can never wedge the sweep.

    ``serial_compute`` evaluates one task in-process — the
    ``workers <= 1`` per-point path and the graceful-degradation fallback
    when the pool is unrecoverable.  ``pooled_task`` is the picklable
    function the pool executes, receiving ``(benchmark, point, attempt)``.
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
        self.workers = max(1, workers)
        self._serial_compute = serial_compute
        self._pooled_task = pooled_task
        self._rng = np.random.default_rng(policy.seed)
        self.stats = SupervisionStats()
        self.pools = PoolSupervisor(policy, pool_factory, self.stats)
        #: Points that failed deterministically: never re-evaluated, their
        #: failure record is replayed on any later proposal.
        self.quarantine: Dict[Task, PointResult] = {}

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        self.pools.teardown()

    def __enter__(self) -> "SupervisedEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- shared helpers ----------------------------------------------------
    def _quarantined(self, task: Task, reason: str, attempts: int) -> PointResult:
        record = PointResult(
            point=task[1], failed=True, failure=reason, attempts=attempts
        )
        self.quarantine[task] = record
        self.stats.quarantined += 1
        return record

    def _sleep_backoff(self, attempt: int) -> None:
        delay = self.policy.backoff_seconds(attempt, self._rng)
        if delay > 0:
            time.sleep(delay)

    # -- evaluation --------------------------------------------------------
    def evaluate(self, tasks: Sequence[Task]) -> List[PointResult]:
        """Evaluate tasks in order; failed points come back ``failed=True``.

        Results align with ``tasks``.  Previously quarantined points are
        served their failure record instantly (no re-evaluation), so a
        strategy re-proposing a broken neighbour costs nothing.
        """
        out: List[Optional[PointResult]] = [None] * len(tasks)
        todo: List[int] = []
        for i, task in enumerate(tasks):
            known = self.quarantine.get(task)
            if known is not None:
                out[i] = known
            else:
                todo.append(i)
        if todo:
            pooled = self.workers > 1 and self.pools.enabled
            if pooled and not self.pools.unrecoverable:
                self._evaluate_pooled(tasks, todo, out)
            else:
                for i in todo:
                    out[i] = self._evaluate_serial(tasks[i])
        return [result for result in out]  # fully populated by now

    # -- serial supervision ------------------------------------------------
    def _evaluate_serial(self, task: Task) -> PointResult:
        bench, point = task
        plan = self.policy.fault_plan
        reason = "unknown failure"
        attempt = 0
        for attempt in range(1, self.policy.retries + 2):
            try:
                marker = None
                if plan is not None:
                    marker = plan.fire(bench, point.label, attempt, in_worker=False)
                self.stats.evaluations += 1
                result = self._serial_compute(task)
                if marker == "corrupt":
                    result = corrupt_result(result)
                problem = validate_point_result(result, point)
                if problem is not None:
                    raise CorruptResultError(problem)
                if attempt > 1:
                    self.stats.recovered += 1
                return result
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                reason = f"{type(exc).__name__}: {exc}"
                if isinstance(exc, EvaluationTimeoutError):
                    self.stats.timeouts += 1
                if attempt <= self.policy.retries:
                    self.stats.retries += 1
                    self._sleep_backoff(attempt)
        return self._quarantined(task, reason, attempt)

    # -- pooled supervision ------------------------------------------------
    def _wave_timeout(self, slot: int) -> Optional[float]:
        """Per-get budget for the task in wave position ``slot``.

        Tasks queue behind each other on a finite pool, so a flat per-task
        timeout would spuriously expire for deep batches; the budget grows
        with the task's depth in the wave instead.
        """
        if self.policy.timeout is None:
            return None
        return self.policy.timeout * (1 + slot // self.workers)

    def _evaluate_pooled(
        self,
        tasks: Sequence[Task],
        todo: List[int],
        out: List[Optional[PointResult]],
    ) -> None:
        import multiprocessing as mp

        attempts: Dict[int, int] = {i: 0 for i in todo}
        pending: List[int] = list(todo)
        while pending:
            pool = self.pools.acquire()
            if pool is None:
                for i in pending:
                    # The serial path re-supervises from attempt 1: fault
                    # schedules key on attempts, so a plan that already
                    # fired in a worker does not re-fire spuriously here
                    # unless it was scheduled to.
                    out[i] = self._evaluate_serial(tasks[i])
                return
            handles = []
            for i in pending:
                attempts[i] += 1
                bench, point = tasks[i]
                self.stats.evaluations += 1
                handles.append(
                    (i, pool.apply_async(self._pooled_task, ((bench, point, attempts[i]),)))
                )
            failures: Dict[int, str] = {}
            succeeded: List[int] = []
            hit_timeout = False
            for slot, (i, handle) in enumerate(handles):
                try:
                    value = handle.get(self._wave_timeout(slot))
                except (KeyboardInterrupt, SystemExit):
                    raise
                except mp.TimeoutError:
                    hit_timeout = True
                    self.stats.timeouts += 1
                    failures[i] = (
                        f"timed out after {self.policy.timeout:.1f}s "
                        "(hung or crashed worker)"
                    )
                    continue
                except Exception as exc:
                    failures[i] = f"{type(exc).__name__}: {exc}"
                    continue
                problem = validate_point_result(value, tasks[i][1])
                if problem is not None:
                    failures[i] = problem
                    continue
                out[i] = value
                if attempts[i] > 1:
                    self.stats.recovered += 1
                succeeded.append(i)
            if hit_timeout:
                # A timed-out task may still occupy (or have killed) its
                # worker; terminate and respawn so retries run on a clean
                # pool.  Bounded by max_pool_respawns via PoolSupervisor.
                self.pools.respawn()
            pending = []
            for i, why in failures.items():
                if attempts[i] > self.policy.retries:
                    out[i] = self._quarantined(tasks[i], why, attempts[i])
                else:
                    self.stats.retries += 1
                    pending.append(i)
            if pending:
                self._sleep_backoff(max(attempts[i] for i in pending))
