"""The supervision loop as the engine drives it: late hangs, event loops, interrupts.

``SupervisedEvaluator.run`` is one coroutine per task; the engine drives
it over each batch on a private event loop.  These tests pin what that
buys a pooled sweep — a hang anywhere in a batch costs one flat timeout —
and what it must not break: ``explore`` called from inside a coroutine,
and a ``KeyboardInterrupt`` in the middle of a pooled batch, including a
second one while the first one's drain runs.
"""

import asyncio
import multiprocessing
import time

import pytest

from repro.apps import get_benchmark
from repro.dse.cache import ANALYSIS_CACHE
from repro.dse.engine import explore
from repro.dse.resilience import (
    FaultPlan,
    FaultSpec,
    PoolSupervisor,
    ResiliencePolicy,
    SupervisedEvaluator,
)
from repro.dse.results import PointResult
from repro.dse.search import Strategy
from repro.dse.space import DesignPoint, DesignSpace, default_space

GEMM_SIZES = {"m": 64, "n": 64, "p": 64}


@pytest.fixture(autouse=True)
def _fresh_cache():
    ANALYSIS_CACHE.clear()
    yield
    ANALYSIS_CACHE.clear()


def _small_space():
    space = DesignSpace()
    space.add(DesignPoint.make(None, par=16))
    for tiles in ({"m": 32, "n": 32, "p": 32}, {"m": 32, "n": 32, "p": 64}):
        for meta in (False, True):
            space.add(DesignPoint.make(tiles, par=16, metapipelining=meta))
    return space


class TwoBatchStrategy(Strategy):
    """Yields the space in two batches — gives interrupts a batch boundary."""

    name = "two-batch"

    def search(self, space, rng):
        points = list(space)
        yield points[:2]
        yield points[2:]


def test_late_hang_in_a_pooled_batch_costs_one_flat_timeout():
    """A hang deep in an exhaustive batch times out once, after ``timeout``
    — not after a budget scaled by its position in the batch."""
    bench = get_benchmark("gemm")
    space = default_space({name: GEMM_SIZES[name] for name in bench.tile_sizes})
    timeout = 1.0
    slot = 20
    assert len(space) > slot

    started = time.perf_counter()
    base = explore(
        "gemm", sizes=GEMM_SIZES, space=space, prune=False, workers=2,
        resilience=ResiliencePolicy(timeout=timeout),
    )
    fault_free = time.perf_counter() - started

    victim = list(space)[slot]
    plan = FaultPlan.make({("gemm", victim.label): FaultSpec("hang", hang_seconds=60.0)})
    ANALYSIS_CACHE.clear()
    started = time.perf_counter()
    chaos = explore(
        "gemm", sizes=GEMM_SIZES, space=space, prune=False, workers=2,
        resilience=ResiliencePolicy(timeout=timeout, fault_plan=plan),
    )
    elapsed = time.perf_counter() - started

    assert chaos.evaluated == base.evaluated
    assert not chaos.quarantined and not chaos.interrupted
    assert chaos.supervision["timeouts"] >= 1
    assert chaos.supervision["recovered"] >= 1
    assert elapsed <= 3 * timeout + fault_free, (elapsed, fault_free)


def test_explore_inside_a_coroutine_still_retries_fault_victims():
    """The engine's private event loop must not collide with the caller's."""
    space = _small_space()
    base = explore("gemm", sizes=GEMM_SIZES, space=space, prune=False)
    victim = list(space)[1]
    plan = FaultPlan.make({("gemm", victim.label): FaultSpec("error")})

    async def caller():
        return explore(
            "gemm", sizes=GEMM_SIZES, space=space, prune=False,
            resilience=ResiliencePolicy(retries=2, backoff=0.0, fault_plan=plan),
        )

    ANALYSIS_CACHE.clear()
    result = asyncio.run(caller())
    assert result.evaluated == base.evaluated
    assert not result.quarantined and not result.interrupted
    assert result.supervision["retries"] == 1
    assert result.supervision["recovered"] == 1


def test_keyboard_interrupt_in_a_pooled_batch_returns_partials(monkeypatch):
    """An interrupt while a pooled batch is in flight returns what completed
    and tears every worker down."""
    import repro.dse.resilience as resilience

    space = _small_space()
    second = set(list(space)[2:])
    real = resilience.validate_point_result
    interrupts = []

    def interrupting(result, point):
        if point in second and not interrupts:  # one SIGINT's worth
            interrupts.append(point)
            raise KeyboardInterrupt()
        return real(result, point)

    monkeypatch.setattr(resilience, "validate_point_result", interrupting)
    before = set(multiprocessing.active_children())
    result = explore(
        "gemm", sizes=GEMM_SIZES, space=space, prune=False, workers=2,
        strategy=TwoBatchStrategy(), resilience=ResiliencePolicy(timeout=60.0),
    )
    assert result.interrupted
    assert [r.point for r in result.evaluated] == list(space)[:2]
    assert "INTERRUPTED" in result.summary()
    assert set(multiprocessing.active_children()) - before == set()


def _answer(task):
    return PointResult(point=task[1], cycles=1.0)


class _AnsweredPool:
    """A pool whose results are back before the attempts await them, so an
    interrupt finds the rest of the batch holding delivered results."""

    def apply_async(self, fn, args, callback, error_callback):
        callback(fn(*args))
        return _Job([], ready=True)

    def terminate(self):
        pass

    def join(self):
        pass


def _interrupted_batch(monkeypatch, on_validate, on_leave=None):
    """Drive one interrupted batch; return the evaluator and the interrupt."""
    import repro.dse.resilience as resilience

    real = resilience.validate_point_result
    monkeypatch.setattr(
        resilience, "validate_point_result",
        lambda result, point: on_validate(point) or real(result, point),
    )
    if on_leave is not None:
        real_leave = PoolSupervisor.leave

        def leave(self, pool):
            real_leave(self, pool)
            on_leave()

        monkeypatch.setattr(PoolSupervisor, "leave", leave)
    evaluator = SupervisedEvaluator(
        ResiliencePolicy(timeout=60.0), _answer,
        pool_factory=_AnsweredPool, pooled_task=_answer,
    )
    tasks = [("gemm", DesignPoint.make(None, par=par)) for par in (1, 2, 4, 8, 16, 32)]
    with pytest.raises(KeyboardInterrupt) as raised:
        evaluator.evaluate(tasks)
    monkeypatch.undo()
    return evaluator, tasks, raised.value


def _assert_settled_and_reusable(evaluator, tasks):
    with evaluator:
        assert not asyncio.all_tasks(evaluator._loop)
        results = evaluator.evaluate(tasks)
    assert [r.point for r in results] == [task[1] for task in tasks]
    assert not any(r.failed for r in results)


def test_interrupts_at_two_successive_validations_leave_no_task_pending(monkeypatch):
    """A cancelled run neither validates nor retries: its result is back,
    but the interrupt's cancellation wins.  The drain settles every run,
    the first interrupt is raised, and the next batch runs."""
    validated = []

    def interrupting(point):
        validated.append(point)
        if len(validated) <= 2:
            raise KeyboardInterrupt(len(validated))

    evaluator, tasks, interrupt = _interrupted_batch(monkeypatch, interrupting)
    assert interrupt.args == (1,)
    assert len(validated) == 1
    assert evaluator.stats.retries == 0
    _assert_settled_and_reusable(evaluator, tasks)


def test_an_interrupt_during_the_drain_cancels_again(monkeypatch):
    """A second interrupt while the first one's drain runs (here: as a
    cancelled attempt leaves its pool) does not escape the drain."""
    interrupts = []

    def interrupting(point):
        if not interrupts:
            interrupts.append("validate")
            raise KeyboardInterrupt("validate")

    def leaving():
        if interrupts == ["validate"]:
            interrupts.append("drain")
            raise KeyboardInterrupt("drain")

    evaluator, tasks, interrupt = _interrupted_batch(monkeypatch, interrupting, leaving)
    assert interrupts == ["validate", "drain"]
    assert interrupt.args == ("validate",)
    _assert_settled_and_reusable(evaluator, tasks)


class _Job:
    """An ``AsyncResult`` stand-in: ``wait`` lets the task finish."""

    def __init__(self, log, ready):
        self.log, self.done = log, ready

    def ready(self):
        return self.done

    def wait(self, timeout):
        self.log.append(("wait", timeout))
        self.done = True


class _Pool:
    def __init__(self, log):
        self.log = log

    def terminate(self):
        self.log.append("terminate")

    def join(self):
        self.log.append("join")


def test_teardown_lets_running_tasks_finish_before_terminating():
    """``Pool.terminate`` SIGTERMs workers, and one killed while it sends a
    result leaves the result queue's lock held, on which the pool's own
    teardown then waits forever.  A task an interrupt left running gets a
    bounded wait first; a delivered one costs nothing."""
    log = []
    pool = _Pool(log)
    pools = PoolSupervisor(ResiliencePolicy(), lambda: pool)
    assert pools.acquire() is pool
    pools.enter(pool, _Job(log, ready=True))
    pools.enter(pool, _Job(log, ready=False))
    pools.leave(pool)
    pools.leave(pool)  # both attempts settled: one delivered, one cancelled
    pools.teardown()
    (kind, grace), *rest = log
    assert kind == "wait" and 0 < grace <= 1.0
    assert rest == ["terminate", "join"]
