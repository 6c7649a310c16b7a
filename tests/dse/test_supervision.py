"""The supervision loop as the engine drives it: late hangs, event loops, interrupts.

``SupervisedEvaluator.run`` is one coroutine per task; the engine drives
it over each batch on a private event loop.  These tests pin what that
buys a pooled sweep — a hang anywhere in a batch costs one flat timeout —
and what it must not break: ``explore`` called from inside a coroutine,
and a ``KeyboardInterrupt`` in the middle of a pooled batch.
"""

import asyncio
import multiprocessing
import time

import pytest

from repro.apps import get_benchmark
from repro.dse.cache import ANALYSIS_CACHE
from repro.dse.engine import explore
from repro.dse.resilience import FaultPlan, FaultSpec, PoolSupervisor, ResiliencePolicy
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
