"""The farm under the shared supervision loop: one hang, one incident."""

from __future__ import annotations

import multiprocessing
import time

import pytest

import repro.serve.farm as farm_module
from repro.dse.cache import ANALYSIS_CACHE
from repro.dse.engine import pool_context
from repro.dse.resilience import FaultPlan, FaultSpec, ResiliencePolicy
from repro.dse.space import DesignPoint
from repro.serve import CompileFarm

SIZES = {"sumrows": {"m": 1024, "n": 64}}

#: Each healthy request sleeps this long in its worker before evaluating.
HEALTHY_SECONDS = 0.1
TIMEOUT = 2.0


def _table_sizes():
    """Pool-task probe: this process's analysis-cache entries per table."""
    return {
        name: counts["entries"]
        for name, counts in ANALYSIS_CACHE.stats().items()
        if counts["entries"]
    }


class _ProbedPools:
    """A pool context whose every new pool first runs :func:`_table_sizes`.

    ``probes`` holds, per pool, the parent's table sizes when the pool was
    made and a worker's, probed before the pool takes any other task.
    """

    def __init__(self):
        self.probes = []

    def Pool(self, *args, **kwargs):
        parent = _table_sizes()
        pool = pool_context().Pool(*args, **kwargs)
        self.probes.append((parent, pool.apply(_table_sizes)))
        return pool


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool workers inherit the parent's cache through fork",
)
@pytest.mark.asyncio
async def test_one_hang_among_in_flight_requests_costs_one_timeout(monkeypatch):
    """A hung worker times out once and retires its pool once; the requests
    in flight beside it complete and are charged nothing.  The respawned
    pool forks from the parent as it stands then, so its workers start with
    the results the first pool returned.

    The hang is the first request, so it holds one of the two workers from
    the start.  Healthy requests sleep ``HEALTHY_SECONDS`` first, so the
    other worker finishes at most ``TIMEOUT / HEALTHY_SECONDS`` of them
    before the hang times out: more than that plus three are requested, so
    the other three in-flight slots (``max(4, 2 × workers)``) hold healthy
    requests when it does.
    """
    import repro.dse.engine as engine

    real = engine.evaluate_point

    def slow(*args, **kwargs):
        time.sleep(HEALTHY_SECONDS)
        return real(*args, **kwargs)

    # Patched before the pool forks, so its workers inherit it.
    monkeypatch.setattr(engine, "evaluate_point", slow)
    pools = _ProbedPools()
    monkeypatch.setattr(farm_module, "pool_context", lambda: pools)
    points = [
        DesignPoint.make(tile_sizes={"m": m, "n": 64}, par=par, metapipelining=meta)
        for m in (64, 128, 256, 512)
        for par in (1, 2, 4)
        for meta in (False, True)
    ]
    points.append(DesignPoint.make(tile_sizes={"m": 1024, "n": 64}, par=1))
    assert len(points) - 1 >= TIMEOUT / HEALTHY_SECONDS + 3
    plan = FaultPlan.make({("sumrows", points[0].label): FaultSpec("hang", hang_seconds=60.0)})
    policy = ResiliencePolicy(
        timeout=TIMEOUT, retries=2, backoff=0.0, jitter=0.0, fault_plan=plan
    )
    farm = CompileFarm(["sumrows"], sizes=SIZES, workers=2, resilience=policy)
    async with farm:
        responses = await (await farm.submit([("sumrows", p) for p in points])).gather()

    assert all(r.ok for r in responses)
    assert [r.status for r in responses] == ["evaluated"] * len(points)
    stats = farm.stats.supervision
    assert stats.timeouts == 1
    assert stats.pool_respawns == 1
    assert stats.serial_fallback == 0
    assert stats.recovered == 1
    assert stats.evaluations == len(points) + 1

    (first, first_worker), (respawn, respawn_worker) = pools.probes
    assert first_worker == first
    assert respawn_worker == respawn
    assert respawn["point_results"] > first.get("point_results", 0)
