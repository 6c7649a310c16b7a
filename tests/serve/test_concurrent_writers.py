"""Two real farm processes saving to one disk store must lose nothing.

The classic lost-update race: both processes load the (empty) store, both
evaluate disjoint work, both save.  Last-writer-wins would clobber the
first writer's entries; ``AnalysisCache.save_disk`` merges with what is
already on disk instead.  This is exercised with real ``multiprocessing``
processes — not mocks — synchronised so their farm lifetimes genuinely
overlap.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.dse.cache import ANALYSIS_CACHE, AnalysisCache
from repro.dse.space import DesignPoint

SIZES = {"sumrows": {"m": 1024, "n": 64}}


def _run_farm_writer(store_path, par_values, barrier):
    """Child process body: evaluate ``par_values`` and save to the store."""
    import asyncio

    from repro.serve import CompileFarm

    ANALYSIS_CACHE.clear()

    async def main():
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1, store=store_path)
        async with farm:
            # Rendezvous inside the farm lifetime: both processes hold the
            # (initially empty) store loaded before either one saves.
            barrier.wait(timeout=60)
            points = [
                DesignPoint.make(tile_sizes={"m": 64, "n": 64}, par=par)
                for par in par_values
            ]
            responses = await (
                await farm.submit([("sumrows", p) for p in points])
            ).gather()
            assert all(r.ok for r in responses)
        # Exiting the farm saved the store (merge-on-save).

    asyncio.run(main())


@pytest.fixture
def fork_context():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    return multiprocessing.get_context("fork")


def test_concurrent_farms_merge_on_save(tmp_path, fork_context):
    store = tmp_path / "analysis.pkl"
    barrier = fork_context.Barrier(2)
    first = fork_context.Process(
        target=_run_farm_writer, args=(str(store), (1, 2), barrier)
    )
    second = fork_context.Process(
        target=_run_farm_writer, args=(str(store), (4, 8), barrier)
    )
    first.start()
    second.start()
    first.join(timeout=120)
    second.join(timeout=120)
    assert first.exitcode == 0
    assert second.exitcode == 0

    merged = AnalysisCache()
    assert merged.load_disk(store) > 0
    # Every distinct point from *both* writers survived the overlapping
    # saves — nothing was lost to a last-writer-wins race.
    assert merged.size("point_results") == 4
    pars = sorted(result.point.par for result in merged.table("point_results").values())
    assert pars == [1, 2, 4, 8]


def test_farm_save_merges_with_preexisting_cli_store(tmp_path):
    """A farm saving over a store written by a plain sweep keeps both."""
    import asyncio

    from repro.dse.engine import explore
    from repro.serve import CompileFarm

    store = tmp_path / "analysis.pkl"
    explore("sumrows", sizes=SIZES["sumrows"], workers=1, max_evaluations=2,
            disk_cache=store)
    baseline = AnalysisCache()
    baseline.load_disk(store)
    preexisting = set(baseline.table("point_results"))
    assert preexisting
    ANALYSIS_CACHE.clear()

    async def main():
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1, store=store)
        async with farm:
            # A point the sweep never evaluated.
            point = DesignPoint.make(
                tile_sizes={"m": 64, "n": 64}, par=32, metapipelining=True
            )
            responses = await (await farm.submit([("sumrows", point)])).gather()
            assert responses[0].status in ("evaluated", "cached")

    asyncio.run(main())

    merged = AnalysisCache()
    merged.load_disk(store)
    assert preexisting <= set(merged.table("point_results"))
    assert merged.size("point_results") > len(preexisting)
