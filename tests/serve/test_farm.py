"""The compile farm: dedup-before-schedule, determinism, explorer routing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import get_benchmark
from repro.dse.batch import evaluate_point_batch
from repro.dse.cache import ANALYSIS_CACHE
from repro.dse.engine import MultiBenchmarkExplorer, explore
from repro.dse.resilience import FaultPlan, FaultSpec, ResiliencePolicy
from repro.dse.space import DesignPoint
from repro.errors import FarmError
from repro.serve import CompileFarm, CompileRequest, SnapshotView, SyncClient

SIZES = {
    "sumrows": {"m": 1024, "n": 64},
    "outerprod": {"m": 128, "n": 128},
    "gemm": {"m": 64, "n": 64, "p": 64},
}
BENCHMARKS = list(SIZES)


def _points(par_values=(1, 2, 4)):
    return [DesignPoint.make(tile_sizes={"m": 64, "n": 64}, par=par) for par in par_values]


def _fast_policy(**overrides) -> ResiliencePolicy:
    defaults = dict(timeout=60.0, retries=0, backoff=0.0, jitter=0.0)
    defaults.update(overrides)
    return ResiliencePolicy(**defaults)


class TestAdmission:
    @pytest.mark.asyncio
    async def test_duplicates_in_one_batch_coalesce(self):
        points = _points()
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
        async with farm:
            requests = [CompileRequest("sumrows", p) for p in points + points]
            responses = await (await farm.submit(requests)).gather()
        first, second = responses[: len(points)], responses[len(points) :]
        assert [r.status for r in first] == ["evaluated"] * len(points)
        assert [r.status for r in second] == ["coalesced"] * len(points)
        # The load-bearing dedup assertion: duplicate submissions caused
        # zero extra evaluations.
        assert farm.stats.scheduled == len(points)
        assert farm.stats.supervision.evaluations == len(points)
        assert farm.stats.coalesced == len(points)
        for dup, primary in zip(second, first):
            assert dup.result == primary.result

    @pytest.mark.asyncio
    async def test_concurrent_batches_dedupe_against_in_flight(self):
        points = _points()
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
        async with farm:
            batch_a = await farm.submit([CompileRequest("sumrows", p) for p in points])
            batch_b = await farm.submit([CompileRequest("sumrows", p) for p in points])
            got_a = await batch_a.gather()
            got_b = await batch_b.gather()
        assert farm.stats.scheduled == len(points)
        assert farm.stats.supervision.evaluations == len(points)
        assert [r.status for r in got_b] == ["coalesced"] * len(points)
        assert [a.result for a in got_a] == [b.result for b in got_b]

    @pytest.mark.asyncio
    async def test_repeat_batch_is_served_from_cache(self):
        points = _points()
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
        async with farm:
            await (await farm.submit([("sumrows", p) for p in points])).gather()
            again = await (await farm.submit([("sumrows", p) for p in points])).gather()
        assert [r.status for r in again] == ["cached"] * len(points)
        assert farm.stats.cache_hits == len(points)
        assert farm.stats.scheduled == len(points)

    @pytest.mark.asyncio
    async def test_distinct_cycle_models_do_not_coalesce(self):
        point = _points()[0]
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
        async with farm:
            responses = await (
                await farm.submit(
                    [
                        CompileRequest("sumrows", point, cycle_model="analytical"),
                        CompileRequest("sumrows", point, cycle_model="event"),
                    ]
                )
            ).gather()
        assert farm.stats.scheduled == 2
        assert all(r.ok for r in responses)
        # The backends time differently; both results are real.
        assert responses[0].result.cycles != responses[1].result.cycles

    @pytest.mark.asyncio
    async def test_pipeline_override_dedupes_against_point_gene(self):
        point = _points()[0]
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
        async with farm:
            responses = await (
                await farm.submit(
                    [
                        CompileRequest("sumrows", point),
                        CompileRequest("sumrows", point, pipeline="default"),
                    ]
                )
            ).gather()
        assert [r.status for r in responses] == ["evaluated", "coalesced"]
        assert farm.stats.scheduled == 1

    @pytest.mark.asyncio
    async def test_unknown_benchmark_fails_whole_batch_before_scheduling(self):
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
        async with farm:
            with pytest.raises(FarmError, match="not served"):
                await farm.submit(
                    [("sumrows", _points()[0]), ("nosuchbench", _points()[0])]
                )
            assert farm.stats.received == 0
            assert farm.stats.scheduled == 0

    @pytest.mark.asyncio
    async def test_duplicate_request_ids_rejected(self):
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
        async with farm:
            with pytest.raises(FarmError, match="duplicate request id"):
                await farm.submit(
                    [
                        CompileRequest("sumrows", p, request_id="same")
                        for p in _points((1, 2))
                    ]
                )

    @pytest.mark.asyncio
    async def test_submit_requires_started_farm(self):
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
        with pytest.raises(FarmError, match="not started"):
            await farm.submit([("sumrows", _points()[0])])
        async with farm:
            pass
        with pytest.raises(FarmError, match="shut down"):
            await farm.submit([("sumrows", _points()[0])])


class TestOrderingAndStreaming:
    @pytest.mark.asyncio
    async def test_gather_restores_submission_order(self):
        points = _points((4, 1, 2))
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
        async with farm:
            batch = await farm.submit([("sumrows", p) for p in points])
            responses = await batch.gather()
        assert [r.request_id for r in responses] == batch.request_ids
        assert [r.point for r in responses] == points

    @pytest.mark.asyncio
    async def test_caller_request_ids_are_preserved(self):
        points = _points((1, 2))
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
        async with farm:
            batch = await farm.submit(
                [
                    CompileRequest("sumrows", p, request_id=f"mine-{i}")
                    for i, p in enumerate(points)
                ]
            )
            responses = await batch.gather()
        assert [r.request_id for r in responses] == ["mine-0", "mine-1"]

    @pytest.mark.asyncio
    async def test_stream_yields_every_response(self):
        points = _points()
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
        async with farm:
            batch = await farm.submit([("sumrows", p) for p in points])
            streamed = [response async for response in batch.stream()]
        assert sorted(r.request_id for r in streamed) == sorted(batch.request_ids)
        assert all(r.ok for r in streamed)


class TestDeterminism:
    @pytest.mark.asyncio
    async def test_farm_results_bit_identical_to_serial_explore(self):
        """Three benchmarks served concurrently == three serial explores."""
        serial = {}
        for name in BENCHMARKS:
            result = explore(
                name, sizes=SIZES[name], workers=1, max_evaluations=4, search_seed=0
            )
            serial[name] = [
                r for r in result.evaluated if not getattr(r, "failed", False)
            ]
        ANALYSIS_CACHE.clear()

        farm = CompileFarm(BENCHMARKS, sizes=SIZES, workers=2)
        async with farm:
            requests = [
                CompileRequest(name, r.point)
                for name in BENCHMARKS
                for r in serial[name]
            ]
            responses = await (await farm.submit(requests)).gather()

        flat_serial = [r for name in BENCHMARKS for r in serial[name]]
        assert len(responses) == len(flat_serial)
        for response, reference in zip(responses, flat_serial):
            assert response.ok
            got = response.result
            assert got == reference  # dataclass equality over all metrics
            # Spell the bit-identity out for the metrics that matter most.
            assert got.cycles == reference.cycles
            assert got.seconds == reference.seconds
            assert got.logic == reference.logic
            assert got.bram_bits == reference.bram_bits
            assert got.utilization == reference.utilization
        assert farm.stats.scheduled == len(flat_serial)


class TestFailureHandling:
    @pytest.mark.asyncio
    async def test_deterministic_failure_quarantined_and_replayed(self):
        point = _points()[0]
        plan = FaultPlan.make(
            {("sumrows", point.label): FaultSpec(kind="error", times=-1)}
        )
        farm = CompileFarm(
            ["sumrows"],
            sizes=SIZES,
            workers=1,
            resilience=_fast_policy(fault_plan=plan),
        )
        async with farm:
            first = await (await farm.submit([("sumrows", point)])).gather()
            replay = await (await farm.submit([("sumrows", point)])).gather()
        assert first[0].status == "failed"
        assert first[0].result.failed
        assert "injected transient error" in first[0].error
        # Quarantine replay: the resubmission cost zero evaluations.
        assert replay[0].status == "failed"
        assert farm.stats.supervision.evaluations == 1
        assert farm.stats.scheduled == 1

    @pytest.mark.asyncio
    async def test_transient_failure_recovers_with_retry(self):
        point = _points()[0]
        plan = FaultPlan.make(
            {("sumrows", point.label): FaultSpec(kind="error", times=1)}
        )
        farm = CompileFarm(
            ["sumrows"],
            sizes=SIZES,
            workers=1,
            resilience=_fast_policy(retries=2, fault_plan=plan),
        )
        async with farm:
            responses = await (await farm.submit([("sumrows", point)])).gather()
        assert responses[0].status == "evaluated"
        assert responses[0].ok
        assert farm.stats.supervision.retries == 1
        assert farm.stats.supervision.recovered == 1


class TestExplorerIntegration:
    def test_explorer_through_farm_matches_serial_explorer(self):
        names = ["sumrows", "gemm"]
        sizes = {name: SIZES[name] for name in names}
        serial = MultiBenchmarkExplorer(
            names, sizes=sizes, workers=1, max_evaluations=4
        ).run()
        ANALYSIS_CACHE.clear()

        farm = CompileFarm(names, sizes=sizes, workers=2)
        with SyncClient(farm) as client:
            farmed = MultiBenchmarkExplorer(
                names, sizes=sizes, farm=client, max_evaluations=4
            ).run()
            assert farm.stats.scheduled > 0

        for name in names:
            assert farmed[name].evaluated == serial[name].evaluated
            # Farm admission counters surface on the exploration report.
            assert farmed[name].supervision["scheduled"] == farm.stats.scheduled

    def test_explorer_rejects_mismatched_sizes(self):
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
        with SyncClient(farm) as client:
            explorer = MultiBenchmarkExplorer(
                ["sumrows"],
                sizes={"sumrows": {"m": 512, "n": 32}},
                farm=client,
                max_evaluations=2,
            )
            with pytest.raises(FarmError, match="sizes differ"):
                explorer.run()
            assert farm.stats.received == 0

    def test_explorer_rejects_unserved_benchmark(self):
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
        with SyncClient(farm) as client:
            explorer = MultiBenchmarkExplorer(
                ["gemm"], sizes=SIZES, farm=client, max_evaluations=2
            )
            with pytest.raises(FarmError, match="not served"):
                explorer.run()



class TestStoreCompatibility:
    @pytest.mark.asyncio
    async def test_store_from_generated_bindings_schedules_nothing(self, tmp_path):
        """Farm lanes bind shapes only, yet a store written by evaluating
        generated arrays answers every one of its points: both kinds of
        input give the same point keys."""
        bench = get_benchmark("sumrows")
        points = _points()
        bindings = bench.bindings(SIZES["sumrows"], np.random.default_rng(5))
        expected = evaluate_point_batch(bench.build(), bindings, points)
        store = tmp_path / "store.pkl"
        ANALYSIS_CACHE.save_disk(store)
        ANALYSIS_CACHE.clear()
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1, store=store)
        async with farm:
            responses = await (await farm.submit([("sumrows", p) for p in points])).gather()
        assert [r.status for r in responses] == ["cached"] * len(points)
        assert farm.stats.scheduled == 0
        assert farm.stats.supervision.evaluations == 0
        assert [r.result for r in responses] == expected


def _attached_tables():
    """Pool-task probe: the tables this worker attached lazily at spawn."""
    return sorted(ANALYSIS_CACHE._lazy)


class TestWorkerSnapshot:
    @pytest.mark.asyncio
    async def test_inline_farm_writes_no_snapshot(self, tmp_path):
        store = tmp_path / "store.pkl"
        explore("sumrows", sizes=SIZES["sumrows"], max_evaluations=2, disk_cache=store)
        ANALYSIS_CACHE.clear()
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1, store=store)
        async with farm:
            await (await farm.submit([("sumrows", p) for p in _points()])).gather()
        assert store.exists()
        assert not store.with_name("store.pkl.snap").exists()

    @pytest.mark.asyncio
    async def test_pooled_farm_workers_attach_the_snapshot(self, tmp_path):
        serial = explore("sumrows", sizes=SIZES["sumrows"], max_evaluations=4)
        ANALYSIS_CACHE.clear()
        store = tmp_path / "store.pkl"
        explore("outerprod", sizes=SIZES["outerprod"], max_evaluations=2, disk_cache=store)
        ANALYSIS_CACHE.clear()
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=2, store=store)
        async with farm:
            view = SnapshotView(store.with_name("store.pkl.snap"))
            tables = view.tables
            view.close()
            assert "point_results" in tables
            assert farm.pools.acquire().apply(_attached_tables) == sorted(tables)
            responses = await (
                await farm.submit([("sumrows", r.point) for r in serial.evaluated])
            ).gather()
        assert [r.status for r in responses] == ["evaluated"] * len(serial.evaluated)
        assert [r.result for r in responses] == serial.evaluated


class TestSyncClient:
    def test_submit_and_evaluate(self):
        points = _points()
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
        with SyncClient(farm) as client:
            responses = client.submit(
                [CompileRequest("sumrows", p) for p in points + points[:1]]
            )
            assert [r.status for r in responses] == [
                "evaluated",
                "evaluated",
                "evaluated",
                "coalesced",
            ]
            results = client.evaluate([("sumrows", p) for p in points])
            assert [r.point for r in results] == points
            assert all(not r.failed for r in results)

    def test_stream_blocks_per_response(self):
        points = _points((1, 2))
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
        with SyncClient(farm) as client:
            streamed = list(client.stream([("sumrows", p) for p in points]))
        assert len(streamed) == 2
        assert all(r.ok for r in streamed)

    def test_double_start_rejected(self):
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
        client = SyncClient(farm)
        with client:
            with pytest.raises(FarmError, match="already started"):
                client.start()


class TestCacheMetrics:
    @pytest.mark.asyncio
    async def test_per_table_metrics_exposed_through_farm_stats(self):
        points = _points()
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
        async with farm:
            await (await farm.submit([("sumrows", p) for p in points])).gather()
            metrics = farm.cache_metrics()
            table = metrics["point_results"]
            assert table["entries"] == len(points)
            assert table["hits"] == 0
            # Serial evaluation memoises through evaluate_point, which
            # records one miss per computed point.
            assert table["misses"] == len(points)
            assert table["hit_rate"] == 0.0
            assert table["evictions"] == 0

            await (await farm.submit([("sumrows", p) for p in points])).gather()
            warm = farm.cache_metrics()["point_results"]
            assert warm["hits"] == len(points)
            assert warm["misses"] == len(points)
            assert warm["hit_rate"] == 0.5
        # Shutdown refreshes the snapshot on the stats object itself.
        assert farm.stats.cache["point_results"]["hits"] == len(points)

    @pytest.mark.asyncio
    async def test_as_dict_stays_flat_for_supervision_merge(self):
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
        async with farm:
            await (await farm.submit([("sumrows", _points()[0])])).gather()
        flat = farm.stats.as_dict()
        assert all(isinstance(value, int) for value in flat.values())
        assert "cache" not in flat
