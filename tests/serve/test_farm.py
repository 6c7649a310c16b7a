"""The compile farm: dedup-before-schedule, determinism, explorer routing."""

from __future__ import annotations

import multiprocessing
import pickle
from collections import Counter

import numpy as np
import pytest

import repro.serve.farm as farm_module
from repro.apps import get_benchmark
from repro.dse.batch import evaluate_point_batch
from repro.dse.cache import ANALYSIS_CACHE
from repro.dse.engine import MultiBenchmarkExplorer, evaluate_point, explore
from repro.dse.resilience import CheckpointJournal, FaultPlan, FaultSpec, ResiliencePolicy
from repro.dse.space import DesignPoint, default_space
from repro.errors import FarmError
from repro.rewrite import (
    InvariantCodeMotion,
    Interchange,
    LetCse,
    StripMine,
    TileCopies,
    VerticalFusion,
)
from repro.serve import CompileFarm, CompileRequest, CompileResponse, SyncClient

SIZES = {
    "sumrows": {"m": 1024, "n": 64},
    "outerprod": {"m": 128, "n": 128},
    "gemm": {"m": 64, "n": 64, "p": 64},
}
BENCHMARKS = list(SIZES)


def _points(par_values=(1, 2, 4)):
    return [DesignPoint.make(tile_sizes={"m": 64, "n": 64}, par=par) for par in par_values]


GOOD = _points((1,))[0]
#: Requests the farm must reject, each submitted after a well-formed one.
MALFORMED = [
    pytest.param(CompileRequest("sumrows", "not-a-point", request_id="b"), id="point"),
    pytest.param(("sumrows", "not-a-point"), id="pair-point"),
    pytest.param(CompileRequest(["sumrows"], GOOD, request_id="b"), id="benchmark"),
    pytest.param(CompileRequest("sumrows", GOOD, request_id=7), id="request-id"),
    pytest.param(CompileRequest("sumrows", GOOD, pipeline=7, request_id="b"), id="pipeline"),
    pytest.param(
        CompileRequest("sumrows", GOOD, cycle_model=["event"], request_id="b"),
        id="cycle-model",
    ),
    pytest.param(
        CompileRequest("sumrows", GOOD, pipeline="nosuch", request_id="b"),
        id="unknown-pipeline",
    ),
    pytest.param(
        CompileRequest("sumrows", GOOD, cycle_model="bogus", request_id="b"),
        id="unknown-cycle-model",
    ),
    pytest.param(("sumrows",), id="short-tuple"),
    pytest.param("sumrows", id="str"),
]


def _fast_policy(**overrides) -> ResiliencePolicy:
    defaults = dict(timeout=60.0, retries=0, backoff=0.0)
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
    @pytest.mark.parametrize("workers", [1, 2])
    async def test_repeat_batch_is_served_from_cache(self, workers):
        """Results, pool workers' included, are seeded into this process's
        cache, which a later batch (or a pool forked later) reads."""
        points = _points()
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=workers)
        async with farm:
            first = await (await farm.submit([("sumrows", p) for p in points])).gather()
            again = await (await farm.submit([("sumrows", p) for p in points])).gather()
        assert [r.status for r in first] == ["evaluated"] * len(points)
        assert [r.status for r in again] == ["cached"] * len(points)
        assert [r.result for r in again] == [r.result for r in first]
        assert farm.stats.cache_hits == len(points)
        assert farm.stats.scheduled == len(points)
        assert farm.stats.supervision.evaluations == len(points)

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
    @pytest.mark.parametrize("bad", MALFORMED)
    async def test_malformed_request_fails_whole_batch_before_scheduling(self, bad):
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
        async with farm:
            with pytest.raises(FarmError):
                await farm.submit([CompileRequest("sumrows", GOOD, request_id="a"), bad])
            assert farm.stats.received == 0
            assert farm.stats.scheduled == 0
            responses = await (await farm.submit([("sumrows", GOOD)])).gather()
        assert [r.status for r in responses] == ["evaluated"]

    def test_unknown_default_cycle_model_is_rejected(self):
        with pytest.raises(FarmError, match="cycle_model 'bogus'"):
            CompileFarm(["sumrows"], sizes=SIZES, workers=1, cycle_model="bogus")

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


class TestJournal:
    @pytest.mark.asyncio
    async def test_aclose_closes_the_journal(self, tmp_path, journal_events):
        points = _points()
        farm = CompileFarm(
            ["sumrows"],
            sizes=SIZES,
            workers=1,
            resilience=_fast_policy(checkpoint=tmp_path / "farm.journal"),
        )
        async with farm:
            await (await farm.submit([("sumrows", p) for p in points])).gather()
        journal = journal_events[0][1]
        assert journal_events == [("append", journal)] * len(points) + [("close", journal)]

    @pytest.mark.asyncio
    async def test_round_tripped_points_coalesce_with_points_built_in_place(self, tmp_path):
        """A point that arrived over TCP (one pickle round trip) coalesces
        with, and journals under the digest of, the same point built in
        this process."""
        bench = get_benchmark("gemm")
        points = list(default_space({name: bench.test_sizes[name] for name in bench.tile_sizes}))
        copies = [pickle.loads(pickle.dumps(point)) for point in points]
        journal = tmp_path / "farm.journal"
        farm = CompileFarm(
            ["gemm"],
            sizes={"gemm": dict(bench.test_sizes)},
            workers=1,
            resilience=_fast_policy(checkpoint=journal),
        )
        async with farm:
            await (await farm.submit([("gemm", p) for p in points + copies])).gather()
        assert len(points) == 12
        assert farm.stats.scheduled == len(points)
        assert len(CheckpointJournal(journal).load()) == len(points)


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


    def test_store_serves_tile_sizes_it_never_saw(self, tmp_path, monkeypatch):
        """The batched path writes one symbolic tiling per structure: a store
        holding a third of gemm's space serves every transform pass of the
        whole space to the scalar path farm lanes evaluate with, through
        ``load_disk``."""
        bench = get_benchmark("gemm")
        sizes = SIZES["gemm"]
        program = bench.build()
        workload = bench.workload(sizes)
        points = list(default_space({name: sizes[name] for name in bench.tile_sizes}).points)
        third = [p for p in points if p.tiles.get("m", 16) == 16]
        assert 3 * len(third) >= len(points) and len(third) < len(points) / 2
        with ANALYSIS_CACHE.disabled():
            expected = [evaluate_point(program, workload, point) for point in points]
        evaluate_point_batch(program, workload, third)
        store = tmp_path / "store.pkl"
        ANALYSIS_CACHE.save_disk(store)

        applied = Counter()
        for transformation in (
            VerticalFusion, StripMine, TileCopies, LetCse, InvariantCodeMotion, Interchange
        ):
            def counted(self, subject, ctx, _apply=transformation.apply):
                applied[type(self).__name__] += 1
                return _apply(self, subject, ctx)

            monkeypatch.setattr(transformation, "apply", counted)

        ANALYSIS_CACHE.clear()
        ANALYSIS_CACHE.load_disk(store)
        results = [evaluate_point(program, workload, point) for point in points]
        assert results == expected
        assert not applied


def _table_sizes():
    """Pool-task probe: this process's analysis-cache entries per table."""
    return {
        name: counts["entries"]
        for name, counts in ANALYSIS_CACHE.stats().items()
        if counts["entries"]
    }


def _table_keys(name):
    """Pool-task probe: one table's keys in this process, least recent first."""
    return list(ANALYSIS_CACHE.table(name))


def _store_of_another_app(tmp_path, evaluations=2):
    """A store holding outerprod's entries only, and sumrows' serial results."""
    serial = explore("sumrows", sizes=SIZES["sumrows"], max_evaluations=4)
    ANALYSIS_CACHE.clear()
    store = tmp_path / "store.pkl"
    explore(
        "outerprod",
        sizes=SIZES["outerprod"],
        max_evaluations=evaluations,
        disk_cache=store,
    )
    ANALYSIS_CACHE.clear()
    return store, serial.evaluated


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool workers inherit the parent's cache through fork",
)
class TestWorkerWarmup:
    @pytest.mark.asyncio
    async def test_pooled_farm_workers_inherit_the_store(self, tmp_path):
        store, serial = _store_of_another_app(tmp_path)
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=2, store=store)
        async with farm:
            parent = _table_sizes()
            assert parent["point_results"] == 2
            assert farm.pools.acquire().apply(_table_sizes) == parent
            responses = await (
                await farm.submit([("sumrows", r.point) for r in serial])
            ).gather()
        assert [r.status for r in responses] == ["evaluated"] * len(serial)
        assert [r.result for r in responses] == serial

    @pytest.mark.asyncio
    async def test_workers_inherit_each_tables_recency_order(self, tmp_path):
        """A worker evicts in the order its parent would: the store loads
        oldest first, and a lookup in the parent refreshes an entry."""
        store, _ = _store_of_another_app(tmp_path, evaluations=3)
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=2, store=store)
        async with farm:
            loaded = _table_keys("point_results")
            assert len(loaded) == 3
            assert ANALYSIS_CACHE.get("point_results", loaded[0]) is not None
            parent = _table_keys("point_results")
            assert parent == loaded[1:] + loaded[:1]
            assert farm.pools.acquire().apply(_table_keys, ("point_results",)) == parent

    @pytest.mark.asyncio
    async def test_the_pool_forks_when_first_acquired(self, tmp_path):
        """Entries the parent gains after ``start()`` but before the first
        acquire reach the workers; later acquires reuse that pool."""
        store, _ = _store_of_another_app(tmp_path)
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=2, store=store)
        async with farm:
            ANALYSIS_CACHE.put("after_start", "key", "value")
            parent = _table_sizes()
            assert parent["after_start"] == 1 and parent["point_results"] == 2
            pool = farm.pools.acquire()
            assert pool.apply(_table_sizes) == parent
            assert farm.pools.acquire() is pool

    @pytest.mark.asyncio
    @pytest.mark.parametrize("damage", ["missing", "corrupt"])
    async def test_unreadable_store_starts_workers_cold(self, tmp_path, damage):
        """Without a readable store the workers start from the parent's empty
        cache, compute the same results, and the farm writes a clean store
        at close that serves every point to the next farm."""
        store, serial = _store_of_another_app(tmp_path)
        if damage == "missing":
            store.unlink()
        else:
            store.write_bytes(b"not a store")
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=2, store=store)
        points = [("sumrows", r.point) for r in serial]
        if damage == "corrupt":
            with pytest.warns(RuntimeWarning, match="failed validation"):
                await farm.start()
        else:
            await farm.start()
        try:
            assert "point_results" not in _table_sizes()
            assert farm.pools.acquire().apply(_table_sizes) == _table_sizes()
            responses = await (await farm.submit(points)).gather()
        finally:
            await farm.aclose()
        assert [r.status for r in responses] == ["evaluated"] * len(serial)
        assert [r.result for r in responses] == serial

        ANALYSIS_CACHE.clear()
        again = CompileFarm(["sumrows"], sizes=SIZES, workers=2, store=store)
        async with again:
            cached = await (await again.submit(points)).gather()
        assert [r.status for r in cached] == ["cached"] * len(serial)
        assert [r.result for r in cached] == serial
        assert again.stats.scheduled == 0


class TestWorkerWarmupWithoutFork:
    @pytest.mark.asyncio
    async def test_spawned_workers_start_cold_and_compute_the_same_results(
        self, tmp_path, monkeypatch
    ):
        """Where fork does not exist, the pool's workers start with an empty
        cache while the parent holds the store, and results do not change."""
        store, serial = _store_of_another_app(tmp_path)
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(farm_module, "pool_context", lambda: spawn)
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=2, store=store)
        async with farm:
            assert _table_sizes()["point_results"] == 2
            assert "point_results" not in farm.pools.acquire().apply(_table_sizes)
            responses = await (
                await farm.submit([("sumrows", r.point) for r in serial])
            ).gather()
        assert [r.status for r in responses] == ["evaluated"] * len(serial)
        assert [r.result for r in responses] == serial


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

    def test_evaluate_raises_for_a_response_without_a_result(self, monkeypatch):
        """Failed evaluations come back as results; a response with none (a
        cancelled one) must not shift the explorer's results out of line."""
        point = GOOD
        cancelled = CompileResponse(
            "r0", "sumrows", point, "cancelled", error="evaluation cancelled before completion"
        )
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
        with SyncClient(farm) as client:
            monkeypatch.setattr(client, "submit", lambda requests: [cancelled])
            with pytest.raises(FarmError, match=r"r0 for sumrows returned no result \(cancelled\)"):
                client.evaluate([("sumrows", point)])

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
    async def test_session_memo_is_reported(self):
        """Inline evaluation keeps one state per configuration: two
        configurations, three and two pars, miss the memo twice."""
        points = _points() + [
            DesignPoint.make(tile_sizes={"m": 128, "n": 64}, par=par) for par in (1, 2)
        ]
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
        async with farm:
            await (await farm.submit([("sumrows", p) for p in points])).gather()
            memo = farm.cache_metrics()["config_state"]
        assert memo["misses"] == memo["entries"] == 2
        assert memo["hits"] == len(points) - 2
        assert memo["evictions"] == 0
        assert farm.stats.cache["config_state"] == memo

    @pytest.mark.asyncio
    async def test_as_dict_stays_flat_for_supervision_merge(self):
        farm = CompileFarm(["sumrows"], sizes=SIZES, workers=1)
        async with farm:
            await (await farm.submit([("sumrows", _points()[0])])).gather()
        flat = farm.stats.as_dict()
        assert all(isinstance(value, int) for value in flat.values())
        assert "cache" not in flat
