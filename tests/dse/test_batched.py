"""Batched design-point evaluation: bit-identity with the scalar path on
every benchmark, pipeline-variant and cycle-model coverage, vector-path
engagement, design sharing across variants and area priced once per
design, cache seeding, explore() integration, chaos determinism, and the
annealing strategy's efficiency criterion."""

from collections import Counter

import numpy as np
import pytest

from repro.apps import all_benchmarks, get_benchmark
from repro.dse.batch import _split, evaluate_point_batch
from repro.dse.cache import ANALYSIS_CACHE
from repro.dse.engine import evaluate_point, explore
from repro.dse.resilience import FaultPlan, ResiliencePolicy
from repro.dse.search import hypervolume, run_search
from repro.dse.space import DesignPoint, DesignSpace, default_space
from repro.errors import SimulationError
from repro.hw.generation import HardwareGenerator
from repro.pipeline.variants import get_pipeline, pipeline_variants
from repro.rewrite.orderings import DEFAULT_ORDERING, SCHEDULE_TRIPLE, ordering_name
from repro.schedule.event import EventScheduleBackend
from repro.sim.model import PerformanceModel

BENCH_NAMES = [bench.name for bench in all_benchmarks()]

RESULT_FIELDS = (
    "cycles",
    "seconds",
    "logic",
    "ffs",
    "bram_bits",
    "dsps",
    "read_bytes",
    "write_bytes",
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    ANALYSIS_CACHE.clear()
    yield
    ANALYSIS_CACHE.clear()


def _space_for(bench, pipeline="default"):
    """A small but structured space: baseline + tiles x par x meta."""
    return default_space(
        {name: bench.test_sizes[name] for name in bench.tile_sizes},
        pars=(4, 8),
        max_tiles_per_dim=2,
        pipelines=(pipeline,),
    )


def _assert_results_bit_identical(scalar, batched):
    assert len(scalar) == len(batched)
    for left, right in zip(scalar, batched):
        assert left.point == right.point
        for field in RESULT_FIELDS:
            assert getattr(left, field) == getattr(right, field), field
        assert left.utilization == right.utilization


class TestBitIdentity:
    @pytest.mark.parametrize("name", BENCH_NAMES)
    def test_every_benchmark_matches_the_scalar_path(self, name):
        bench = get_benchmark(name)
        program = bench.build()
        bindings = bench.bindings(rng=np.random.default_rng(3))
        points = list(_space_for(bench))
        with ANALYSIS_CACHE.disabled():
            scalar = [evaluate_point(program, bindings, p) for p in points]
            batched = evaluate_point_batch(program, bindings, points)
        _assert_results_bit_identical(scalar, batched)

    @pytest.mark.parametrize("variant", pipeline_variants())
    def test_pipeline_variants_match(self, variant):
        bench = get_benchmark("gemm")
        program = bench.build()
        bindings = bench.bindings(rng=np.random.default_rng(5))
        points = list(_space_for(bench, pipeline=variant))[:8]
        engagement = Counter()
        with ANALYSIS_CACHE.disabled():
            scalar = [evaluate_point(program, bindings, p) for p in points]
            batched = evaluate_point_batch(
                program, bindings, points, engagement=engagement
            )
        _assert_results_bit_identical(scalar, batched)
        # Every registered variant takes the vector path: no fallbacks.
        assert engagement == Counter({"vector": len(points)})

    def test_event_cycle_model_takes_the_vector_path_and_matches(self):
        bench = get_benchmark("sumrows")
        program = bench.build()
        bindings = bench.bindings(rng=np.random.default_rng(2))
        points = list(_space_for(bench))[:6]
        engagement = Counter()
        with ANALYSIS_CACHE.disabled():
            scalar = [
                evaluate_point(program, bindings, p, cycle_model="event")
                for p in points
            ]
            batched = evaluate_point_batch(
                program, bindings, points, cycle_model="event", engagement=engagement
            )
        _assert_results_bit_identical(scalar, batched)
        assert engagement == Counter({"vector": len(points)})

    def test_mixed_order_and_duplicate_configs_keep_submission_order(self):
        """Grouping by (pipeline, config) must not reorder the output."""
        bench = get_benchmark("outerprod")
        program = bench.build()
        bindings = bench.bindings(rng=np.random.default_rng(8))
        points = list(_space_for(bench))
        shuffled = list(points)
        np.random.default_rng(0).shuffle(shuffled)
        with ANALYSIS_CACHE.disabled():
            scalar = [evaluate_point(program, bindings, p) for p in shuffled]
            batched = evaluate_point_batch(program, bindings, shuffled)
        _assert_results_bit_identical(scalar, batched)

    def test_every_gene_splits_into_its_prefix_and_schedule_steps(self):
        """The batched path keeps each gene's passes before hardware
        generation and its schedule steps, for named variants and ``auto:``
        orderings with none, one or several schedule steps."""
        genes = pipeline_variants() + [
            ordering_name(DEFAULT_ORDERING + SCHEDULE_TRIPLE),
            ordering_name(("strip-mine", "tile-copies", "coalesce-transfers")),
        ]
        for gene in genes:
            passes = get_pipeline(gene).passes
            split = _split(gene)
            assert split is _split(gene)
            names = [stage.name for stage in passes]
            generate = names.index("generate-hardware")
            assert split.prefix.pass_names == names[:generate]
            assert names[generate + 1] == "build-schedule" and names[-1] == "estimate-area"
            assert [step.name for step in split.schedule_steps] == [
                stage.transformation.name for stage in passes[generate + 2 : -1]
            ]
            assert split.prefix_signature == split.prefix.signature()

    def test_unknown_pipeline_gene_raises_like_scalar(self):
        bench = get_benchmark("sumrows")
        program = bench.build()
        bindings = bench.bindings(rng=np.random.default_rng(1))
        bad = DesignPoint.make({"m": 64}, par=4, pipeline="not-a-variant")
        with pytest.raises(ValueError, match="pipeline"):
            evaluate_point_batch(program, bindings, [bad])

    @pytest.mark.parametrize(
        "knob, failing",
        [("tiled_stream_efficiency", 8), ("baseline_stream_efficiency", 4)],
    )
    def test_zero_bandwidth_raises_like_scalar(self, knob, failing):
        """A zero-bandwidth model fails the same points with the same message."""
        bench = get_benchmark("sumrows")
        program = bench.build()
        workload = bench.workload(bench.test_sizes)
        model = PerformanceModel(**{knob: 0.0})
        points = default_space({name: bench.test_sizes[name] for name in bench.tile_sizes})
        raised = 0
        for point in points:
            try:
                expected = evaluate_point(program, workload, point, model=model)
            except SimulationError as error:
                raised += 1
                with pytest.raises(SimulationError) as caught:
                    evaluate_point_batch(program, workload, [point], model=model)
                assert str(caught.value) == str(error)
                assert f"{knob}=0.0" in str(error)
            else:
                _assert_results_bit_identical(
                    [expected], evaluate_point_batch(program, workload, [point], model=model)
                )
        assert raised == failing


class TestEngagement:
    def _inputs(self, name="sumrows", seed=4):
        bench = get_benchmark(name)
        return bench, bench.build(), bench.bindings(rng=np.random.default_rng(seed))

    def test_cached_points_count_as_cached(self):
        bench, program, bindings = self._inputs()
        points = list(_space_for(bench, pipeline="rewrite"))[:5]
        first, second = Counter(), Counter()
        evaluate_point_batch(program, bindings, points, engagement=first)
        evaluate_point_batch(program, bindings, points, engagement=second)
        assert first == Counter({"vector": len(points)})
        assert second == Counter({"cached": len(points)})

    def test_designs_are_shared_across_variants(self, monkeypatch):
        bench, program, bindings = self._inputs("gemm", seed=5)
        configs = list(_space_for(bench))
        points = configs + [
            DesignPoint(p.tile_sizes, p.par, p.metapipelining, pipeline=variant)
            for variant in ("rewrite", "rewrite-profiled", "no-cse")
            for p in configs
        ]
        np.random.default_rng(1).shuffle(points)
        calls = []
        generate = HardwareGenerator.generate

        def counted(self):
            calls.append(self)
            return generate(self)

        engagement = Counter()
        with ANALYSIS_CACHE.disabled():
            scalar = [evaluate_point(program, bindings, p) for p in points]
            monkeypatch.setattr(HardwareGenerator, "generate", counted)
            batched = evaluate_point_batch(
                program, bindings, points, engagement=engagement
            )
        _assert_results_bit_identical(scalar, batched)
        assert engagement == Counter({"vector": len(points)})
        # default, rewrite and rewrite-profiled share one design per
        # configuration; no-cse has a different PPL prefix and builds its own.
        assert len(calls) == 2 * len(configs)

    def test_batched_rewrite_skips_report_only_event_runs(self, monkeypatch):
        """The rewrite stage's event cycle measurement only feeds the
        pipeline report; the batched path must never pay for it."""
        bench, program, bindings = self._inputs()
        points = list(_space_for(bench, pipeline="rewrite"))
        with ANALYSIS_CACHE.disabled():
            scalar = [evaluate_point(program, bindings, p) for p in points]

            def forbidden(self, schedule):
                raise AssertionError("event backend ran on the batched path")

            monkeypatch.setattr(EventScheduleBackend, "run", forbidden)
            batched = evaluate_point_batch(program, bindings, points)
        _assert_results_bit_identical(scalar, batched)


class TestAreaOncePerDesign:
    def test_area_is_priced_once_per_design(self, monkeypatch):
        """A ``rewrite`` point reuses its ``default`` twin's area report."""
        import repro.schedule.batched as batched

        bench = get_benchmark("gemm")
        program, workload = bench.build(), bench.workload(bench.test_sizes)
        dims = {name: bench.test_sizes[name] for name in bench.tile_sizes}
        points = list(default_space(dims, pipelines=("default", "rewrite")))
        priced = []
        real = batched.estimate_area_of_schedule

        def counted(schedule):
            priced.append(schedule)
            return real(schedule)

        monkeypatch.setattr(batched, "estimate_area_of_schedule", counted)
        engagement = Counter()
        with ANALYSIS_CACHE.disabled():
            evaluate_point_batch(program, workload, points, engagement=engagement)
        assert engagement == Counter({"vector": len(points)})
        designs = {(p.tile_sizes, p.par, p.metapipelining) for p in points}
        assert len(priced) == len(designs) == len(points) // 2


class TestCacheInteraction:
    def test_batch_seeds_point_results_for_the_scalar_path(self):
        bench = get_benchmark("sumrows")
        program = bench.build()
        bindings = bench.bindings(rng=np.random.default_rng(4))
        points = list(_space_for(bench))[:5]
        batched = evaluate_point_batch(program, bindings, points)
        assert ANALYSIS_CACHE.stats()["point_results"]["entries"] == len(points)
        # A scalar re-evaluation is served from the batch-seeded entries.
        rerun = [evaluate_point(program, bindings, p) for p in points]
        _assert_results_bit_identical(batched, rerun)
        assert ANALYSIS_CACHE.stats()["point_results"]["hits"] >= len(points)

    def test_batch_serves_prior_scalar_entries(self):
        bench = get_benchmark("sumrows")
        program = bench.build()
        bindings = bench.bindings(rng=np.random.default_rng(4))
        points = list(_space_for(bench))[:5]
        scalar = [evaluate_point(program, bindings, p) for p in points]
        before = ANALYSIS_CACHE.stats()["point_results"]["hits"]
        batched = evaluate_point_batch(program, bindings, points)
        _assert_results_bit_identical(scalar, batched)
        assert ANALYSIS_CACHE.stats()["point_results"]["hits"] == before + len(points)

    def test_returned_results_do_not_alias_cache_entries(self):
        bench = get_benchmark("sumrows")
        program = bench.build()
        bindings = bench.bindings(rng=np.random.default_rng(4))
        points = list(_space_for(bench))[:2]
        first = evaluate_point_batch(program, bindings, points)
        first[0].utilization["logic"] = -1.0
        again = evaluate_point_batch(program, bindings, points)
        assert again[0].utilization["logic"] != -1.0


class TestExploreIntegration:
    def _explore(self, **kwargs):
        return explore(
            "gemm",
            sizes={"m": 256, "n": 256, "p": 256},
            workers=1,
            seed=9,
            **kwargs,
        )

    def test_explore_bit_identical_to_per_point(self):
        explored = self._explore()
        bench = get_benchmark("gemm")
        program = bench.build()
        bindings = bench.bindings({"m": 256, "n": 256, "p": 256}, np.random.default_rng(9))
        with ANALYSIS_CACHE.disabled():
            scalar = [evaluate_point(program, bindings, r.point) for r in explored.evaluated]
        _assert_results_bit_identical(scalar, explored.evaluated)

    def test_explore_reports_batch_engagement_totals(self):
        bench = get_benchmark("gemm")
        space = DesignSpace()
        for pipeline in ("default", "rewrite"):
            space.extend(_space_for(bench, pipeline=pipeline))
        first = self._explore(space=space)
        assert first.batch_engagement == {"vector": len(space)}
        rerun = self._explore(space=space)
        assert rerun.batch_engagement == {"cached": len(space)}
        # Batched evaluations count as supervised evaluations.
        assert first.supervision["evaluations"] == len(space)
        assert rerun.supervision["evaluations"] == len(space)

    @pytest.mark.parametrize("batch_eval", [None, True, False, 0, 7])
    def test_batch_eval_is_ignored(self, batch_eval):
        space = _space_for(get_benchmark("gemm"))
        result = self._explore(space=space, batch_eval=batch_eval)
        ANALYSIS_CACHE.clear()
        reference = self._explore(space=space)
        _assert_results_bit_identical(reference.evaluated, result.evaluated)
        assert result.batch_engagement == reference.batch_engagement == {
            "vector": len(space)
        }

    def test_chaos_batched_explore_is_deterministic(self):
        """Fault-plan victims detour through per-point supervision; the
        recovered sweep must still be bit-identical to a fault-free one."""
        space = _space_for(get_benchmark("gemm"))
        plan = FaultPlan.seeded(
            {"gemm": list(space)}, seed=11, crashes=0, hangs=0, errors=2, corrupts=2, times=1
        )
        policy = ResiliencePolicy(fault_plan=plan, retries=3, backoff=0.0, timeout=60.0)
        clean = self._explore(space=space)
        ANALYSIS_CACHE.clear()
        chaotic = self._explore(space=space, resilience=policy)
        _assert_results_bit_identical(clean.evaluated, chaotic.evaluated)
        assert chaotic.supervision["retries"] > 0
        assert chaotic.supervision["recovered"] > 0


def _synthetic_result(point):
    import math

    tiles = point.tiles
    tile_m = tiles.get("m", 1)
    tile_n = tiles.get("n", 1)
    sweet = 1.0 + 0.25 * abs(math.log2(max(tile_m, 1)) - 6)
    meta_gain = 0.7 if point.metapipelining else 1.0
    baseline_penalty = 2.0 if not point.tiling else 1.0
    cycles = 1.0e6 / point.par * sweet * meta_gain * baseline_penalty
    util = 0.02 * point.par + 0.15 * math.log2(max(tile_m * tile_n, 2)) / 16.0
    from repro.dse.engine import PointResult

    return PointResult(point=point, cycles=cycles, utilization={"logic": util})


class TestAnnealingEfficiency:
    """Unbudgeted annealing reaches >= 95% of the exhaustive front's
    hypervolume and stops on its plateau before exhausting the grid."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_annealing_hypervolume_and_budget(self, seed):
        space = default_space(
            {"m": 256, "n": 256}, pars=(4, 8, 16, 32), max_tiles_per_dim=3
        )
        evaluate = lambda points: [_synthetic_result(p) for p in points]
        exhaustive = run_search("exhaustive", space, evaluate)
        reference = (
            1.05 * max(r.cycles for r in exhaustive.evaluated),
            1.05 * max(r.max_utilization for r in exhaustive.evaluated),
        )
        full = hypervolume(exhaustive.front, reference=reference)
        annealed = run_search("annealing", space, evaluate, seed=seed)
        assert annealed.evaluations < len(space)
        assert hypervolume(annealed.front, reference=reference) >= 0.95 * full
