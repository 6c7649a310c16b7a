"""The exploration engine: pruning, evaluation, Pareto ranking, cache parity."""

import multiprocessing
import pickle
from dataclasses import astuple

import numpy as np
import pytest

from repro.apps import all_benchmarks, get_benchmark
from repro.pipeline import Session
from repro.dse.cache import ANALYSIS_CACHE
from repro.dse.engine import (
    PointLedger,
    PointResult,
    evaluate_config,
    evaluate_point,
    explore,
    pareto_front,
    pool_context,
)
from repro.dse.space import DesignPoint, DesignSpace, default_space
from repro.pipeline.session import CompilerSession
from repro.sim.model import PerformanceModel
from repro.target.device import DEFAULT_BOARD, Board, MemorySpec

SIZES = {"m": 256, "n": 256, "p": 256}


@pytest.fixture(autouse=True)
def _fresh_cache():
    ANALYSIS_CACHE.clear()
    yield
    ANALYSIS_CACHE.clear()


def _table_sizes():
    """Pool-task probe: this process's analysis-cache entries per table."""
    return {
        name: counts["entries"]
        for name, counts in ANALYSIS_CACHE.stats().items()
        if counts["entries"]
    }


def _small_space():
    space = DesignSpace()
    space.add(DesignPoint.make(None, par=16))
    for tiles in ({"m": 64, "n": 64, "p": 64}, {"m": 64, "n": 64, "p": 128}):
        for meta in (False, True):
            space.add(DesignPoint.make(tiles, par=16, metapipelining=meta))
    return space


class TestEvaluatePoint:
    def test_point_result_carries_cycles_and_area(self):
        bench = get_benchmark("gemm")
        bindings = bench.bindings(SIZES, np.random.default_rng(0))
        program = bench.build()
        result = evaluate_point(program, bindings, DesignPoint.make({"m": 64}, par=16))
        assert result.cycles > 0 and result.seconds > 0
        assert result.logic > 0 and result.bram_bits > 0
        assert set(result.utilization) == {"logic", "ffs", "bram", "dsps"}

    def test_compile_point_matches_compile_config(self):
        bench = get_benchmark("sumrows")
        bindings = bench.bindings({"m": 1024, "n": 128}, np.random.default_rng(0))
        program = bench.build()
        point = DesignPoint.make({"m": 128}, par=8, metapipelining=True)
        via_point = Session().compile_point(program, point, bindings)
        via_config = evaluate_config(
            program, point.config(), bindings, par=point.par
        ).compilation
        assert via_point.area.total.logic == via_config.area.total.logic
        assert via_point.design.main_memory_read_bytes == via_config.design.main_memory_read_bytes

    def test_cycle_model_keys_memoised_results_separately(self):
        bench = get_benchmark("sumrows")
        bindings = bench.bindings({"m": 1024, "n": 128}, np.random.default_rng(0))
        program = bench.build()
        point = DesignPoint.make({"m": 128}, par=8, metapipelining=True)
        analytical = evaluate_point(program, bindings, point)
        event = evaluate_point(program, bindings, point, cycle_model="event")
        # Metapipelined sumrows stalls on the double buffer in the event
        # model, so the two backends disagree — and each result must come
        # from its own cache entry, not shadow the other's.
        assert analytical.cycles != event.cycles
        assert evaluate_point(program, bindings, point).cycles == analytical.cycles
        assert (
            evaluate_point(program, bindings, point, cycle_model="event").cycles
            == event.cycles
        )

    def test_channel_counts_key_memoised_results_separately(self):
        bench = get_benchmark("outerprod")
        bindings = bench.bindings({"m": 1024, "n": 1024}, np.random.default_rng(0))
        program = bench.build()
        base = DesignPoint.make({"m": 256, "n": 256}, par=16, metapipelining=True)
        wide = DesignPoint.make(
            {"m": 256, "n": 256}, par=16, metapipelining=True, dram_channels=2
        )
        one = evaluate_point(program, bindings, base, cycle_model="event")
        two = evaluate_point(program, bindings, wide, cycle_model="event")
        # outerprod's two tile loads contend on a single channel; the
        # second channel removes that serialization, so the counts differ —
        # and each point must hit its own memo entry.
        assert two.cycles < one.cycles
        assert (
            evaluate_point(program, bindings, base, cycle_model="event").cycles
            == one.cycles
        )
        assert (
            evaluate_point(program, bindings, wide, cycle_model="event").cycles
            == two.cycles
        )

    def test_channel_gene_is_inert_under_the_analytical_model(self):
        # The analytical closed forms have no channel timeline: a ch2 point
        # must report the same cycles as the ch1 point (only the event
        # reference reacts to the gene).
        bench = get_benchmark("sumrows")
        bindings = bench.bindings({"m": 1024, "n": 128}, np.random.default_rng(0))
        program = bench.build()
        base = DesignPoint.make({"m": 128}, par=8, metapipelining=True)
        wide = DesignPoint.make(
            {"m": 128}, par=8, metapipelining=True, dram_channels=2
        )
        assert (
            evaluate_point(program, bindings, base).cycles
            == evaluate_point(program, bindings, wide).cycles
        )

    def test_explore_with_event_cycle_model(self):
        result = explore(
            "sumrows",
            sizes={"m": 1024, "n": 128},
            space=_small_space_sumrows(),
            prune=False,
            cycle_model="event",
        )
        assert result.evaluated
        assert all(r.cycles > 0 for r in result.evaluated)


def _small_space_sumrows():
    space = DesignSpace()
    space.add(DesignPoint.make(None, par=8))
    space.add(DesignPoint.make({"m": 128}, par=8))
    space.add(DesignPoint.make({"m": 128}, par=8, metapipelining=True))
    return space


class TestExplore:
    def test_explore_returns_ranked_results(self):
        result = explore("gemm", sizes=SIZES, space=_small_space())
        assert result.benchmark == "gemm"
        assert len(result.evaluated) == len(_small_space())
        pareto = result.pareto
        assert pareto
        cycles = [r.cycles for r in pareto]
        assert cycles == sorted(cycles)
        # The front trades area for speed: areas decrease as cycles increase.
        utils = [r.max_utilization for r in pareto]
        assert utils == sorted(utils, reverse=True)
        assert result.best in result.evaluated
        assert "DSE gemm" in result.summary()

    def test_prune_skips_infeasible_points_before_compiling(self):
        space = DesignSpace()
        space.add(DesignPoint.make({"m": 64, "n": 64, "p": 64}, par=16))
        space.add(DesignPoint.make({"m": 256, "n": 256, "p": 256}, par=1 << 12, metapipelining=True))
        result = explore("gemm", sizes=SIZES, space=space)
        assert len(result.pruned) == 1
        assert result.pruned[0].pruned and result.pruned[0].prune_reason
        assert len(result.evaluated) == 1

    def test_memoized_numbers_match_the_uncached_path(self):
        space = _small_space()
        cold = explore("gemm", sizes=SIZES, space=space, memoize=False, prune=False)
        ANALYSIS_CACHE.clear()
        warm = explore("gemm", sizes=SIZES, space=space, memoize=True, prune=False)
        warm_again = explore("gemm", sizes=SIZES, space=space, memoize=True, prune=False)
        for a, b, c in zip(cold.evaluated, warm.evaluated, warm_again.evaluated):
            assert a.point == b.point == c.point
            assert a.cycles == b.cycles == c.cycles
            assert a.logic == b.logic == c.logic
            assert a.bram_bits == b.bram_bits == c.bram_bits
            assert a.read_bytes == b.read_bytes == c.read_bytes

    def test_worker_pool_matches_serial_results(self):
        space = _small_space()
        serial = explore("gemm", sizes=SIZES, space=space)
        ANALYSIS_CACHE.clear()
        parallel = explore("gemm", sizes=SIZES, space=space, workers=2)
        assert parallel.workers >= 1
        serial_map = {r.label: r for r in serial.evaluated}
        for result in parallel.evaluated:
            assert result.cycles == serial_map[result.label].cycles
            assert result.logic == serial_map[result.label].logic

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="pool workers inherit the parent's cache through fork",
    )
    def test_worker_pool_inherits_the_parent_cache(self, monkeypatch):
        """The pool forks from the parent as its cache stands when the pool
        is made: another app's memoised entries reach every worker."""
        import repro.dse.engine as engine

        space = _small_space()
        serial = explore("gemm", sizes=SIZES, space=space)
        ANALYSIS_CACHE.clear()
        explore("sumrows", sizes={"m": 1024, "n": 64}, max_evaluations=3)

        probes = []

        class ProbedContext:
            def Pool(self, *args, **kwargs):
                parent = _table_sizes()
                pool = pool_context().Pool(*args, **kwargs)
                probes.append((parent, pool.apply(_table_sizes)))
                return pool

        monkeypatch.setattr(engine, "pool_context", ProbedContext)
        parallel = explore("gemm", sizes=SIZES, space=space, workers=2)
        [(parent, worker)] = probes
        assert parent["point_results"] == 3
        assert worker == parent
        assert parallel.evaluated == serial.evaluated

    def test_default_space_is_used_when_none_given(self):
        result = explore("sumrows", sizes={"m": 4096, "n": 256})
        assert len(result.evaluated) + len(result.pruned) > 0


class TestPointLedger:
    @pytest.mark.parametrize(
        "name, sizes, point, cycle_model, digest",
        [
            (
                "sumrows",
                {"m": 1024, "n": 128},
                DesignPoint.make({"m": 128}, par=8, metapipelining=True),
                "analytical",
                "f1fe0387284da8f8adc32b585ebcd5d4",
            ),
            (
                "gemm",
                SIZES,
                DesignPoint.make(
                    {"m": 64, "n": 64, "p": 64},
                    par=16,
                    metapipelining=True,
                    pipeline="rewrite",
                    dram_channels=2,
                ),
                "event",
                "a7d1476c95cfdd101e46c908c7358bc7",
            ),
        ],
    )
    @pytest.mark.parametrize(
        "inputs",
        [
            lambda bench, sizes: bench.bindings(sizes, np.random.default_rng(0)),
            lambda bench, sizes: bench.workload(sizes),
        ],
        ids=["bindings", "workload"],
    )
    def test_journal_digest_bytes_are_pinned(
        self, name, sizes, point, cycle_model, digest, inputs
    ):
        """Journals written by earlier runs replay only while their digests
        match: the digest bytes (and so the key they hash) may only change
        on purpose — with generated arrays or with shape-only stand-ins
        bound."""
        bench = get_benchmark(name)
        program = bench.build()
        bindings = inputs(bench, sizes)
        ref = PointLedger(CompilerSession()).locate(program, bindings, point, cycle_model)
        assert ref.digest.hex() == digest
        # The ledger keys exactly what evaluate_point memoises.
        evaluate_point(program, bindings, point, cycle_model=cycle_model)
        assert ref.key in ANALYSIS_CACHE.table("point_results")

    def _locate(self, point, board=DEFAULT_BOARD, model=None, cycle_model="analytical"):
        bench = get_benchmark("sumrows")
        ledger = PointLedger(CompilerSession(board=board), model=model)
        return ledger.locate(
            bench.build(), bench.workload({"m": 1024, "n": 128}), point, cycle_model
        )

    def test_equal_boards_and_models_give_identical_keys(self):
        point = DesignPoint.make({"m": 128}, par=8, metapipelining=True)

        def make():
            board = Board(name="wide", memory=MemorySpec(burst_bytes=512))
            return board, PerformanceModel(pipeline_fill=30)

        (board, model), (twin_board, twin_model) = make(), make()
        assert board == twin_board and board is not twin_board
        assert model == twin_model and model is not twin_model
        ref = self._locate(point, board, model)
        assert self._locate(point, twin_board, twin_model) == ref
        # The key embeds exactly the dataclass tuples it always did.
        assert ref.key[-2:] == (astuple(board), astuple(model))
        other = self._locate(point, board, PerformanceModel(pipeline_fill=31))
        assert other.key != ref.key and other.digest != ref.digest

    def test_channel_gene_separates_keys(self):
        one = DesignPoint.make({"m": 128}, par=8, metapipelining=True)
        two = DesignPoint.make({"m": 128}, par=8, metapipelining=True, dram_channels=2)
        ref_one = self._locate(one, cycle_model="event")
        ref_two = self._locate(two, cycle_model="event")
        assert ref_two.key != ref_one.key and ref_two.digest != ref_one.digest
        assert ref_one.key[-1] == ()
        assert ref_two.key[-1] == astuple(PerformanceModel(dram_channels=2))
        # Each lookup folds the gene into a fresh model; the key is stable.
        assert self._locate(two, cycle_model="event") == ref_two

    def test_digest_survives_a_pickle_round_trip(self):
        """A point that crossed a process or a socket shares no objects with
        the program its key is built against, yet digests as it did."""
        ledger = PointLedger(CompilerSession())
        checked = 0
        for bench in all_benchmarks():
            program, workload = bench.build(), bench.workload(bench.test_sizes)
            dims = {name: bench.test_sizes[name] for name in bench.tile_sizes}
            for point in default_space(dims, pipelines=("default", "rewrite")):
                copy = pickle.loads(pickle.dumps(point))
                ref = ledger.locate(program, workload, point, "analytical")
                assert ledger.locate(program, workload, copy, "analytical") == ref
                checked += 1
        assert checked == 176


class TestParetoFront:
    def _result(self, cycles, util):
        return PointResult(
            point=DesignPoint.make({"n": int(cycles)}),
            cycles=cycles,
            utilization={"logic": util},
        )

    def test_dominated_points_are_dropped(self):
        fast_big = self._result(100, 0.9)
        slow_small = self._result(200, 0.1)
        dominated = self._result(300, 0.5)  # slower and bigger than slow_small? no -
        # dominated by nothing on area, but slower than slow_small at higher util.
        front = pareto_front([fast_big, slow_small, dominated])
        assert fast_big in front and slow_small in front
        assert dominated not in front

    def test_single_point_is_its_own_front(self):
        only = self._result(10, 0.5)
        assert pareto_front([only]) == [only]


class TestPipelineVariantSweep:
    """The pipeline gene flows from the space through evaluation."""

    def test_explore_evaluates_pipeline_variants(self):
        from repro.dse.space import DesignSpace

        points = [
            DesignPoint.make({"m": 64, "n": 64, "p": 64}, par=8),
            DesignPoint.make({"m": 64, "n": 64, "p": 64}, par=8, pipeline="no-fusion"),
            DesignPoint.make({"m": 64, "n": 64, "p": 64}, par=8, pipeline="no-cse"),
        ]
        result = explore(
            "gemm", sizes=SIZES, space=DesignSpace().extend(points), prune=False
        )
        assert {r.point.pipeline for r in result.evaluated} == {
            "default",
            "no-fusion",
            "no-cse",
        }
        assert all(r.cycles > 0 for r in result.evaluated)

    def test_variant_points_memoise_under_distinct_keys(self):
        bench = get_benchmark("gemm")
        bindings = bench.bindings(SIZES, np.random.default_rng(0))
        program = bench.build()
        default = evaluate_point(
            program, bindings, DesignPoint.make({"m": 64}, par=8)
        )
        variant = evaluate_point(
            program, bindings, DesignPoint.make({"m": 64}, par=8, pipeline="no-cse")
        )
        table = ANALYSIS_CACHE.table("point_results")
        assert len(table) == 2
        assert default.cycles > 0 and variant.cycles > 0

    def test_unknown_variant_raises(self):
        bench = get_benchmark("gemm")
        bindings = bench.bindings(SIZES, np.random.default_rng(0))
        program = bench.build()
        point = DesignPoint.make({"m": 64}, par=4, pipeline="test-gone")
        with pytest.raises(ValueError, match="test-gone"):
            evaluate_point(program, bindings, point)
        with ANALYSIS_CACHE.disabled(), pytest.raises(ValueError, match="test-gone"):
            evaluate_point(program, bindings, point)
