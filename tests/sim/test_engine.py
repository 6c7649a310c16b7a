"""Timing semantics of the performance simulator."""

import numpy as np
import pytest

from repro.apps import get_benchmark
from repro.pipeline import Session
from repro.config import BASELINE, CompileConfig
from repro.hw.controllers import MetapipelineController, ParallelController, SequentialController
from repro.hw.design import HardwareDesign
from repro.hw.templates import MainMemoryStream, TileLoad, VectorUnit
from repro.sim.engine import simulate
from repro.sim.metrics import speedup
from repro.sim.model import PerformanceModel
from repro.target.device import DEFAULT_BOARD


def _design_with(top):
    return HardwareDesign(
        name="unit-test",
        program_name="unit",
        config=BASELINE,
        top=top,
        board=DEFAULT_BOARD,
    )


class TestControllerTiming:
    def test_sequential_sums_stages(self):
        a = VectorUnit(name="a", lanes=1, elements=100, pipeline_depth=0)
        b = VectorUnit(name="b", lanes=1, elements=50, pipeline_depth=0)
        top = SequentialController(name="seq", stages=[a, b], iterations=2)
        result = simulate(_design_with(top))
        assert result.cycles == pytest.approx(2 * 150)

    def test_parallel_takes_max(self):
        a = VectorUnit(name="a", lanes=1, elements=100, pipeline_depth=0)
        b = VectorUnit(name="b", lanes=1, elements=50, pipeline_depth=0)
        top = ParallelController(name="par", stages=[a, b], iterations=1)
        assert simulate(_design_with(top)).cycles == pytest.approx(100)

    def test_metapipeline_throughput_set_by_slowest_stage(self):
        model = PerformanceModel(metapipeline_sync=0)
        load = VectorUnit(name="load", lanes=1, elements=10, pipeline_depth=0)
        compute = VectorUnit(name="compute", lanes=1, elements=100, pipeline_depth=0)
        meta = MetapipelineController(name="meta", stages=[load, compute], iterations=10)
        sequential = SequentialController(name="seq", stages=[load, compute], iterations=10)
        meta_cycles = simulate(_design_with(meta), model).cycles
        seq_cycles = simulate(_design_with(sequential), model).cycles
        assert meta_cycles == pytest.approx(110 + 9 * 100)
        assert seq_cycles == pytest.approx(10 * 110)
        assert meta_cycles < seq_cycles

    def test_vector_unit_scales_with_lanes(self):
        one = VectorUnit(name="v", lanes=1, elements=1000, pipeline_depth=0)
        wide = VectorUnit(name="v", lanes=10, elements=1000, pipeline_depth=0)
        assert (
            simulate(_design_with(SequentialController(name="s", stages=[wide]))).cycles
            < simulate(_design_with(SequentialController(name="s", stages=[one]))).cycles
        )

    def test_tile_load_pays_latency_plus_transfer(self):
        load = TileLoad(name="l", bytes_per_invocation=512 * 100)
        top = SequentialController(name="s", stages=[load], iterations=1)
        cycles = simulate(_design_with(top)).cycles
        assert cycles > DEFAULT_BOARD.memory.latency_cycles
        assert cycles < DEFAULT_BOARD.memory.latency_cycles + 300

    def test_baseline_stream_derated(self):
        stream = MainMemoryStream(name="m", total_bytes=512 * 1000, requests=0)
        top = SequentialController(name="s", stages=[stream])
        fast = simulate(_design_with(top), PerformanceModel(baseline_stream_efficiency=1.0)).cycles
        slow = simulate(_design_with(top), PerformanceModel(baseline_stream_efficiency=0.5)).cycles
        assert slow == pytest.approx(2 * fast)


class TestEndToEndSimulation:
    def test_speedup_of_identical_results_is_one(self):
        bench = get_benchmark("sumrows")
        bindings = bench.bindings({"m": 1024, "n": 128}, np.random.default_rng(0))
        result = Session().compile(bench.build(), BASELINE, bindings)
        sim = result.simulate()
        assert speedup(sim, sim) == 1.0

    def test_metapipelining_never_slower_than_tiling_alone(self):
        bench = get_benchmark("gda")
        bindings = bench.bindings({"n": 4096, "d": 16}, np.random.default_rng(0))
        tiles = dict(bench.tile_sizes)
        session = Session()
        tiled = session.compile(
            bench.build(), CompileConfig(tiling=True, tile_sizes=tiles), bindings
        ).simulate()
        meta = session.compile(
            bench.build(),
            CompileConfig(tiling=True, metapipelining=True, tile_sizes=tiles),
            bindings,
        ).simulate()
        assert meta.cycles <= tiled.cycles * 1.01

    def test_result_metrics(self):
        bench = get_benchmark("tpchq6")
        bindings = bench.bindings({"n": 65536}, np.random.default_rng(0))
        sim = Session().compile(bench.build(), BASELINE, bindings).simulate()
        assert sim.seconds > 0
        assert sim.bound in ("compute", "memory")
        assert "tpchq6" in sim.summary()
