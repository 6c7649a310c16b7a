"""Analytical-vs-event backend semantics and cross-benchmark parity."""

import numpy as np
import pytest

from repro.apps import all_benchmarks
from repro.config import BASELINE, CompileConfig
from repro.errors import SimulationError
from repro.evaluation.figure7 import run_benchmark
from repro.hw.controllers import (
    MetapipelineController,
    ParallelController,
    SequentialController,
)
from repro.hw.design import HardwareDesign
from repro.hw.templates import TileLoad, VectorUnit
from repro.pipeline import Session
from repro.schedule import (
    DEFAULT_TOLERANCE,
    UNCALIBRATED_TOLERANCE,
    calibrate_model,
    compare_backends,
    get_backend,
)
from repro.schedule.event import EventScheduleBackend, _MemorySubsystem
from repro.sim.engine import simulate
from repro.sim.model import PerformanceModel
from repro.target.device import DEFAULT_BOARD

SIZES = {
    "outerprod": {"m": 2048, "n": 2048},
    "sumrows": {"m": 4096, "n": 128},
    "gemm": {"m": 256, "n": 256, "p": 256},
    "tpchq6": {"n": 262144},
    "gda": {"n": 4096, "d": 16},
    "kmeans": {"n": 8192, "k": 16, "d": 16},
}


def _design_with(top):
    return HardwareDesign(
        name="unit-test",
        program_name="unit",
        config=BASELINE,
        top=top,
        board=DEFAULT_BOARD,
    )


def _configs(bench):
    tiles = dict(bench.tile_sizes)
    return {
        "baseline": BASELINE,
        "tiling": CompileConfig(tiling=True, tile_sizes=tiles),
        "tiling+metapipelining": CompileConfig(
            tiling=True, metapipelining=True, tile_sizes=tiles
        ),
    }


class TestBackendSelection:
    def test_unknown_cycle_model_raises(self):
        with pytest.raises(SimulationError, match="unknown cycle model"):
            get_backend("spice")

    def test_simulation_results_carry_backend_name(self):
        top = SequentialController(
            name="seq",
            stages=[VectorUnit(name="v", lanes=1, elements=10, pipeline_depth=0)],
        )
        design = _design_with(top)
        assert simulate(design).cycle_model == "analytical"
        assert simulate(design, cycle_model="event").cycle_model == "event"

    def test_unknown_node_kind_raises_in_the_one_walk(self):
        """The backend and the rewrites' cost oracle share one walk, so both
        reject a node kind without a timing rule."""
        from dataclasses import dataclass

        from repro.schedule.analytical import AnalyticalScheduleBackend, node_cycles
        from repro.schedule.ir import Schedule, ScheduleNode, SequentialSchedule

        @dataclass
        class Unknown(ScheduleNode):
            pass

        root = SequentialSchedule(name="seq", stages=[Unknown(name="odd")])
        schedule = Schedule(name="s", program_name="p", config_label="c", root=root)
        with pytest.raises(SimulationError, match="no timing rule for schedule node Unknown"):
            AnalyticalScheduleBackend().run(schedule)
        with pytest.raises(SimulationError, match="no timing rule for schedule node Unknown"):
            node_cycles(root, DEFAULT_BOARD, PerformanceModel())


class TestBenchmarkParity:
    """The acceptance gate: event runs end-to-end on every registered
    benchmark, agreeing with the analytical backend within the documented
    raw tolerance (exactly, for designs with no pipelined overlap to
    model); calibrated knobs must reach the tightened bound."""

    @pytest.mark.parametrize(
        "bench", all_benchmarks(), ids=lambda bench: bench.name
    )
    def test_event_backend_parity_per_benchmark(self, bench):
        bindings = bench.bindings(SIZES[bench.name], np.random.default_rng(0))
        session = Session()
        for label, config in _configs(bench).items():
            result = session.compile(bench.build(), config, bindings)
            discrepancy = compare_backends(result.schedule)
            assert discrepancy.event_cycles > 0, (bench.name, label)
            if label == "tiling+metapipelining":
                # Default knobs: the raw bound (the analytical model may
                # credit overlap the single DRAM channel serializes).
                assert discrepancy.within(UNCALIBRATED_TOLERANCE), (
                    bench.name,
                    label,
                    discrepancy.ratio,
                )
            else:
                # No metapipelined overlap: the event timeline degenerates
                # to the closed forms (modulo float association).
                assert discrepancy.relative_error < 1e-6, (bench.name, label)

    @pytest.mark.parametrize("name", ["outerprod", "tpchq6"])
    def test_calibration_benchmarks_within_documented_tolerance(self, name):
        """The two benchmarks the Figure 7 calibration anchors on: raw
        agreement within the uncalibrated bound, fitted knobs within the
        tightened documented tolerance."""
        bench = next(b for b in all_benchmarks() if b.name == name)
        bindings = bench.bindings(SIZES[name], np.random.default_rng(0))
        config = _configs(bench)["tiling+metapipelining"]
        result = Session().compile(bench.build(), config, bindings)
        discrepancy = compare_backends(result.schedule)
        assert discrepancy.within(UNCALIBRATED_TOLERANCE), discrepancy.summary()
        calibration = calibrate_model([result.schedule])
        assert calibration.within(DEFAULT_TOLERANCE), calibration.summary()
        calibrated = compare_backends(
            result.schedule, analytical_model=calibration.fitted
        )
        assert calibrated.within(DEFAULT_TOLERANCE), calibrated.summary()

    @pytest.mark.parametrize(
        "name, sizes", [("outerprod", {"m": 1024, "n": 1024}), ("tpchq6", {"n": 262144})]
    )
    def test_figure7_rows_within_documented_tolerance(self, name, sizes):
        """Figure 7's own three rows (its tiles, par factors and inner par):
        each within the uncalibrated bound, and the metapipelined row's fit
        within the tightened tolerance."""
        result = run_benchmark(name, sizes=sizes)
        for row in (result.baseline, result.tiling, result.metapipelining):
            discrepancy = compare_backends(row.compilation.schedule)
            assert discrepancy.within(UNCALIBRATED_TOLERANCE), (row.label, discrepancy.summary())
        schedule = result.metapipelining.compilation.schedule
        calibration = calibrate_model([schedule])
        assert calibration.within(DEFAULT_TOLERANCE), calibration.summary()
        calibrated = compare_backends(schedule, analytical_model=calibration.fitted)
        assert calibrated.within(DEFAULT_TOLERANCE), calibrated.summary()


class TestEventSemantics:
    def test_sequential_and_parallel_match_analytical(self):
        a = VectorUnit(name="a", lanes=1, elements=100, pipeline_depth=0)
        b = VectorUnit(name="b", lanes=1, elements=50, pipeline_depth=0)
        seq = _design_with(SequentialController(name="seq", stages=[a, b], iterations=3))
        par = _design_with(ParallelController(name="par", stages=[a, b], iterations=1))
        assert simulate(seq, cycle_model="event").cycles == pytest.approx(
            simulate(seq).cycles
        )
        assert simulate(par, cycle_model="event").cycles == pytest.approx(
            simulate(par).cycles
        )

    def test_metapipeline_overlap_beats_sequential(self):
        model = PerformanceModel(metapipeline_sync=0)
        load = VectorUnit(name="load", lanes=1, elements=10, pipeline_depth=0)
        compute = VectorUnit(name="compute", lanes=1, elements=100, pipeline_depth=0)
        meta = _design_with(
            MetapipelineController(name="meta", stages=[load, compute], iterations=10)
        )
        seq = _design_with(
            SequentialController(name="seq", stages=[load, compute], iterations=10)
        )
        meta_cycles = simulate(meta, model, cycle_model="event").cycles
        seq_cycles = simulate(seq, model, cycle_model="event").cycles
        # Steady state is set by the slowest stage, the fill by both.
        assert meta_cycles == pytest.approx(110 + 9 * 100)
        assert seq_cycles == pytest.approx(10 * 110)

    def test_backpressure_stalls_a_fast_producer(self):
        model = PerformanceModel(metapipeline_sync=0)
        producer = VectorUnit(name="producer", lanes=1, elements=10, pipeline_depth=0)
        consumer = VectorUnit(name="consumer", lanes=1, elements=100, pipeline_depth=0)
        meta = _design_with(
            MetapipelineController(
                name="meta", stages=[producer, consumer], iterations=20
            )
        )
        result = simulate(meta, model, cycle_model="event")
        # The producer finishes each tile in 10 cycles but may only run one
        # iteration ahead of the 100-cycle consumer: it stalls.
        assert result.stall_cycles > 0

    def test_concurrent_transfers_contend_for_the_channel(self):
        load_a = TileLoad(name="load_a", bytes_per_invocation=1 << 16)
        load_b = TileLoad(name="load_b", bytes_per_invocation=1 << 16)
        par = _design_with(
            ParallelController(name="par", stages=[load_a, load_b], iterations=1)
        )
        analytical = simulate(par)
        event = simulate(par, cycle_model="event")
        # Analytically the loads fully overlap (max); on the shared DRAM
        # channel they serialize.
        assert event.cycles > analytical.cycles
        assert event.contention_cycles > 0

    def test_unrolling_extrapolates_long_loops(self):
        unit = VectorUnit(name="v", lanes=1, elements=10, pipeline_depth=0)
        long_seq = _design_with(
            SequentialController(name="seq", stages=[unit], iterations=100_000)
        )
        backend = EventScheduleBackend(unroll_limit=64)
        event = backend.run(long_seq.schedule())
        assert event.cycles == pytest.approx(simulate(long_seq).cycles)
        # The aggregate accounting must cover the extrapolated tail too.
        assert event.compute_cycles == pytest.approx(event.cycles)

    def test_extrapolated_stalls_scale_with_iterations(self):
        model = PerformanceModel(metapipeline_sync=0)
        producer = VectorUnit(name="producer", lanes=1, elements=10, pipeline_depth=0)
        consumer = VectorUnit(name="consumer", lanes=1, elements=100, pipeline_depth=0)

        def stalls(iterations, unroll_limit):
            meta = _design_with(
                MetapipelineController(
                    name="meta", stages=[producer, consumer], iterations=iterations
                )
            )
            backend = EventScheduleBackend(model, unroll_limit=unroll_limit)
            return backend.run(meta.schedule()).stall_cycles

        explicit = stalls(1000, unroll_limit=2000)
        extrapolated = stalls(1000, unroll_limit=50)
        # A capped run must report stalls for the whole loop, not just the
        # explicitly simulated prefix (10% slack for the warm-up iteration).
        assert extrapolated == pytest.approx(explicit, rel=0.1)

    def test_event_per_module_accumulates_across_iterations(self):
        unit = VectorUnit(name="v", lanes=1, elements=10, pipeline_depth=0)
        seq = _design_with(SequentialController(name="seq", stages=[unit], iterations=4))
        event = simulate(seq, cycle_model="event")
        assert event.per_module_cycles["v"] == pytest.approx(40)


class TestEventAccounting:
    """Regression tests for the event model's accounting fixes: per-node
    service-time attribution and steady-state-window extrapolation."""

    def test_contention_wait_stays_out_of_per_node_cycles(self):
        """A transfer's booked busy time is its service time; the wait for
        the shared channel is contention, counted once."""
        load_a = TileLoad(name="load_a", bytes_per_invocation=1 << 16)
        load_b = TileLoad(name="load_b", bytes_per_invocation=1 << 16)
        par = _design_with(
            ParallelController(name="par", stages=[load_a, load_b], iterations=1)
        )
        event = simulate(par, cycle_model="event")
        analytical = simulate(par)
        duration = analytical.per_module_cycles["load_a"]  # closed-form service time
        # Both loads book exactly one service time each, even though one of
        # them waited a full service time for the channel.
        assert event.per_module_cycles["load_a"] == pytest.approx(duration)
        assert event.per_module_cycles["load_b"] == pytest.approx(duration)
        assert event.contention_cycles == pytest.approx(duration)
        # The split sums: makespan = both service times + the serialisation
        # wait already counted as contention (booked nowhere else).
        assert event.cycles == pytest.approx(
            event.per_module_cycles["load_a"] + event.per_module_cycles["load_b"]
        )
        assert event.memory_cycles == pytest.approx(2 * duration)

    def test_single_iteration_window_extrapolates_steady_state_not_fill(self):
        """With one explicit iteration (pure pipeline fill), the tail must
        advance at the slowest stage's period, not the fill's sum-of-stages."""
        model = PerformanceModel(metapipeline_sync=0)
        fast = VectorUnit(name="fast", lanes=1, elements=10, pipeline_depth=0)
        slow = VectorUnit(name="slow", lanes=1, elements=100, pipeline_depth=0)
        meta = _design_with(
            MetapipelineController(name="meta", stages=[fast, slow], iterations=50)
        )
        capped = EventScheduleBackend(model, unroll_limit=1).run(meta.schedule())
        exact = EventScheduleBackend(model, unroll_limit=1024).run(meta.schedule())
        # fill (110) + 49 steady iterations of the slow stage (100) = 5010;
        # the old fallback extrapolated the fill: 110 + 49*110 = 5500.
        assert capped.cycles == pytest.approx(exact.cycles)
        # Aggregate compute accounting covers the tail (every iteration
        # runs each stage exactly once, in fill and steady state alike).
        assert capped.compute_cycles == pytest.approx(exact.compute_cycles)

    def test_extrapolated_counters_use_the_steady_state_window(self):
        """Stalls accrue only after the fill; scaling them by the whole
        explicit window used to dilute the steady-state rate."""
        model = PerformanceModel(metapipeline_sync=0)
        producer = VectorUnit(name="producer", lanes=1, elements=10, pipeline_depth=0)
        consumer = VectorUnit(name="consumer", lanes=1, elements=100, pipeline_depth=0)
        meta = _design_with(
            MetapipelineController(
                name="meta", stages=[producer, consumer], iterations=4096
            )
        )
        exact = EventScheduleBackend(model, unroll_limit=8192).run(meta.schedule())
        capped = EventScheduleBackend(model, unroll_limit=16).run(meta.schedule())
        # The window-derived rate matches the fully unrolled run tightly
        # (the old whole-window average was ~6% low at this unroll limit).
        assert capped.stall_cycles == pytest.approx(exact.stall_cycles, rel=0.01)
        assert capped.cycles == pytest.approx(exact.cycles, rel=0.01)

    def test_unrolled_window_excludes_the_cold_first_iteration(self):
        """Extrapolation from a window including iteration 0 bakes the cold
        start into every extrapolated iteration; the warm-up is excluded
        whenever more than one iteration ran explicitly."""
        from types import SimpleNamespace

        backend = EventScheduleBackend(unroll_limit=4)
        backend._per_node = {}
        backend._compute_cycles = 0.0
        backend._memory_cycles = 0.0
        backend._buffer_stall_cycles = 0.0
        backend._channel = _MemorySubsystem(channels=1, interleaving="address")
        backend.stage_profiles = {}
        durations = iter([50.0] + [100.0] * 3)  # cold first round, then steady

        def round_fn(t):
            return t + next(durations)

        finish = backend._unrolled(SimpleNamespace(iterations=100), 0.0, round_fn)
        # 50 (cold) + 99 × 100 (steady, from the post-warm-up window) — the
        # old whole-window average (87.5/iter) would land at 8750.
        assert finish == pytest.approx(50.0 + 99 * 100.0)

    def test_makespan_and_counters_share_one_window(self):
        """Makespan tail and counter tail must describe the same steady
        state: for a compute-only metapipeline the extrapolated compute
        cycles track the extrapolated makespan's stage work exactly."""
        model = PerformanceModel(metapipeline_sync=0)
        a = VectorUnit(name="a", lanes=1, elements=40, pipeline_depth=0)
        b = VectorUnit(name="b", lanes=1, elements=40, pipeline_depth=0)
        meta = _design_with(
            MetapipelineController(name="meta", stages=[a, b], iterations=2000)
        )
        capped = EventScheduleBackend(model, unroll_limit=32).run(meta.schedule())
        exact = EventScheduleBackend(model, unroll_limit=4096).run(meta.schedule())
        assert capped.compute_cycles == pytest.approx(exact.compute_cycles, rel=1e-6)
        assert capped.cycles == pytest.approx(exact.cycles, rel=1e-6)


class TestCostGuards:
    """A degenerate model must fail loudly at the shared leaf-cost layer,
    not as a ZeroDivisionError from the middle of a DSE sweep."""

    def test_transfer_cycles_rejects_zero_bandwidth(self):
        from repro.schedule.costs import transfer_cycles

        model = PerformanceModel(tiled_stream_efficiency=0.0)
        with pytest.raises(SimulationError, match="tiled_stream_efficiency"):
            transfer_cycles(DEFAULT_BOARD, model, 1 << 16)

    def test_stream_cycles_rejects_zero_bandwidth(self):
        from repro.schedule.costs import stream_cycles
        from repro.schedule.ir import StreamNode

        model = PerformanceModel(baseline_stream_efficiency=0.0)
        stream = StreamNode(name="stream", total_bytes=1 << 20, requests=16.0)
        with pytest.raises(SimulationError, match="baseline_stream_efficiency"):
            stream_cycles(DEFAULT_BOARD, model, stream)

    def test_negative_efficiency_rejected_too(self):
        from repro.schedule.costs import transfer_cycles

        model = PerformanceModel(tiled_stream_efficiency=-0.5)
        with pytest.raises(SimulationError, match="cannot be priced"):
            transfer_cycles(DEFAULT_BOARD, model, 1 << 16)

    def test_zero_byte_transfers_stay_free(self):
        from repro.schedule.costs import transfer_cycles

        # The guard must not fire on the num_bytes == 0 early-out even when
        # the model is degenerate elsewhere.
        assert transfer_cycles(DEFAULT_BOARD, PerformanceModel(), 0) == 0.0


class TestStallAccounting:
    """Booked buffer stalls are a critical-path quantity: cascaded waits
    that echo the same downstream delay up the pipeline deduplicate, so
    aggregate stalls can never exceed (n_stages − 1) × makespan."""

    def test_cascaded_waits_book_once(self):
        """Two fast producers behind one slow consumer wait for the *same*
        backpressure; the booked total must reflect one wave per iteration,
        not one per waiting stage."""
        model = PerformanceModel(metapipeline_sync=0)
        fast_a = VectorUnit(name="fast_a", lanes=1, elements=10, pipeline_depth=0)
        fast_b = VectorUnit(name="fast_b", lanes=1, elements=10, pipeline_depth=0)
        slow = VectorUnit(name="slow", lanes=1, elements=100, pipeline_depth=0)
        meta = _design_with(
            MetapipelineController(
                name="meta", stages=[fast_a, fast_b, slow], iterations=50
            )
        )
        result = EventScheduleBackend(model, unroll_limit=1024).run(meta.schedule())
        # Each steady iteration both producers see the ~90-cycle wave, but
        # fast_a's wait is fast_b's wait echoed upstream — only the slow
        # stage's direct backpressure books.  One wave per steady iteration:
        assert result.stall_cycles == pytest.approx(90.0 * 48, rel=0.05)
        # The structural bound the dedup guarantees:
        assert result.stall_cycles <= 2 * result.cycles

    def test_two_stage_metapipelines_book_raw_waits(self):
        """With a single producer/consumer pair there is nothing to
        deduplicate (the last stage never waits): booked == raw."""
        model = PerformanceModel(metapipeline_sync=0)
        producer = VectorUnit(name="producer", lanes=1, elements=10, pipeline_depth=0)
        consumer = VectorUnit(name="consumer", lanes=1, elements=100, pipeline_depth=0)
        meta = _design_with(
            MetapipelineController(
                name="meta", stages=[producer, consumer], iterations=50
            )
        )
        result = EventScheduleBackend(model, unroll_limit=1024).run(meta.schedule())
        assert result.stall_cycles == pytest.approx(90.0 * 48, rel=0.05)

    @pytest.mark.parametrize("name", ["gda", "kmeans", "gemm"])
    def test_aggregate_stalls_bounded_by_stage_depth(self, name):
        """The regression the gda benchmark exposed: booked stalls of its
        tiling+metapipelining design nearly doubled its makespan.  The
        cascade dedup bounds them by (deepest metapipeline − 1) × makespan."""
        from repro.schedule.ir import MetapipelineSchedule

        bench = next(b for b in all_benchmarks() if b.name == name)
        bindings = bench.bindings(SIZES[name], np.random.default_rng(0))
        config = _configs(bench)["tiling+metapipelining"]
        schedule = Session().compile(bench.build(), config, bindings).schedule
        deepest = max(
            (len(node.stages) for node in schedule.walk()
             if isinstance(node, MetapipelineSchedule)),
            default=1,
        )
        result = EventScheduleBackend().run(schedule)
        assert result.stall_cycles <= (deepest - 1) * result.cycles, (
            f"{name}: stalls {result.stall_cycles:,.0f} exceed "
            f"({deepest} - 1) × makespan {result.cycles:,.0f}"
        )
