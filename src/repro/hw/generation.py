"""Template selection, memory allocation and metapipeline analysis (Section 5).

:class:`HardwareGenerator` lowers a (possibly tiled) PPL program into a
:class:`~repro.hw.design.HardwareDesign`: a hierarchy of controllers whose
leaves are the Table 4 templates, plus the on-chip memories allocated for
tiles, accumulators and small preloaded inputs.

The generator follows the paper's flow:

* **Memory allocation** — statically sized arrays (tile copies created by the
  tiling transformation, fold accumulators that fit on chip, small input
  collections) are assigned to buffers; buffers that couple metapipeline
  stages are promoted to double buffers; non-affine accesses to main memory
  get caches.
* **Template selection** — inner patterns over scalars become vector units,
  reduction trees, FIFOs or CAMs; transformer-inserted array copies become
  tile load/store units.
* **Metapipeline analysis** — the body of every outer (tile-loop) pattern is
  scheduled into stages (tile loads, compute, accumulation, tile stores);
  with metapipelining enabled the stages execute under a
  :class:`MetapipelineController`, otherwise under a
  :class:`SequentialController`.

For the baseline configuration (no tiling) each top-level pattern becomes a
streaming kernel: a compute unit running in parallel with a
:class:`MainMemoryStream` whose traffic/request parameters come from the
access-pattern analysis — the baseline exploits pipeline parallelism and
burst-level locality but has no on-chip reuse, exactly as described in
Section 6.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.analysis.estimate import (
    AccessRecord,
    StaticEvaluator,
    count_scalar_ops,
    input_accesses,
    input_shapes,
    traffic_records,
    workload_env,
)
from repro.config import CompileConfig
from repro.dse.cache import ANALYSIS_CACHE
from repro.errors import HardwareGenerationError
from repro.hw.controllers import (
    Controller,
    MetapipelineController,
    ParallelController,
    SequentialController,
)
from repro.hw.design import HardwareDesign
from repro.hw.templates import (
    CAM,
    Buffer,
    Cache,
    HardwareModule,
    MainMemoryStream,
    ParallelFIFO,
    ReductionTree,
    ScalarPipe,
    TileLoad,
    TileStore,
    VectorUnit,
)
from repro.ppl.ir import (
    ArrayCopy,
    Expr,
    FlatMap,
    GroupByFold,
    Lambda,
    Let,
    MakeTuple,
    Map,
    MultiFold,
    Node,
    Pattern,
    Sym,
)
from repro.ppl.program import Program
from repro.ppl.traversal import walk
from repro.target.device import Board, DEFAULT_BOARD

__all__ = ["GenerationShared", "HardwareGenerator", "generate_hardware"]

WORD_BYTES = 4

# Arrays smaller than this are preloaded whole into on-chip buffers when
# tiling is enabled (the centroids of k-means, the class means of gda).
PRELOAD_LIMIT_BYTES = 1 << 20

# Baseline memory-system behaviour (Section 6.2's "locality at the level of a
# single DRAM burst"): the baseline re-issues a command stream for every
# contiguous run it touches (every matrix row / re-read), strided column
# walks waste most of each fetched burst, and data-dependent accesses behave
# like independent burst fetches.  The per-class request divisors reflect how
# much of the DRAM latency each kind of stream can overlap.
STRIDED_WASTE_FACTOR = 8
RANDOM_WASTE_FACTOR = 8
STRIDED_REQUEST_DIVISOR = 8
RANDOM_REQUEST_DIVISOR = 32
BASELINE_STREAM_BUFFER_WORDS = 4096


class GenerationShared:
    """Caches of per-program analyses reusable across many design points.

    Everything here depends only on ``(program, bindings)`` — never on the
    parallelism factor or metapipelining flag — so the batched DSE path
    builds one instance per tiled program and shares it across all the
    (par, metapipelining) points lowered from it.  Results are identical to
    recomputing from scratch; the caches only skip repeated IR walks over
    the same hash-consed nodes.  The traffic records and the preload plan
    both derive from the one walk over input accesses
    (:func:`~repro.analysis.estimate.input_accesses`).  The analyses behind
    the caches (scalar ops, traffic records, the preload plan) are also
    memoised by content in the analysis cache, so a scalar evaluation
    building a fresh instance per point still reuses them across points and
    requests.
    """

    def __init__(self, program: Program, bindings: Mapping[str, object]) -> None:
        self.program = program
        env = workload_env(program, bindings)
        self.shapes = input_shapes(program, bindings)
        # Only bound inputs (arrays or ShapeOnly stand-ins) have shapes.  An
        # unbound input's ArrayDim evaluates to None, the traffic analyses
        # see its shape as (), and it is never preloaded: it is priced as an
        # empty array, silently.
        self.evaluator = StaticEvaluator(env, self.shapes)
        self._preload_plan: Optional[Tuple[Tuple[str, int], ...]] = None
        self._ops: Dict[int, float] = {}
        self._records: Dict[int, List[AccessRecord]] = {}
        self._output_words: Dict[int, int] = {}

    def ops(self, node: Node) -> float:
        key = id(node)
        cached = self._ops.get(key)
        if cached is None:
            cached = self._ops[key] = count_scalar_ops(node, self.evaluator)
        return cached

    def traffic(self, node: Node) -> List[AccessRecord]:
        key = id(node)
        cached = self._records.get(key)
        if cached is None:
            cached = self._records[key] = traffic_records(self.program, self.evaluator, node)
        return cached

    def preload_plan(self) -> Tuple[Tuple[str, int], ...]:
        """``(array name, words)`` of inputs preloadable whole on chip.

        Memoised in the analysis cache (``preload_plan`` table) like the
        sibling per-node analyses, keyed on the body's structural hash, the
        input names in program order and the workload signature: every
        design point compiled onto one tiled program shares a single walk.
        """
        if self._preload_plan is None:
            if not ANALYSIS_CACHE.enabled:
                self._preload_plan = self._walk_preload_plan()
            else:
                key = (
                    self.program.body.structural_hash(),
                    tuple(array.name for array in self.program.inputs),
                    self.evaluator.signature(),
                )
                self._preload_plan = ANALYSIS_CACHE.memoize(
                    "preload_plan", key, self._walk_preload_plan
                )
        return self._preload_plan

    def _walk_preload_plan(self) -> Tuple[Tuple[str, int], ...]:
        copied = set()
        accessed = set()
        inputs = {array.name for array in self.program.inputs}
        for node, _loops in input_accesses(self.program.body, inputs, self.evaluator):
            (copied if isinstance(node, ArrayCopy) else accessed).add(node.array.name)
        plan: List[Tuple[str, int]] = []
        for array in self.program.inputs:
            if array.name in copied or array.name not in accessed:
                continue
            shape = self.shapes.get(array.name)
            if not shape:
                continue
            words = 1
            for dim in shape:
                words *= dim
            if words * WORD_BYTES > PRELOAD_LIMIT_BYTES:
                continue
            plan.append((array.name, words))
        return tuple(plan)

    def output_words(self, expr: Expr, compute) -> int:
        key = id(expr)
        cached = self._output_words.get(key)
        if cached is None:
            cached = self._output_words[key] = compute(expr)
        return cached


class HardwareGenerator:
    """Generates a hardware design for one program + configuration + workload."""

    def __init__(
        self,
        program: Program,
        config: CompileConfig,
        bindings: Mapping[str, object],
        board: Board = DEFAULT_BOARD,
        par: Optional[int] = None,
        shared: Optional[GenerationShared] = None,
    ) -> None:
        self.program = program
        self.config = config
        self.board = board
        self.par = par or config.default_par
        if shared is None or shared.program is not program:
            shared = GenerationShared(program, bindings)
        self.shared = shared
        self.evaluator = shared.evaluator
        self.shapes = shared.shapes

        self.memories: List[HardwareModule] = []
        self.notes: List[str] = []
        self.preloaded: set[str] = set()
        self.read_bytes = 0
        self.write_bytes = 0
        self.stored_output = False
        self._stage_counter = 0

    # ------------------------------------------------------------------ api --
    def generate(self) -> HardwareDesign:
        top = SequentialController(
            name=f"{self.program.name}_{self.config.label}", stages=[], iterations=1
        )
        if self.config.tiling:
            self._preload_small_inputs(top)
            self._emit(self.program.body, top, trips=1)
        else:
            self._emit_baseline(top)
        output_bytes = self._output_words(self.program.body) * WORD_BYTES
        if not self.stored_output and output_bytes:
            top.add(
                TileStore(
                    name="store_result",
                    bytes_per_invocation=output_bytes,
                    source=self.program.output_name(0),
                    destination="DRAM",
                )
            )
            self.write_bytes += output_bytes

        design = HardwareDesign(
            name=f"{self.program.name}-{self.config.label}",
            program_name=self.program.name,
            config=self.config,
            top=top,
            memories=self.memories,
            board=self.board,
            output_bytes=output_bytes,
            main_memory_read_bytes=self.read_bytes,
            main_memory_write_bytes=self.write_bytes,
            notes=self.notes,
        )
        return design

    # ----------------------------------------------------------- helpers --
    def _fresh(self, prefix: str) -> str:
        self._stage_counter += 1
        return f"{prefix}_{self._stage_counter}"

    def _ops(self, node: Node) -> float:
        return self.shared.ops(node)

    def _output_words(self, expr: Expr) -> int:
        return self.shared.output_words(expr, self._output_words_uncached)

    def _output_words_uncached(self, expr: Expr) -> int:
        if isinstance(expr, Let):
            return self._output_words(expr.body)
        if isinstance(expr, MakeTuple):
            return sum(self._output_words(e) for e in expr.elements)
        if isinstance(expr, Map):
            return self.evaluator.domain_elements(expr.domain)
        if isinstance(expr, MultiFold):
            words = 1
            for dim in expr.rshape:
                words *= max(1, self.evaluator.eval_or(dim, 1))
            return words
        if isinstance(expr, (FlatMap, GroupByFold)):
            return self.evaluator.domain_elements(expr.domain)
        if isinstance(expr, Sym) and expr.name in self.shapes:
            words = 1
            for dim in self.shapes[expr.name]:
                words *= dim
            return words
        return 1

    # ------------------------------------------------------ memory allocation --
    def _preload_small_inputs(self, top: SequentialController) -> None:
        """Preload whole input arrays that fit on chip and are not tiled.

        This is the memory-allocation rule behind Pipe 0 of Figure 6: the
        k-means centroids (and gda's class means) are small enough to be held
        in on-chip memory for the whole computation, eliminating their
        off-chip re-reads.

        The which-arrays-and-sizes decision is par-independent, so the plan
        is computed (and shared) on :class:`GenerationShared`; only the
        buffer banking below depends on this design point.
        """
        for name, words in self.shared.preload_plan():
            top.add(
                TileLoad(
                    name=f"preload_{name}",
                    bytes_per_invocation=words * WORD_BYTES,
                    source=name,
                    destination=f"{name}_buffer",
                )
            )
            self.memories.append(
                Buffer(
                    name=f"{name}_buffer",
                    depth_words=words,
                    banks=min(self.par, max(1, words)),
                    source=name,
                )
            )
            self.read_bytes += words * WORD_BYTES
            self.preloaded.add(name)
            self.notes.append(f"input {name} preloaded on chip ({words} words)")

    # --------------------------------------------------------- tiled designs --
    def _emit(self, expr: Expr, parent: Controller, trips: int) -> None:
        """Emit stages for ``expr`` into ``parent`` (tiled configurations)."""
        if isinstance(expr, Let):
            self._emit_binding(expr.sym.name, expr.value, parent, trips)
            self._emit(expr.body, parent, trips)
            return
        if isinstance(expr, MakeTuple):
            for element in expr.elements:
                self._emit(element, parent, trips)
            return
        if isinstance(expr, Pattern):
            self._emit_binding(self._fresh(type(expr).__name__.lower()), expr, parent, trips)
            return
        if isinstance(expr, Sym):
            return  # a previously computed Let-bound value
        ops = self._ops(expr)
        if ops:
            parent.add(ScalarPipe(name=self._fresh("scalar"), elements=1, ops_per_element=ops))

    def _emit_binding(self, name: str, value: Expr, parent: Controller, trips: int) -> None:
        if isinstance(value, ArrayCopy):
            self._emit_tile_load(name, value, parent, trips)
            return
        if isinstance(value, Pattern):
            if value.domain.is_strided:
                self._emit_tile_loop(name, value, parent, trips)
            else:
                self._emit_compute_leaf(name, value, parent, trips)
            return
        ops = self._ops(value)
        parent.add(
            ScalarPipe(name=f"{name}_pipe", elements=1, ops_per_element=max(1.0, ops))
        )

    def _emit_tile_load(self, name: str, copy: ArrayCopy, parent: Controller, trips: int) -> None:
        words = self.evaluator.copy_words(copy)
        burst = self.board.memory.burst_bytes
        bytes_per_invocation = max(burst, -(-words * WORD_BYTES // burst) * burst)
        parent.add(
            TileLoad(
                name=f"load_{name}",
                bytes_per_invocation=bytes_per_invocation,
                source=copy.array.name if isinstance(copy.array, Sym) else "array",
                destination=name,
            )
        )
        double = self.config.metapipelining and isinstance(parent, MetapipelineController)
        self.memories.append(
            Buffer(
                name=name,
                depth_words=words,
                banks=min(self.par, max(1, words)),
                double=double,
                source=copy.array.name if isinstance(copy.array, Sym) else "array",
            )
        )
        self.read_bytes += bytes_per_invocation * trips

    def _emit_tile_loop(self, name: str, pattern: Pattern, parent: Controller, trips: int) -> None:
        iterations = self.evaluator.domain_trips(pattern.domain)
        controller_cls = (
            MetapipelineController if self.config.metapipelining else SequentialController
        )
        controller = controller_cls(name=f"{name}_loop", stages=[], iterations=iterations)
        parent.add(controller)

        func = self._main_function(pattern)
        if func is not None:
            body = func.body
            if isinstance(pattern, MultiFold) and pattern.combine is not None:
                body = self._eliminate_redundant_accumulation(name, pattern, body)
            self._emit(body, controller, trips * iterations)

        self._allocate_accumulator(name, pattern)
        self._emit_per_tile_store(name, pattern, controller, trips, iterations)

        if isinstance(controller, MetapipelineController):
            for memory in self.memories:
                if isinstance(memory, Buffer) and memory.name.endswith("Tile"):
                    memory.double = True

    def _eliminate_redundant_accumulation(self, name: str, pattern: MultiFold, body: Expr) -> Expr:
        """Drop the whole-accumulator combine created by the general Table 1 rule.

        Strip mining a MultiFold produces ``tile = <inner fold>; combine(acc,
        tile)``, where the combine re-touches the entire accumulator on every
        tile iteration.  The paper's scheduler "identifies this redundancy and
        emits a single copy of the accumulator"; here the inner fold's
        reduction writes the accumulator in place, so the trailing combine
        expression is dropped from the stage list (its Let-bound inner fold is
        still emitted as the compute stage).
        """
        lets: List[Let] = []
        current = body
        while isinstance(current, Let):
            lets.append(current)
            current = current.body
        final = current
        fold_lets = [let for let in lets if isinstance(let.value, MultiFold)]
        if not fold_lets or not isinstance(final, (Map, MultiFold)):
            return body
        tile_sym = fold_lets[-1].sym
        if not any(node is tile_sym for node in walk(final) if isinstance(node, Sym)):
            return body
        self.notes.append(
            f"redundant whole-accumulator combine of {name} fused into the tile reduction"
        )
        rebuilt: Expr = tile_sym
        for let in reversed(lets):
            rebuilt = Let(let.sym, let.value, rebuilt)
        return rebuilt

    @staticmethod
    def _main_function(pattern: Pattern) -> Optional[Lambda]:
        if isinstance(pattern, MultiFold):
            return pattern.value_func
        if isinstance(pattern, (Map, FlatMap)):
            return pattern.func
        if isinstance(pattern, GroupByFold):
            return pattern.value_func
        return None

    def _allocate_accumulator(self, name: str, pattern: Pattern) -> None:
        if not isinstance(pattern, MultiFold) or pattern.combine is None:
            return
        words = 1
        for dim in pattern.rshape:
            words *= max(1, self.evaluator.eval_or(dim, 1))
        if words <= 1:
            return
        if words <= self.config.on_chip_budget_words:
            self.memories.append(
                Buffer(
                    name=f"{name}_acc",
                    depth_words=words,
                    banks=min(self.par, words),
                    double=self.config.metapipelining,
                    source=name,
                )
            )
        else:
            self.notes.append(
                f"accumulator of {name} ({words} words) exceeds the on-chip budget; kept in DRAM"
            )

    def _emit_per_tile_store(
        self,
        name: str,
        pattern: Pattern,
        controller: Controller,
        trips: int,
        iterations: int,
    ) -> None:
        """Map-derived tile loops write one output tile back to DRAM per iteration."""
        if not isinstance(pattern, MultiFold) or pattern.combine is not None:
            return
        if pattern.meta.get("tiled_from") != "Map":
            return
        total_words = 1
        for dim in pattern.rshape:
            total_words *= max(1, self.evaluator.eval_or(dim, 1))
        total_bytes = total_words * WORD_BYTES
        if total_bytes <= self.config.on_chip_budget_words * WORD_BYTES // 4:
            # Small outputs stay on chip and are stored once at the end.
            self.memories.append(
                Buffer(name=f"{name}_out", depth_words=total_words, source=name)
            )
            return
        tile_bytes = max(1, total_bytes // max(1, iterations))
        controller.add(
            TileStore(
                name=f"store_{name}",
                bytes_per_invocation=tile_bytes,
                source=name,
                destination="DRAM",
            )
        )
        self.write_bytes += tile_bytes * iterations
        self.stored_output = True
        out_words = max(1, total_words // max(1, iterations))
        self.memories.append(
            Buffer(
                name=f"{name}_outTile",
                depth_words=out_words,
                double=self.config.metapipelining,
                source=name,
            )
        )

    def _emit_compute_leaf(self, name: str, pattern: Pattern, parent: Controller, trips: int) -> None:
        ops = self._ops(pattern)
        unit: HardwareModule
        if isinstance(pattern, Map):
            unit = VectorUnit(name=f"{name}_vec", lanes=self.par, elements=ops)
        elif isinstance(pattern, MultiFold):
            unit = ReductionTree(name=f"{name}_tree", lanes=self.par, elements=ops)
        elif isinstance(pattern, FlatMap):
            unit = VectorUnit(name=f"{name}_vec", lanes=self.par, elements=ops)
            self.memories.append(
                ParallelFIFO(
                    name=f"{name}_fifo",
                    lanes=self.par,
                    depth_words=max(64, self.evaluator.domain_elements(pattern.domain)),
                )
            )
        elif isinstance(pattern, GroupByFold):
            unit = VectorUnit(name=f"{name}_vec", lanes=self.par, elements=ops)
            self.memories.append(CAM(name=f"{name}_cam", entries=256))
        else:  # pragma: no cover - defensive
            raise HardwareGenerationError(f"no template for pattern {type(pattern).__name__}")
        parent.add(unit)
        self._account_unhandled_accesses(pattern, trips)

    def _account_unhandled_accesses(self, pattern: Pattern, trips: int) -> None:
        """Count DRAM traffic of accesses not covered by tiles or preloads."""
        records = [
            record
            for record in self.shared.traffic(pattern)
            if not record.is_copy and record.array not in self.preloaded
        ]
        if not records:
            return
        arrays = sorted({record.array for record in records})
        for record in records:
            self.read_bytes += record.total_words * WORD_BYTES * trips
        for array in arrays:
            if any(r.stream == "random" for r in records if r.array == array):
                self.memories.append(
                    Cache(name=f"{array}_cache", capacity_words=4096, source=array)
                )
                self.notes.append(f"non-affine accesses to {array} served by a cache")

    # ------------------------------------------------------------- baseline --
    def _emit_baseline(self, top: SequentialController) -> None:
        """Streaming kernels: compute in parallel with DRAM streams, no reuse."""
        bindings = self._top_level_bindings(self.program.body)
        last_index = len(bindings) - 1
        for position, (name, value) in enumerate(bindings):
            records = list(self.shared.traffic(value))
            traffic_bytes, requests = self._baseline_stream(records)
            ops = self._ops(value)
            compute = self._baseline_compute_unit(name, value, ops)
            stages: List[HardwareModule] = [compute]
            store_bytes = 0
            if position == last_index:
                store_bytes = self._output_words(self.program.body) * WORD_BYTES
                traffic_bytes += store_bytes
                self.stored_output = True
                self.write_bytes += store_bytes
            if traffic_bytes:
                stages.append(
                    MainMemoryStream(
                        name=f"{name}_stream",
                        total_bytes=int(traffic_bytes),
                        requests=int(requests),
                        sequential=True,
                        source=name,
                        store_bytes=store_bytes,
                    )
                )
                self.read_bytes += int(traffic_bytes)
            kernel = ParallelController(name=f"{name}_kernel", stages=stages, iterations=1)
            top.add(kernel)
            # Each access site instantiates its own load/store control
            # structure with address and data stream FIFOs (this is why the
            # paper's kmeans baseline uses *more* BRAM than the tiled design).
            for record in records[:8]:
                self.memories.append(
                    Buffer(
                        name=f"{name}_{record.array}_streambuf_{len(self.memories)}",
                        depth_words=BASELINE_STREAM_BUFFER_WORDS,
                        source=record.array,
                    )
                )

    def _baseline_compute_unit(self, name: str, value: Expr, ops: float) -> HardwareModule:
        patterns = [p for p in walk(value) if isinstance(p, Pattern)]
        outer = patterns[0] if patterns else None
        if isinstance(outer, MultiFold):
            return ReductionTree(name=f"{name}_tree", lanes=self.par, elements=ops)
        if isinstance(outer, FlatMap):
            self.memories.append(ParallelFIFO(name=f"{name}_fifo", lanes=self.par))
            return VectorUnit(name=f"{name}_vec", lanes=self.par, elements=ops)
        if isinstance(outer, GroupByFold):
            self.memories.append(CAM(name=f"{name}_cam", entries=256))
            return VectorUnit(name=f"{name}_vec", lanes=self.par, elements=ops)
        return VectorUnit(name=f"{name}_vec", lanes=self.par, elements=ops)

    def _baseline_stream(self, records: List[AccessRecord]) -> Tuple[float, float]:
        """Total DRAM traffic (bytes) and command-stream count for the baseline.

        Sequential sites issue one command stream per contiguous run (a matrix
        row, or the whole array for rank-1 inputs); runs shorter than a burst
        still fetch a whole burst.  Strided column walks waste most of each
        burst.  Random (data-dependent) sites behave like independent burst
        fetches.  The returned ``requests`` value is the number of
        latency-exposed command streams used by the timing model.
        """
        burst = self.board.memory.burst_bytes
        burst_words = self.board.burst_words
        traffic = 0.0
        requests = 0.0
        for record in records:
            words = record.total_words
            if record.stream == "sequential":
                runs = record.runs
                run_bytes = -(-record.run_words * WORD_BYTES // burst) * burst
                traffic += runs * run_bytes
                requests += runs
            elif record.stream == "strided":
                traffic += words * WORD_BYTES * STRIDED_WASTE_FACTOR
                requests += words / burst_words / STRIDED_REQUEST_DIVISOR
            else:  # random
                traffic += words * WORD_BYTES * RANDOM_WASTE_FACTOR
                requests += words / RANDOM_REQUEST_DIVISOR
        return traffic, requests

    def _top_level_bindings(self, expr: Expr) -> List[Tuple[str, Expr]]:
        result: List[Tuple[str, Expr]] = []
        current = expr
        while isinstance(current, Let):
            result.append((current.sym.name, current.value))
            current = current.body
        if isinstance(current, MakeTuple):
            for index, element in enumerate(current.elements):
                if not isinstance(element, Sym):
                    result.append((self.program.output_name(index), element))
        elif not isinstance(current, Sym):
            result.append((self.program.output_name(0), current))
        return result


def generate_hardware(
    program: Program,
    config: CompileConfig,
    bindings: Mapping[str, object],
    board: Board = DEFAULT_BOARD,
    par: Optional[int] = None,
    shared: Optional[GenerationShared] = None,
) -> HardwareDesign:
    """Convenience wrapper building a design in one call.

    ``shared`` carries the par-independent analyses of one program across
    many design points (see :class:`GenerationShared`); omit it for
    one-shot lowering.
    """
    return HardwareGenerator(
        program, config, bindings, board=board, par=par, shared=shared
    ).generate()
