"""The three benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup`, then runs
passes; a pass is the unit its user waits for and returns a
:class:`PassResult`.  :meth:`check` compares the outputs against an
independent reference after the timed passes.

* ``sweep-cold`` — the six apps at their default sizes swept exhaustively
  with ``explore(prune=False, batch_eval=True)`` over the ``default`` and
  ``rewrite`` pipelines (1,776 points), analytical cycle model, cache
  cleared before each pass.
* ``figure7-event`` — ``run_figure7`` with the event cycle model and an
  annealing DSE over ``default`` and ``rewrite-profiled``, cache cleared
  before each pass.
* ``farm-dup`` — the same 1,776 points, each requested twice in a seeded
  shuffled stream, through a ``CompileFarm`` behind a ``FarmServer`` on
  loopback, driven by one closed-loop ``RemoteClient``.  The farm
  evaluates inline (``workers=1``), so the whole stream runs in this one
  process: with a pool, three busy processes share the host's two cores,
  and identical streams varied by half with the scheduler's choices.
  A fixture prewarms the farm's store with a seeded third of the points.
  Each pass starts a fresh farm from a copy of that store.

Every pass samples the host's speed between its units of work (apps, or
farm batches): :func:`host_ref_ms` of a short loop, whose time is left out
of the pass's timings.  The benchmark scales each pass's times by
:func:`host_scale` of the mean of its own samples.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.apps import all_benchmarks, get_benchmark
from repro.dse.cache import ANALYSIS_CACHE
from repro.dse import engine
from repro.dse.resilience import ResiliencePolicy
from repro.dse.space import default_space
from repro.serve import CompileFarm
from repro.serve.net import FarmServer, RemoteClient
from repro.serve.protocol import CompileRequest
from tracer import root_span

perf_counter = time.perf_counter

SWEEP_PIPELINES = ("default", "rewrite")
FIGURE7_PIPELINES = ("default", "rewrite-profiled")
EXPECTED_FIGURE7 = Path(__file__).with_name("figure7_expected.json")

#: Result fields a reference comparison must match bit for bit.
RESULT_FIELDS = ("cycles", "logic", "ffs", "bram_bits", "read_bytes")
#: Points per run compared against scalar evaluation with the cache off.
CHECK_SAMPLE = 24
#: farm-dup: requests per batch, how many batches a repeat trails its first
#: copy by, and the farm's workers (one: inline evaluation, no pool).
FARM_BATCH = 16
FARM_REPEAT_LAG = 3
FARM_WORKERS = 1

#: The host-speed loop: ``REF_ITERATIONS`` iterations take ``NOMINAL_REF_MS``
#: on the reference host that every end-to-end time is scaled to.
REF_ITERATIONS = 200_000
NOMINAL_REF_MS = 20.0
#: Iterations of one run of the short sample taken between units of work.
SAMPLE_ITERATIONS = 10_000
#: On a shared host the program slows more than the loop does: across runs
#: on a 2-core host, pass times grew as the loop's time to the power 1.2 to
#: 1.5, and within a run 1.16 left the least spread.
HOST_EXPONENT = 1.25


def host_ref_ms(iterations: int = REF_ITERATIONS, repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop, per ``REF_ITERATIONS``."""
    times = []
    for _ in range(repeats):
        started = perf_counter()
        total = 0
        for i in range(iterations):
            total += i * i % 7
        times.append(perf_counter() - started)
    return statistics.median(times) * 1e3 * REF_ITERATIONS / iterations


def host_scale(ref_ms: float) -> float:
    """The factor taking times measured at ``ref_ms`` to the reference host."""
    return (NOMINAL_REF_MS / ref_ms) ** HOST_EXPONENT


@dataclass
class PassResult:
    seconds: float
    points: int
    failed: int = 0
    # Per request, in request order: one per app on the sweep workloads,
    # one per compile request on farm-dup.
    latencies: List[float] = field(default_factory=list)
    # farm-dup only: per-status counts, the latency of each evaluated
    # request keyed like its worker-side evaluate_point span.
    statuses: Dict[str, int] = field(default_factory=dict)
    evaluated: Dict[str, float] = field(default_factory=dict)
    supervision: Dict[str, int] = field(default_factory=dict)
    # Host-speed samples taken between units of work, in host_ref_ms units.
    host_ms: List[float] = field(default_factory=list)

    def sample_host(self) -> float:
        """Take one host-speed sample; the seconds it took."""
        started = perf_counter()
        self.host_ms.append(host_ref_ms(SAMPLE_ITERATIONS, repeats=3))
        return perf_counter() - started

    @property
    def scale(self) -> float:
        """The factor taking this pass's times to the reference host."""
        return host_scale(statistics.mean(self.host_ms))


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _same(left, right) -> bool:
    return all(getattr(left, name) == getattr(right, name) for name in RESULT_FIELDS)


def _sweep_space(bench):
    sizes = dict(bench.default_sizes)
    dims = {name: sizes[name] for name in bench.tile_sizes if name in sizes}
    return list(default_space(dims, pipelines=SWEEP_PIPELINES))


def _scalar_mismatches(seed: int, sample) -> int:
    """Compare ``(bench, point, result)`` triples to cache-free scalar runs."""
    inputs = {}
    mismatches = 0
    with ANALYSIS_CACHE.disabled():
        for name, point, result in sample:
            if name not in inputs:
                bench = get_benchmark(name)
                inputs[name] = (
                    bench.build(),
                    bench.bindings(bench.default_sizes, np.random.default_rng(seed)),
                )
            program, bindings = inputs[name]
            if not _same(engine.evaluate_point(program, bindings, point), result):
                mismatches += 1
    return mismatches


class SweepCold:
    name = "sweep-cold"

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = None
        self.last: Dict[str, list] = {}

    def setup(self) -> None:
        self.benches = all_benchmarks()
        self.spaces = {bench.name: _sweep_space(bench) for bench in self.benches}

    def run_pass(self) -> PassResult:
        ANALYSIS_CACHE.clear()
        gc.collect()
        result = PassResult(seconds=0.0, points=0)
        self.last = {}
        with root_span(self.tracer):
            started = perf_counter()
            paused = result.sample_host()
            for bench in self.benches:
                sent = perf_counter()
                # Looked up on the module, where a traced run wraps it.
                explored = engine.explore(
                    bench.name,
                    sizes=bench.default_sizes,
                    space=self.spaces[bench.name],
                    prune=False,
                    batch_eval=True,
                    seed=self.seed,
                )
                result.latencies.append(perf_counter() - sent)
                paused += result.sample_host()
                self.last[bench.name] = explored.evaluated
            result.seconds = perf_counter() - started - paused
        for evaluated in self.last.values():
            result.points += len(evaluated)
            result.failed += sum(r.failed for r in evaluated)
        return result

    def best_cycles_geomean(self) -> float:
        return _geomean(
            min(r.cycles for r in evaluated if r.max_utilization <= 1.0)
            for evaluated in self.last.values()
        )

    def check(self) -> Tuple[int, int]:
        rng = np.random.default_rng(self.seed)
        flat = [(name, r.point, r) for name, evaluated in self.last.items() for r in evaluated]
        picks = rng.choice(len(flat), size=CHECK_SAMPLE, replace=False)
        return CHECK_SAMPLE, _scalar_mismatches(self.seed, [flat[i] for i in sorted(picks)])


class Figure7Event:
    """Figure 7 inputs are the paper's fixed sizes; the seed selects nothing."""

    name = "figure7-event"

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = None
        self.mismatches = 0
        self.checked = 0
        self.last = None

    def setup(self) -> None:
        from repro.evaluation.figure7 import run_figure7

        self.run_figure7 = run_figure7
        self.expected = json.loads(EXPECTED_FIGURE7.read_text())

    def run_pass(self) -> PassResult:
        ANALYSIS_CACHE.clear()
        gc.collect()
        result = PassResult(seconds=0.0, points=0)
        self.last = []
        with root_span(self.tracer):
            started = perf_counter()
            paused = result.sample_host()
            # One app's Figure 7 row per call: the request a user waits for.
            for name in self.expected:
                sent = perf_counter()
                report = self.run_figure7(
                    benchmarks=[name],
                    cycle_model="event",
                    dse_strategy="annealing",
                    dse_pipelines=FIGURE7_PIPELINES,
                    dse_shared_pool=False,
                )
                result.latencies.append(perf_counter() - sent)
                paused += result.sample_host()
                self.last += report.results
            result.seconds = perf_counter() - started - paused
        observed = figure7_values(self.last)
        for name, values in self.expected.items():
            self.checked += 1
            self.mismatches += observed.get(name) != values
        result.points = sum(3 + row.dse_evaluations for row in self.last)
        return result

    def best_cycles_geomean(self) -> float:
        return _geomean(row.dse_best.cycles for row in self.last)

    def check(self) -> Tuple[int, int]:
        return self.checked, self.mismatches


def figure7_values(rows) -> Dict[str, dict]:
    """The recorded outputs of Figure 7 rows, per app."""
    return {
        row.name: {
            "baseline": row.baseline.simulation.cycles,
            "tiling": row.tiling.simulation.cycles,
            "tiling+metapipelining": row.metapipelining.simulation.cycles,
            "dse_best": [row.dse_best.label, row.dse_best.cycles],
        }
        for row in rows
    }


class FarmDup:
    name = "farm-dup"

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.store: Optional[Path] = None  # the prewarmed store
        self.streams = 0
        self.farm_start: List[float] = []  # seconds per farm start
        self.tracer = None
        self.mismatches = 0
        self.checked = 0
        self.last: Dict[Tuple[str, str], object] = {}

    def setup(self) -> None:
        self.benches = all_benchmarks()
        distinct = [
            (bench.name, point)
            for bench in self.benches
            for point in _sweep_space(bench)
        ]
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(len(distinct))
        # A third of every (app, pipeline) group, so each seed leaves the
        # farm the same mix of work to evaluate.
        groups: Dict[Tuple[str, str], List[int]] = {}
        for index, (name, point) in enumerate(distinct):
            groups.setdefault((name, point.pipeline), []).append(index)
        self.prewarm = sorted(
            int(index)
            for members in groups.values()
            for index in rng.choice(members, size=len(members) // 3, replace=False)
        )
        # Batch j carries new points j*h.. plus the repeats of batch
        # j - FARM_REPEAT_LAG, shuffled together.
        half = FARM_BATCH // 2
        chunks = [order[i : i + half] for i in range(0, len(order), half)]
        batches = []
        for j in range(len(chunks) + FARM_REPEAT_LAG):
            members = list(chunks[j]) if j < len(chunks) else []
            if j >= FARM_REPEAT_LAG:
                members += list(chunks[j - FARM_REPEAT_LAG])
            rng.shuffle(members)
            batches.append(members)
        self.distinct = distinct
        self.batches = [
            [
                CompileRequest(benchmark=distinct[i][0], point=distinct[i][1], request_id=f"b{j}r{k}")
                for k, i in enumerate(members)
            ]
            for j, members in enumerate(batches)
        ]

    def make_store(self) -> None:
        """The prewarm fixture: a store holding a seeded third of the points."""
        from repro.dse.batch import evaluate_point_batch

        ANALYSIS_CACHE.clear()
        by_bench: Dict[str, list] = {}
        for index in self.prewarm:
            name, point = self.distinct[index]
            by_bench.setdefault(name, []).append(point)
        for name, points in by_bench.items():
            bench = get_benchmark(name)
            bindings = bench.bindings(bench.default_sizes, np.random.default_rng(self.seed))
            evaluate_point_batch(bench.build(), bindings, points)
        store = self.work_dir / "prewarmed.pkl"
        ANALYSIS_CACHE.save_disk(store)
        ANALYSIS_CACHE.clear()
        self.store = store

    async def start_farm(self, stream_dir: Path):
        started = perf_counter()
        farm = CompileFarm(
            [bench.name for bench in self.benches],
            workers=FARM_WORKERS,
            seed=self.seed,
            store=stream_dir / "store.pkl",
            resilience=ResiliencePolicy(checkpoint=stream_dir / "journal.bin"),
        )
        await farm.start()
        farm.pools.acquire()
        server = await FarmServer(farm).start()
        client = await RemoteClient.connect(*server.address)
        self.farm_start.append(perf_counter() - started)
        return farm, server, client

    def _fresh_dir(self) -> Path:
        """A directory holding a copy of the prewarmed store, cache cleared."""
        self.streams += 1
        stream_dir = self.work_dir / f"stream-{self.streams}"
        stream_dir.mkdir()
        shutil.copyfile(self.store, stream_dir / "store.pkl")
        ANALYSIS_CACHE.clear()
        gc.collect()
        return stream_dir

    def probe_start(self) -> float:
        """Start one farm (the set-up probe); the teardown is not timed."""

        async def once():
            farm, server, client = await self.start_farm(self._fresh_dir())
            await client.aclose()
            await server.aclose()
            await farm.aclose()

        asyncio.run(once())
        return self.farm_start[-1]

    def run_pass(self) -> PassResult:
        return asyncio.run(self._stream(self._fresh_dir()))

    async def _stream(self, stream_dir: Path) -> PassResult:
        farm, server, client = await self.start_farm(stream_dir)
        result = PassResult(seconds=0.0, points=0)
        first: Dict[Tuple[str, str], object] = {}
        try:
            with root_span(self.tracer):
                started = perf_counter()
                paused = result.sample_host()
                for batch in self.batches:
                    sent = perf_counter()
                    async for response in client.stream(batch):
                        latency = perf_counter() - sent
                        result.latencies.append(latency)
                        status = response.status
                        result.statuses[status] = result.statuses.get(status, 0) + 1
                        if not response.ok:
                            result.failed += 1
                            continue
                        key = (response.benchmark, response.point.label)
                        if key not in first:
                            first[key] = response.result
                        elif not _same(first[key], response.result):
                            self.mismatches += 1
                        if status == "evaluated":
                            result.evaluated["|".join(key)] = latency
                    # Between batches the farm is idle: every answer is in.
                    paused += result.sample_host()
                result.seconds = perf_counter() - started - paused
        finally:
            await client.aclose()
            await server.aclose()
            await farm.aclose()
        result.points = len(result.latencies)
        # Admission dedup: only the points the store did not hold are
        # scheduled, once each, however often they are requested.
        self.checked += 1
        self.mismatches += farm.stats.scheduled != len(self.distinct) - len(self.prewarm)
        self.last = first
        supervision = farm.stats.supervision
        result.supervision = {
            "retries": supervision.retries,
            "timeouts": supervision.timeouts,
            "respawns": supervision.pool_respawns,
            "quarantined": supervision.quarantined,
        }
        return result

    def best_cycles_geomean(self) -> float:
        best: Dict[str, float] = {}
        for (name, _), result in self.last.items():
            if result.max_utilization <= 1.0:
                best[name] = min(best.get(name, math.inf), result.cycles)
        return _geomean(best.values())

    def check(self) -> Tuple[int, int]:
        rng = np.random.default_rng(self.seed)
        keys = sorted(self.last)
        picks = rng.choice(len(keys), size=CHECK_SAMPLE, replace=False)
        sample = [
            (keys[i][0], self.last[keys[i]].point, self.last[keys[i]]) for i in sorted(picks)
        ]
        return (
            self.checked + CHECK_SAMPLE,
            self.mismatches + _scalar_mismatches(self.seed, sample),
        )


WORKLOADS = {cls.name: cls for cls in (SweepCold, Figure7Event, FarmDup)}
