"""E7 — design-space exploration: engine wall-clock, search quality, disk cache.

Four phases over a ≥ 50-point gemm tiling/parallelism/metapipelining
space, all appended as one record to ``BENCH_dse.json``:

1. **Engine wall-clock** — the sweep three ways: *cold* (the reference
   ``evaluate_point`` loop, all caches disabled), *memoized* (``explore``:
   area pre-filter, batched evaluation, hash-consed tiling/analysis
   caches) and *parallel* (surviving points fanned across a supervised
   ``multiprocessing`` pool).  Asserts the memoized path returns
   *identical* numbers to the uncached path and the ≥ 3× speedup target.

2. **Search vs grid** — the annealing strategy against the exhaustive
   front, on the sweep space (analytical cycles) and on the same space with
   ``default``/``rewrite`` ordering and 1/2/4 DRAM-channel genes (event
   cycles): on each it must reach ≥ 95% of the exhaustive Pareto front's
   hypervolume while evaluating ≤ 40% of the points.

3. **Disk cache** — the sweep against a fresh persisted store (cold:
   full compute + save) and again from the store alone (warm: pure
   point-result hits).  Asserts the warm rerun is ≥ 3× faster.

4. **Pipeline** — per-pass instrumentation through a
   :class:`~repro.pipeline.session.CompilerSession` (wall-clock, cache
   hits, IR node deltas for every pass of the Figure 1 flow) and a sweep
   over pass-pipeline *variants* (``default`` / ``no-fusion`` /
   ``late-cleanup``) as an extra design-space axis.

The run finally refreshes the repo-level ``.dse-cache/`` store that CI
persists between workflow runs (keyed on the cache version).

``--faults`` runs the chaos phase instead: fault-free supervision
overhead — supervised ``explore`` against the bare
:func:`~repro.dse.batch.evaluate_point_batch` over the same points,
asserted < 5% — then a seeded crash/hang/error/corrupt
:class:`~repro.dse.resilience.FaultPlan` plus a corrupted disk store
through a pooled sweep, asserting bit-identical recovery within four
per-attempt timeouts of wall-clock.

``--serve`` runs the compile-farm phase instead: a mixed, deliberately
duplicated request stream over three benchmarks through one
:class:`~repro.serve.CompileFarm` (sustained points/sec, duplicate
submissions asserted to cost zero extra evaluations).

``--batch`` runs the batched-evaluation phase instead: the sweep through
a loop of scalar ``evaluate_point`` calls and through ``explore`` (whose
in-process evaluation is :func:`~repro.dse.batch.evaluate_point_batch`:
one transform-prefix run per tiling group and one design per
configuration, priced by the scalar path's own cost model), cold (caches
disabled) and warm (point results pre-seeded), asserting bit-identical
numbers and the ≥ 5× cold points/sec target.  A cold sweep of the same
space over the ``default`` and ``rewrite`` pipelines — the shape of the
repository benchmark's ``sweep-cold`` workload, whose ``rewrite`` points
reuse their ``default`` twins' designs and area — records its batched
points/sec (median of repeats).  It then sweeps every
named pipeline variant through the batched path at smoke sizes,
under the analytical cycle model and under the event model with a
2-channel DRAM gene, records each sweep's engagement counts
(``ExplorationResult.batch_engagement``, where ``vector`` counts points
the batched path evaluated) and fails if any point fell back to scalar
evaluation.

``--smoke`` shrinks the workload for CI (affects ``--faults``,
``--serve`` and ``--batch``).

Run with ``PYTHONPATH=src python benchmarks/bench_dse.py
[--faults|--serve|--batch [--smoke]]``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

from repro.apps import get_benchmark
from repro.dse.batch import evaluate_point_batch
from repro.dse.cache import ANALYSIS_CACHE, CACHE_VERSION
from repro.dse.engine import evaluate_point, explore
from repro.dse.resilience import FaultPlan, ResiliencePolicy
from repro.dse.search import area_key, hypervolume
from repro.dse.space import default_space
from repro.pipeline.variants import pipeline_variants

BENCHMARK = "gemm"
SIZES = {"m": 1024, "n": 1024, "p": 1024}
SPEEDUP_TARGET = 3.0
DISK_SPEEDUP_TARGET = 3.0
MIN_POINTS = 50
HV_TARGET = 0.95
EVAL_BUDGET_FRACTION = 0.4
#: Extra genes of the search phase's second space, which is timed under the
#: event model: the transform ordering and DRAM-channel provisioning.
EVENT_SEARCH_GENES = {"pipelines": ("default", "rewrite"), "channels": (1, 2, 4)}

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_dse.json"
CI_STORE = REPO_ROOT / ".dse-cache" / "analysis.pkl"


def _sweep_space(**genes):
    return default_space(
        {name: SIZES[name] for name in ("m", "n", "p")},
        pars=(4, 8, 16, 32),
        max_tiles_per_dim=3,
        **genes,
    )


def _disk_space():
    # The disk phase sweeps a larger space: the warm rerun's fixed costs
    # (workload generation, store load) are independent of the sweep size,
    # so the bigger the sweep, the more honestly the ratio reflects the
    # store's value on real CI sweeps.
    return default_space(
        {name: SIZES[name] for name in ("m", "n", "p")},
        pars=(4, 8, 16, 32),
        max_tiles_per_dim=4,
    )


def _workload(sizes):
    """The program and inputs ``explore`` builds for the benchmark."""
    bench = get_benchmark(BENCHMARK)
    return bench.build(), bench.bindings(sizes, np.random.default_rng(3))


def _scalar_sweep(sizes, space):
    """The reference path: ``evaluate_point`` per point, workload included."""
    program, bindings = _workload(sizes)
    return [evaluate_point(program, bindings, point) for point in space]


def run_engine_phase(space) -> dict:
    ANALYSIS_CACHE.clear()
    started = time.perf_counter()
    with ANALYSIS_CACHE.disabled():
        cold = _scalar_sweep(SIZES, space)
    t_cold = time.perf_counter() - started

    ANALYSIS_CACHE.clear()
    started = time.perf_counter()
    memoized = explore(BENCHMARK, sizes=SIZES, space=space, memoize=True, prune=True)
    t_memoized = time.perf_counter() - started

    cpus = os.cpu_count() or 1
    ANALYSIS_CACHE.clear()
    started = time.perf_counter()
    parallel = explore(
        BENCHMARK, sizes=SIZES, space=space, memoize=True, prune=True, workers=cpus
    )
    t_parallel = time.perf_counter() - started

    # The memoized path must return the same numbers as the uncached loop
    # for every point it evaluated.
    cold_by_label = {r.label: r for r in cold}
    mismatches = []
    for result in memoized.evaluated:
        reference = cold_by_label[result.label]
        if (
            result.cycles != reference.cycles
            or result.logic != reference.logic
            or result.ffs != reference.ffs
            or result.bram_bits != reference.bram_bits
            or result.read_bytes != reference.read_bytes
        ):
            mismatches.append(result.label)
    assert not mismatches, f"memoized results diverge from uncached: {mismatches[:5]}"

    speedup_memoized = t_cold / t_memoized
    speedup_parallel = t_cold / t_parallel
    best = max(speedup_memoized, speedup_parallel)

    print(
        f"[DSE sweep] {BENCHMARK} {len(space)} points: "
        f"cold {t_cold:.2f}s | memoized+pruned {t_memoized:.2f}s "
        f"({speedup_memoized:.1f}x) | parallel x{parallel.workers} {t_parallel:.2f}s "
        f"({speedup_parallel:.1f}x)"
    )
    print(f"[DSE sweep] {len(memoized.pruned)} points pruned by the area pre-filter")
    print(memoized.summary())

    assert best >= SPEEDUP_TARGET, (
        f"engine speedup {best:.2f}x below the {SPEEDUP_TARGET:.0f}x target"
    )
    return {
        "evaluated": len(memoized.evaluated),
        "pruned": len(memoized.pruned),
        "workers_parallel": parallel.workers,
        "seconds_cold": round(t_cold, 4),
        "seconds_memoized": round(t_memoized, 4),
        "seconds_parallel": round(t_parallel, 4),
        "speedup_memoized": round(speedup_memoized, 2),
        "speedup_parallel": round(speedup_parallel, 2),
        "speedup_best": round(best, 2),
        "identical_numbers": True,
        "pareto_size": len(memoized.pareto),
        "cache_stats": memoized.cache_stats,
        "exhaustive_results": memoized,  # consumed by the search phase
    }


def _search_gate(space, exhaustive, cycle_model: str) -> dict:
    """Annealing's front against one space's exhaustive front."""
    reference = (
        max(r.cycles for r in exhaustive.evaluated) * 1.05,
        max(area_key(r) for r in exhaustive.evaluated) * 1.05,
    )
    hv_grid = hypervolume(exhaustive.evaluated, reference)
    grid_evaluations = len(exhaustive.evaluated)
    ANALYSIS_CACHE.clear()
    started = time.perf_counter()
    searched = explore(
        BENCHMARK,
        sizes=SIZES,
        space=space,
        strategy="annealing",
        max_evaluations=int(EVAL_BUDGET_FRACTION * grid_evaluations),
        search_seed=1,
        cycle_model=cycle_model,
    )
    elapsed = time.perf_counter() - started
    hv = hypervolume(searched.evaluated, reference)
    fraction = len(searched.evaluated) / grid_evaluations
    quality = hv / hv_grid if hv_grid else 1.0
    print(
        f"[DSE search] annealing ({cycle_model}): {len(searched.evaluated)}/"
        f"{grid_evaluations} points ({fraction:.0%}), hypervolume "
        f"{quality:.1%} of exhaustive, {elapsed:.2f}s"
    )
    assert fraction <= EVAL_BUDGET_FRACTION + 1e-9, (
        f"annealing ({cycle_model}) evaluated {fraction:.0%} of the points "
        f"(budget {EVAL_BUDGET_FRACTION:.0%})"
    )
    assert quality >= HV_TARGET, (
        f"annealing ({cycle_model}) reached only {quality:.1%} of the "
        f"exhaustive hypervolume (target {HV_TARGET:.0%})"
    )
    return {
        "cycle_model": cycle_model,
        "grid_evaluations": grid_evaluations,
        "grid_hypervolume": hv_grid,
        "evaluations": len(searched.evaluated),
        "eval_fraction": round(fraction, 4),
        "hypervolume_fraction": round(quality, 4),
        "seconds": round(elapsed, 4),
        "pareto_size": len(searched.pareto),
    }


def run_search_phase(space, exhaustive) -> dict:
    """Annealing against the exhaustive front on two spaces: the engine
    phase's analytical sweep, and the same tiles and pars with the
    ordering and DRAM-channel genes under the event model."""
    event_space = _sweep_space(**EVENT_SEARCH_GENES)
    ANALYSIS_CACHE.clear()
    started = time.perf_counter()
    event_grid = explore(BENCHMARK, sizes=SIZES, space=event_space, cycle_model="event")
    print(
        f"[DSE search] event/channel space: {len(event_space)} points, "
        f"{len(event_grid.evaluated)} survive the prune, exhaustive sweep "
        f"{time.perf_counter() - started:.2f}s"
    )
    return {
        "eval_budget_fraction": EVAL_BUDGET_FRACTION,
        "hypervolume_target": HV_TARGET,
        "annealing": _search_gate(space, exhaustive, "analytical"),
        "annealing_event": _search_gate(event_space, event_grid, "event"),
    }


def run_disk_phase(space) -> dict:
    """Cold store write vs warm store rerun (the cross-process CI path)."""
    print(f"[DSE disk] sweeping {len(space)} points against a fresh store")
    with tempfile.TemporaryDirectory(prefix="dse-disk-") as tmp:
        store = Path(tmp) / "analysis.pkl"

        ANALYSIS_CACHE.clear()
        started = time.perf_counter()
        cold = explore(BENCHMARK, sizes=SIZES, space=space, disk_cache=store)
        t_cold = time.perf_counter() - started

        ANALYSIS_CACHE.clear()
        started = time.perf_counter()
        warm = explore(BENCHMARK, sizes=SIZES, space=space, disk_cache=store)
        t_warm = time.perf_counter() - started

        store_bytes = store.stat().st_size

    warm_by_label = {r.label: r for r in warm.evaluated}
    for result in cold.evaluated:
        twin = warm_by_label[result.label]
        assert result.cycles == twin.cycles and result.logic == twin.logic, (
            f"disk-cached result diverges for {result.label}"
        )
    hits = warm.cache_stats.get("point_results", {})
    assert hits.get("misses", 1) == 0, "warm disk rerun recompiled points"

    speedup = t_cold / t_warm
    print(
        f"[DSE disk] cold {t_cold:.2f}s (compute + save) | warm {t_warm:.3f}s "
        f"(pure store hits) | {speedup:.1f}x | store {store_bytes / 1024:.0f} KiB"
    )
    assert speedup >= DISK_SPEEDUP_TARGET, (
        f"warm disk rerun only {speedup:.2f}x faster "
        f"(target {DISK_SPEEDUP_TARGET:.0f}x)"
    )
    return {
        "seconds_disk_cold": round(t_cold, 4),
        "seconds_disk_warm": round(t_warm, 4),
        "speedup_disk_warm": round(speedup, 2),
        "store_kib": round(store_bytes / 1024, 1),
        "cache_version": CACHE_VERSION,
    }


def run_pipeline_phase() -> dict:
    """Per-pass instrumentation and the pipeline-variant design-space axis."""
    from repro.config import CompileConfig
    from repro.pipeline import Session

    bench = get_benchmark(BENCHMARK)
    config = CompileConfig(tiling=True, metapipelining=True, tile_sizes=dict(bench.tile_sizes))
    bindings = bench.bindings(SIZES, np.random.default_rng(3))

    ANALYSIS_CACHE.clear()
    session = Session()
    cold = session.compile(bench.build(), config, bindings)
    warm = session.compile(bench.build(), config, bindings)
    print(f"[DSE pipeline] cold compile through session:\n{cold.report.table()}")
    print(
        f"[DSE pipeline] warm recompile: {warm.report.cache_hits}/"
        f"{warm.report.passes_run} passes served from cache "
        f"({warm.report.total_seconds * 1e3:.2f} ms vs "
        f"{cold.report.total_seconds * 1e3:.2f} ms cold)"
    )
    assert warm.report.cache_hits >= 6, "warm recompile should hit the pass memo"

    # The pipeline variant as a search gene: sweep orderings × tiles × meta.
    variants = ("default", "no-fusion", "late-cleanup")
    space = default_space(
        {name: SIZES[name] for name in ("m", "n", "p")},
        pars=(16,),
        max_tiles_per_dim=2,
        pipelines=variants,
    )
    ANALYSIS_CACHE.clear()
    swept = explore(BENCHMARK, sizes=SIZES, space=space)
    by_variant = {}
    for variant in variants:
        candidates = [r for r in swept.evaluated if r.point.pipeline == variant]
        best = min(candidates, key=lambda r: r.cycles) if candidates else None
        if best is not None:
            by_variant[variant] = {"best_label": best.label, "cycles": best.cycles}
            print(
                f"[DSE pipeline] variant {variant:<12} best {best.label:<44} "
                f"{best.cycles:>12.0f} cycles"
            )
    assert len(by_variant) == len(variants), "every pipeline variant must be evaluated"

    return {
        "cold_ms": round(cold.report.total_seconds * 1e3, 3),
        "warm_ms": round(warm.report.total_seconds * 1e3, 3),
        "warm_cache_hits": warm.report.cache_hits,
        "passes": cold.report.as_dict()["passes"],
        "variant_sweep_points": len(swept.evaluated),
        "variants": by_variant,
    }


SUPERVISION_OVERHEAD_CEILING = 0.05  # fault-free supervision must stay < 5%
FAULTS_REPEATS = 3
CHAOS_TIMEOUT = 5.0  # the chaos run's per-attempt timeout, in seconds
#: The chaos run must finish within this many timeouts: each incident
#: costs one flat timeout, whatever its position in the batch.
CHAOS_TIMEOUT_CEILING = 4
SMOKE_SIZES = {"m": 256, "n": 256, "p": 256}


def run_faults_phase(smoke: bool) -> dict:
    """Chaos smoke: supervision overhead, seeded fault recovery, store repair.

    Asserts four things: fault-free supervision costs < 5% wall-clock over
    the bare batched evaluator; a seeded crash/hang/error/corrupt schedule plus
    a corrupted disk store still completes *bit-identical* to the fault-free
    run with nothing quarantined; the chaos run takes at most
    ``CHAOS_TIMEOUT_CEILING`` per-attempt timeouts of wall-clock; and the
    corrupted store is quarantined aside and rebuilt.
    """
    sizes = SMOKE_SIZES if smoke else SIZES
    space = default_space(
        {name: sizes[name] for name in ("m", "n", "p")},
        pars=(4, 16),
        max_tiles_per_dim=2,
    )
    print(f"[DSE faults] {BENCHMARK} {len(space)} points, sizes {sizes}")

    # -- supervision overhead, fault-free ---------------------------------
    # Every explore() is supervised; the reference is the bare batched
    # evaluator over the same points, workload generation included on
    # both sides.  Medians over repeats keep host noise out.
    def bare():
        program, bindings = _workload(sizes)
        return evaluate_point_batch(program, bindings, list(space))

    def supervised():
        return explore(
            BENCHMARK, sizes=sizes, space=space, prune=False,
            resilience=ResiliencePolicy(retries=2),
        ).evaluated

    plain, plain_times, supervised_times = None, [], []
    for _ in range(FAULTS_REPEATS):
        for sweep, times in ((bare, plain_times), (supervised, supervised_times)):
            ANALYSIS_CACHE.clear()
            started = time.perf_counter()
            evaluated = sweep()
            times.append(time.perf_counter() - started)
            if plain is None:
                plain = evaluated
            assert evaluated == plain, "supervised sweep diverged from the bare evaluator"
    t_plain = statistics.median(plain_times)
    t_supervised = statistics.median(supervised_times)

    overhead = max(0.0, t_supervised / t_plain - 1.0)
    print(
        f"[DSE faults] fault-free: bare batch {t_plain:.2f}s | supervised explore "
        f"{t_supervised:.2f}s | overhead {overhead:.1%} (medians of {FAULTS_REPEATS})"
    )
    assert overhead < SUPERVISION_OVERHEAD_CEILING, (
        f"fault-free supervision overhead {overhead:.1%} exceeds "
        f"{SUPERVISION_OVERHEAD_CEILING:.0%}"
    )

    # -- seeded chaos run against a corrupted store -----------------------
    plan = FaultPlan.seeded(
        {BENCHMARK: [r.point for r in plain]},
        seed=11, crashes=1, hangs=1, errors=1, corrupts=1, hang_seconds=60.0,
    )
    with tempfile.TemporaryDirectory(prefix="dse-faults-") as tmp:
        store = Path(tmp) / "analysis.pkl"
        store.write_bytes(b"one corrupted cache shard")
        ANALYSIS_CACHE.clear()
        started = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the quarantine note
            chaos = explore(
                BENCHMARK, sizes=sizes, space=space, prune=False, workers=2,
                disk_cache=store,
                resilience=ResiliencePolicy(
                    timeout=CHAOS_TIMEOUT, retries=2, backoff=0.01, fault_plan=plan
                ),
            )
        t_chaos = time.perf_counter() - started
        store_rebuilt = store.exists()
        shard_quarantined = store.with_name("analysis.pkl.corrupt").exists()

    assert chaos.evaluated == plain, (
        "chaos run is not bit-identical to the fault-free sweep"
    )
    assert not chaos.quarantined, (
        f"transient faults should all recover; quarantined "
        f"{[q.point.label for q in chaos.quarantined]}"
    )
    assert not chaos.interrupted
    assert shard_quarantined and store_rebuilt, "corrupt store was not repaired"
    stats = chaos.supervision
    print(
        f"[DSE faults] chaos ({len(plan)} faults) {t_chaos:.2f}s: "
        f"bit-identical, supervision {stats}"
    )
    assert stats["recovered"] >= len(plan) - 1  # the hang may exhaust its worker slot
    ceiling = CHAOS_TIMEOUT_CEILING * CHAOS_TIMEOUT
    assert t_chaos <= ceiling, (
        f"chaos run took {t_chaos:.2f}s, over {CHAOS_TIMEOUT_CEILING} x the "
        f"{CHAOS_TIMEOUT:.0f}s timeout ({ceiling:.0f}s)"
    )
    return {
        "points": len(space),
        "smoke": smoke,
        "seconds_plain": round(t_plain, 4),
        "seconds_supervised": round(t_supervised, 4),
        "supervision_overhead": round(overhead, 4),
        "overhead_ceiling": SUPERVISION_OVERHEAD_CEILING,
        "chaos": {
            "faults": len(plan),
            "seconds": round(t_chaos, 4),
            "ceiling_seconds": ceiling,
            "bit_identical": True,
            "quarantined": 0,
            "store_repaired": True,
            "supervision": stats,
        },
    }


BATCH_SPEEDUP_TARGET = 5.0


#: Pipelines of the cold sweep: the repository benchmark's sweep-cold pair.
SWEEP_PIPELINES = ("default", "rewrite")
#: Repeats of the cold sweep; the record keeps the median.
SWEEP_REPEATS = 15


def _batch_space(sizes, smoke: bool, pipelines=("default",)):
    return default_space(
        {name: sizes[name] for name in ("m", "n", "p")},
        pars=(4, 8, 16, 32),
        max_tiles_per_dim=2 if smoke else 3,
        pipelines=pipelines,
    )


def run_cold_sweep(sizes, smoke: bool) -> dict:
    """The batch phase's space over ``default`` and ``rewrite``, cold.

    As in the repository benchmark's ``sweep-cold`` workload, the analysis
    cache is cleared before each repeat and stays on, so the pass memo
    serves within a sweep, and every point must take the batched path.
    The sweep runs in this one thread, so it is timed in process CPU
    time: on an idle host that is its wall time, and on a shared one it
    leaves out the time other processes hold the cores.
    """
    space = _batch_space(sizes, smoke, SWEEP_PIPELINES)
    seconds = []
    for _ in range(SWEEP_REPEATS):
        ANALYSIS_CACHE.clear()
        started = time.process_time()
        result = explore(BENCHMARK, sizes=sizes, space=space, prune=False)
        seconds.append(time.process_time() - started)
        assert result.batch_engagement == {"vector": len(space)}, result.batch_engagement
    ANALYSIS_CACHE.clear()
    median = statistics.median(seconds)
    print(
        f"[DSE batch] cold sweep over {'/'.join(SWEEP_PIPELINES)}: {len(space)} points, "
        f"median {median:.3f} CPU s of {SWEEP_REPEATS} ({len(space) / median:.0f} pts/s)"
    )
    return {
        "points": len(space),
        "pipelines": list(SWEEP_PIPELINES),
        "repeats": SWEEP_REPEATS,
        "clock": "process_time",
        "seconds_batched": round(median, 4),
        "points_per_second_batched": round(len(space) / median, 2),
    }


def run_batch_phase(smoke: bool) -> dict:
    """Scalar vs batched point evaluation: points/sec cold and warm.

    The scalar side is a loop of ``evaluate_point`` calls, the batched side
    ``explore`` (always batched in-process).  Cold runs disable every cache
    so both paths pay full compile cost; warm runs pre-seed the
    point-result table so both paths serve pure hits.  The batched backend
    must return bit-identical numbers and hit the ≥ 5× cold throughput
    target.  The record also carries the cold ``default``/``rewrite``
    sweep (:func:`run_cold_sweep`) and each variant's engagement counts.
    """
    sizes = SMOKE_SIZES if smoke else SIZES
    space = _batch_space(sizes, smoke)
    points = len(space)
    print(f"[DSE batch] {BENCHMARK} {points} points, sizes {sizes}")
    def scalar():
        return _scalar_sweep(sizes, space)

    def batched():
        return explore(BENCHMARK, sizes=sizes, space=space, prune=False).evaluated

    def timed(sweep):
        started = time.perf_counter()
        result = sweep()
        return result, time.perf_counter() - started

    def cold(sweep):
        ANALYSIS_CACHE.clear()
        with ANALYSIS_CACHE.disabled():
            return timed(sweep)

    def warm(sweep):
        ANALYSIS_CACHE.clear()
        sweep()
        misses_before = ANALYSIS_CACHE.stats()["point_results"]["misses"]
        result = timed(sweep)
        misses_after = ANALYSIS_CACHE.stats()["point_results"]["misses"]
        assert misses_after == misses_before, "warm rerun recompiled points"
        return result

    scalar_cold, t_scalar_cold = cold(scalar)
    batched_cold, t_batched_cold = cold(batched)

    assert len(scalar_cold) == len(batched_cold) == points
    for left, right in zip(scalar_cold, batched_cold):
        assert left.point == right.point
        assert (
            left.cycles == right.cycles
            and left.logic == right.logic
            and left.ffs == right.ffs
            and left.bram_bits == right.bram_bits
            and left.read_bytes == right.read_bytes
        ), f"batched result diverges from scalar for {left.label}"

    _, t_scalar_warm = warm(scalar)
    _, t_batched_warm = warm(batched)

    speedup_cold = t_scalar_cold / t_batched_cold
    speedup_warm = t_scalar_warm / t_batched_warm
    print(
        f"[DSE batch] cold: scalar {t_scalar_cold:.2f}s "
        f"({points / t_scalar_cold:.1f} pts/s) | batched {t_batched_cold:.2f}s "
        f"({points / t_batched_cold:.1f} pts/s) | {speedup_cold:.2f}x"
    )
    print(
        f"[DSE batch] warm: scalar {t_scalar_warm:.3f}s "
        f"({points / t_scalar_warm:.0f} pts/s) | batched {t_batched_warm:.3f}s "
        f"({points / t_batched_warm:.0f} pts/s) | {speedup_warm:.2f}x"
    )
    assert speedup_cold >= BATCH_SPEEDUP_TARGET, (
        f"batched cold speedup {speedup_cold:.2f}x below the "
        f"{BATCH_SPEEDUP_TARGET:.0f}x target"
    )
    sweep = run_cold_sweep(sizes, smoke)
    engagement = run_variant_engagement()
    return {
        "points": points,
        "smoke": smoke,
        "bit_identical": True,
        "engagement": engagement,
        "sweep_cold": sweep,
        "cold": {
            "seconds_scalar": round(t_scalar_cold, 4),
            "seconds_batched": round(t_batched_cold, 4),
            "points_per_second_scalar": round(points / t_scalar_cold, 2),
            "points_per_second_batched": round(points / t_batched_cold, 2),
            "speedup": round(speedup_cold, 2),
            "speedup_target": BATCH_SPEEDUP_TARGET,
        },
        "warm": {
            "seconds_scalar": round(t_scalar_warm, 4),
            "seconds_batched": round(t_batched_warm, 4),
            "points_per_second_scalar": round(points / t_scalar_warm, 2),
            "points_per_second_batched": round(points / t_batched_warm, 2),
            "speedup": round(speedup_warm, 2),
        },
    }


def run_variant_engagement() -> dict:
    """Sweep each named variant through the batched path (cold,
    smoke sizes) and fail on any fallback to scalar evaluation.

    Each variant is swept under the analytical cycle model and again
    under the event model with a 2-channel DRAM gene beside the 1-channel
    one (keyed ``"<variant>/event"``).  Bit-identity tests cannot see a
    silent fallback — a variant that stops engaging the batched path
    still returns the right numbers, only slower — so this gate reads the
    engagement counter instead.
    """
    space_dims = {name: SMOKE_SIZES[name] for name in ("m", "n", "p")}
    engagement = {}
    for variant in pipeline_variants():
        for cycle_model, channels in (("analytical", (1,)), ("event", (1, 2))):
            space = default_space(
                space_dims,
                pars=(4, 8, 16, 32),
                max_tiles_per_dim=2,
                pipelines=(variant,),
                channels=channels,
            )
            result = explore(
                BENCHMARK,
                sizes=SMOKE_SIZES,
                space=space,
                prune=False,
                memoize=False,
                cycle_model=cycle_model,
            )
            label = variant if cycle_model == "analytical" else f"{variant}/{cycle_model}"
            counts = dict(sorted(result.batch_engagement.items()))
            print(f"[DSE batch] engagement {label}: {counts}")
            assert counts == {"vector": len(result.evaluated)}, (
                f"variant {label!r} fell back to scalar evaluation: {counts}"
            )
            engagement[label] = counts
    return engagement


SERVE_BENCHMARKS = ("gemm", "sumrows", "outerprod")
SERVE_SIZES = {
    "gemm": {"m": 256, "n": 256, "p": 256},
    "sumrows": {"m": 4096, "n": 256},
    "outerprod": {"m": 512, "n": 512},
}
SERVE_SMOKE_SIZES = {
    "gemm": {"m": 64, "n": 64, "p": 64},
    "sumrows": {"m": 1024, "n": 64},
    "outerprod": {"m": 128, "n": 128},
}


def run_serve_phase(smoke: bool) -> dict:
    """Compile-farm throughput and dedup accounting."""
    import asyncio

    from repro.serve import CompileFarm

    sizes = SERVE_SMOKE_SIZES if smoke else SERVE_SIZES
    workers = min(4, os.cpu_count() or 1)
    per_bench = 24 if smoke else 60

    # A mixed request stream: the benchmarks interleaved round-robin, then
    # the whole stream again — every request submitted exactly twice.
    per_lane = {}
    for name in SERVE_BENCHMARKS:
        bench = get_benchmark(name)
        dims = {d: sizes[name][d] for d in bench.tile_sizes}
        space = default_space(dims, max_tiles_per_dim=2, max_points=per_bench)
        per_lane[name] = list(space)
    stream = []
    for rank in range(max(len(points) for points in per_lane.values())):
        for name in SERVE_BENCHMARKS:
            if rank < len(per_lane[name]):
                stream.append((name, per_lane[name][rank]))
    requests = stream + stream
    distinct = len(stream)
    print(
        f"[DSE serve] {len(requests)} requests ({distinct} distinct points "
        f"across {len(SERVE_BENCHMARKS)} benchmarks), {workers} workers"
    )

    with tempfile.TemporaryDirectory(prefix="dse-serve-") as tmp:
        store = Path(tmp) / "analysis.pkl"

        ANALYSIS_CACHE.clear()

        async def drive():
            farm = CompileFarm(SERVE_BENCHMARKS, sizes=sizes, workers=workers, store=store)
            async with farm:
                started = time.perf_counter()
                batch = await farm.submit(requests)
                responses = await batch.gather()
                elapsed = time.perf_counter() - started
                return responses, elapsed, farm.stats

        responses, t_batch, stats = asyncio.run(drive())

        failures = [r for r in responses if not r.ok]
        assert not failures, f"farm requests failed: {failures[:3]}"
        # The load-bearing dedup accounting: the duplicated half of the
        # stream must cost zero extra evaluations.
        assert stats.scheduled == distinct, stats.as_dict()
        assert stats.supervision.evaluations == distinct, stats.as_dict()
        assert stats.coalesced + stats.cache_hits == len(requests) - distinct
        for index in range(distinct):
            first = responses[index].result
            twin = responses[distinct + index].result
            assert (
                first.cycles == twin.cycles
                and first.logic == twin.logic
                and first.bram_bits == twin.bram_bits
            ), f"duplicate diverged for {responses[index].point.label}"
        points_per_second = len(responses) / t_batch
        print(
            f"[DSE serve] batch {t_batch:.2f}s | sustained "
            f"{points_per_second:.0f} responses/s ({distinct / t_batch:.0f} "
            f"evaluated/s) | dedup: {stats.coalesced} coalesced, "
            f"{stats.cache_hits} cached, 0 extra evaluations"
        )

    return {
        "smoke": smoke,
        "benchmarks": list(SERVE_BENCHMARKS),
        "workers": workers,
        "requests": len(requests),
        "distinct_points": distinct,
        "seconds_batch": round(t_batch, 4),
        "points_per_second": round(points_per_second, 1),
        "evaluated_per_second": round(distinct / t_batch, 1),
        "duplicate_extra_evaluations": 0,
        "stats": stats.as_dict(),
    }


def refresh_ci_store(space) -> None:
    """Keep the repo-level store CI persists between runs up to date."""
    existed = CI_STORE.exists()
    explore(BENCHMARK, sizes=SIZES, space=space, disk_cache=CI_STORE)
    assert CI_STORE.exists(), "CI store refresh did not write the store"
    state = "updated" if existed else "created"
    print(f"[DSE disk] CI store {CI_STORE} {state} ({CI_STORE.stat().st_size / 1024:.0f} KiB)")


def run() -> dict:
    space = _sweep_space()
    assert len(space) >= MIN_POINTS, f"sweep has only {len(space)} points"

    engine = run_engine_phase(space)
    exhaustive = engine.pop("exhaustive_results")
    search = run_search_phase(space, exhaustive)
    disk_space = _disk_space()
    disk = run_disk_phase(disk_space)
    pipeline = run_pipeline_phase()
    refresh_ci_store(disk_space)

    record = {"benchmark": BENCHMARK, "sizes": SIZES, "points": len(space)}
    record.update(engine)
    record["search"] = search
    record["disk"] = disk
    record["pipeline"] = pipeline
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--faults",
        action="store_true",
        help="run the chaos phase: supervision overhead + seeded fault recovery",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="run the compile-farm phase: sustained points/sec + zero-cost duplicates",
    )
    parser.add_argument(
        "--batch",
        action="store_true",
        help="run the batched-evaluation phase: scalar vs batched points/sec",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="shrink the workload sizes (CI smoke; affects --faults, --serve "
        "and --batch)",
    )
    args = parser.parse_args(argv)

    if args.batch:
        record = {"benchmark": BENCHMARK, "batch": run_batch_phase(args.smoke)}
    elif args.serve:
        record = {"serve": run_serve_phase(args.smoke)}
    elif args.faults:
        record = {"benchmark": BENCHMARK, "faults": run_faults_phase(args.smoke)}
    else:
        record = run()
    history = []
    if RESULT_PATH.exists():
        try:
            history = json.loads(RESULT_PATH.read_text())
            if not isinstance(history, list):
                history = [history]
        except json.JSONDecodeError:
            history = []
    history.append(record)
    RESULT_PATH.write_text(json.dumps(history, indent=2) + "\n")
    print(f"[DSE sweep] appended record to {RESULT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
