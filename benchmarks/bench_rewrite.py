"""E9 — schedule rewriter: event-backend cycles before/after, with legality.

For every benchmark of Table 5 (or the CI smoke subset with ``--smoke``)
the driver compiles the tiling+metapipelining configuration twice — through
the ``default`` pipeline and through the ``rewrite`` variant (transfer
coalescing, stage rebalancing, degenerate-group flattening after
``build-schedule``) — and records

* the event-backend cycle count of both schedules (the rewriter is
  profile-guided: the event model's latency/contention accounting is the
  profile it optimises against), plus the analytical counts for reference;
* the per-rewrite hit counts reported by the ``rewrite-schedule`` pass;
* a ``rewrite-profiled`` row: the same configuration through the
  profile-guided variant (stage costs from measured event-backend stage
  profiles, balance factor tuned per schedule), with its tuned factor and
  the event simulations its compile ran (``profiled_event_runs``, counted
  at :meth:`EventScheduleBackend.run`);
* the legality evidence: identical DRAM traffic totals (read and write),
  an identical memory inventory and identical area totals.

Asserts that the rewriter **improves event-backend cycles on at least one
benchmark** while never regressing any, that every preservation
invariant holds, and that a ``rewrite-profiled`` compile runs fewer event
simulations than there are balance-factor candidates (the tuning shares
one profile per distinct tree).  The record is appended to
``BENCH_rewrite.json``.

With ``--orderings`` the driver additionally sweeps *auto-generated pass
orderings* (:mod:`repro.rewrite.orderings`): a fixed-seed guided sample
plus the canonical schedule-rewrite orderings, each compiled as a
self-describing ``auto:`` pipeline variant.  Per benchmark it records the
best-discovered ordering's event-backend cycles against the ``default``
and ``rewrite-profiled`` variants, and asserts that at least one
benchmark's best ordering beats ``default``.

Run with ``PYTHONPATH=src python benchmarks/bench_rewrite.py
[--smoke] [--orderings]``.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.analysis.area import estimate_area_of_schedule
from repro.analysis.traffic import schedule_traffic
from repro.apps import all_benchmarks
from repro.config import CompileConfig
from repro.pipeline import Session
from repro.schedule import BALANCE_FACTOR_CANDIDATES, EventScheduleBackend, get_backend

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_rewrite.json"

#: The CI smoke subset: the two fastest benchmarks, both of which the
#: rewriter's transfer coalescing fires on.
SMOKE_BENCHMARKS = ("outerprod", "tpchq6")

SIZES = {
    "outerprod": {"m": 4096, "n": 4096},
    "sumrows": {"m": 16384, "n": 256},
    "gemm": {"m": 512, "n": 512, "p": 512},
    "tpchq6": {"n": 1 << 20},
    "gda": {"n": 16384, "d": 32},
    "kmeans": {"n": 32768, "k": 32, "d": 32},
}


def _meta_config(bench) -> CompileConfig:
    return CompileConfig(
        tiling=True,
        metapipelining=True,
        tile_sizes=dict(bench.tile_sizes),
        par_factors=dict(bench.par_factors),
    )


def _assert_preserved(name: str, plain, rewritten) -> None:
    """The legality evidence, re-derived from the final artifacts."""
    before = schedule_traffic(plain.schedule)
    after = schedule_traffic(rewritten.schedule)
    assert before.read_bytes == after.read_bytes, (
        f"{name}: rewriter changed DRAM read traffic "
        f"({before.read_bytes:,} -> {after.read_bytes:,})"
    )
    assert before.write_bytes == after.write_bytes, (
        f"{name}: rewriter changed DRAM write traffic"
    )
    inventory_before = [(m.name, m.kind, m.capacity_bits, m.double) for m in plain.schedule.memories]
    inventory_after = [(m.name, m.kind, m.capacity_bits, m.double) for m in rewritten.schedule.memories]
    assert inventory_before == inventory_after, f"{name}: memory inventory changed"
    area_before = estimate_area_of_schedule(plain.schedule).total
    area_after = estimate_area_of_schedule(rewritten.schedule).total
    assert (area_before.logic, area_before.ffs, area_before.bram_bits, area_before.dsps) == (
        area_after.logic,
        area_after.ffs,
        area_after.bram_bits,
        area_after.dsps,
    ), f"{name}: rewriter changed the area totals"


@contextmanager
def _counting_event_runs():
    """Count :meth:`EventScheduleBackend.run` calls inside the block."""
    calls = []
    original = EventScheduleBackend.run

    def counting(backend, schedule):
        calls.append(schedule.name)
        return original(backend, schedule)

    EventScheduleBackend.run = counting
    try:
        yield calls
    finally:
        EventScheduleBackend.run = original


def run(benchmarks) -> dict:
    session = Session()
    record: dict = {"benchmarks": {}}
    improved = []
    rewrite_seconds = 0.0
    profiled_seconds = 0.0

    header = (
        f"{'benchmark':<10} {'event before':>14} {'event after':>14} {'delta':>8} "
        f"{'hits':>5} {'rewrites'}"
    )
    print(header)
    print("-" * len(header))

    for bench in benchmarks:
        bindings = bench.bindings(SIZES[bench.name], np.random.default_rng(3))
        config = _meta_config(bench)
        par = bench.par_factors.get("inner", 16)
        plain = session.compile(bench.build(), config, bindings, par=par)
        started = time.perf_counter()
        rewritten = session.compile(
            bench.build(), config, bindings, par=par, pipeline="rewrite"
        )
        rewrite_seconds += time.perf_counter() - started

        _assert_preserved(bench.name, plain, rewritten)

        event = EventScheduleBackend()
        event_before = event.run(plain.schedule).cycles
        event_after = EventScheduleBackend().run(rewritten.schedule).cycles
        analytical_before = get_backend("analytical").run(plain.schedule).cycles
        analytical_after = get_backend("analytical").run(rewritten.schedule).cycles

        assert event_after <= event_before * (1 + 1e-9), (
            f"{bench.name}: rewriter regressed event cycles "
            f"({event_before:,.0f} -> {event_after:,.0f})"
        )
        if event_after < event_before:
            improved.append(bench.name)

        # The profile-guided variant: stage costs from measured event-backend
        # stage profiles, balance factor tuned per schedule.  Same legality
        # bar, same no-regression bar as the closed-form rewriter.
        started = time.perf_counter()
        with _counting_event_runs() as event_runs:
            profiled = session.compile(
                bench.build(), config, bindings, par=par, pipeline="rewrite-profiled"
            )
        profiled_seconds += time.perf_counter() - started
        _assert_preserved(bench.name, plain, profiled)
        event_profiled = EventScheduleBackend().run(profiled.schedule).cycles
        assert event_profiled <= event_before * (1 + 1e-9), (
            f"{bench.name}: profiled rewriter regressed event cycles "
            f"({event_before:,.0f} -> {event_profiled:,.0f})"
        )
        profiled_details = profiled.report.record("rewrite-schedule").details
        assert profiled_details["event_runs"] == len(event_runs), (
            f"{bench.name}: the pass record reports {profiled_details['event_runs']} "
            f"event runs, the backend ran {len(event_runs)}"
        )
        assert len(event_runs) < len(BALANCE_FACTOR_CANDIDATES), (
            f"{bench.name}: a rewrite-profiled compile ran {len(event_runs)} event "
            f"simulations for {len(BALANCE_FACTOR_CANDIDATES)} balance-factor candidates"
        )

        details = rewritten.report.record("rewrite-schedule").details
        hits = {k: v for k, v in details["rewrite_hits"].items() if v}
        delta = event_after / event_before - 1.0
        print(
            f"{bench.name:<10} {event_before:>14,.0f} {event_after:>14,.0f} "
            f"{delta:>+7.2%} {sum(hits.values()):>5} "
            + ", ".join(f"{k}×{v}" for k, v in hits.items())
            + f"  [profiled {event_profiled:,.0f} "
            f"bf={profiled_details['balance_factor']} event runs={len(event_runs)}]"
        )
        record["benchmarks"][bench.name] = {
            "event_cycles_before": event_before,
            "event_cycles_after": event_after,
            "event_delta": round(delta, 6),
            "analytical_cycles_before": analytical_before,
            "analytical_cycles_after": analytical_after,
            "rewrite_hits": dict(details["rewrite_hits"]),
            "rewrite_rounds": details["rewrite_rounds"],
            "event_cycles_profiled": event_profiled,
            "profiled_balance_factor": profiled_details["balance_factor"],
            "profiled_rewrite_hits": dict(profiled_details["rewrite_hits"]),
            "profiled_event_runs": len(event_runs),
            "transfers_before": len(plain.schedule.transfers),
            "transfers_after": len(rewritten.schedule.transfers),
            "traffic_read_bytes": schedule_traffic(plain.schedule).read_bytes,
            "traffic_preserved": True,
            "inventory_preserved": True,
        }

    assert improved, "rewriter improved event cycles on no benchmark"
    print(
        f"[rewrite bench] improved {len(improved)}/{len(record['benchmarks'])} "
        f"benchmarks ({', '.join(improved)}); "
        f"rewrite-pipeline compiles took {rewrite_seconds * 1e3:.1f} ms"
    )
    record["improved"] = improved
    record["rewrite_compile_seconds"] = round(rewrite_seconds, 6)
    record["profiled_compile_seconds"] = round(profiled_seconds, 6)
    return record


def _ordering_pool(smoke: bool):
    """The ordering candidates: canonical rewrites plus a guided sample.

    The guided sample is fixed-seed (7) — the pool is identical run to
    run, so the recorded best ordering is comparable across history
    entries.
    """
    from repro.rewrite import DEFAULT_ORDERING, guided_orderings, ordering_name

    canonical = [
        DEFAULT_ORDERING + ("rewrite-schedule",),
        DEFAULT_ORDERING + ("rewrite-schedule-profiled",),
        DEFAULT_ORDERING
        + ("flatten-degenerate-groups", "coalesce-transfers", "rebalance-stages"),
    ]
    pool = list(canonical) + guided_orderings(seed=7, count=4 if smoke else 10)
    seen = set()
    names = []
    for ordering in pool:
        name = ordering_name(ordering)
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def run_orderings(benchmarks, smoke: bool) -> dict:
    """Sweep auto-generated orderings; record best vs default/profiled."""
    session = Session()
    pool = _ordering_pool(smoke)
    record: dict = {"pool_size": len(pool), "benchmarks": {}}
    beat_default = []

    header = f"{'benchmark':<10} {'default':>14} {'profiled':>14} {'best ordering':>14}"
    print(header)
    print("-" * len(header))

    for bench in benchmarks:
        bindings = bench.bindings(SIZES[bench.name], np.random.default_rng(3))
        config = _meta_config(bench)
        par = bench.par_factors.get("inner", 16)

        def cycles_through(pipeline):
            compiled = session.compile(
                bench.build(), config, bindings, par=par, pipeline=pipeline
            )
            return EventScheduleBackend().run(compiled.schedule).cycles

        default_cycles = cycles_through("default")
        profiled_cycles = cycles_through("rewrite-profiled")
        swept = {name: cycles_through(name) for name in pool}
        best_name = min(swept, key=swept.get)
        best_cycles = swept[best_name]
        if best_cycles < default_cycles:
            beat_default.append(bench.name)

        print(
            f"{bench.name:<10} {default_cycles:>14,.0f} {profiled_cycles:>14,.0f} "
            f"{best_cycles:>14,.0f}  {best_name}"
        )
        record["benchmarks"][bench.name] = {
            "event_cycles_default": default_cycles,
            "event_cycles_rewrite_profiled": profiled_cycles,
            "event_cycles_best_ordering": best_cycles,
            "best_ordering": best_name,
            "best_vs_default": round(best_cycles / default_cycles - 1.0, 6),
            "best_vs_profiled": round(best_cycles / profiled_cycles - 1.0, 6),
        }

    assert beat_default, (
        "no auto-generated ordering improved event cycles over the default "
        "pipeline on any benchmark"
    )
    record["beat_default"] = beat_default
    print(
        f"[ordering bench] best ordering beat default on "
        f"{len(beat_default)}/{len(record['benchmarks'])} benchmarks "
        f"({', '.join(beat_default)}) from a pool of {len(pool)}"
    )
    return record


def main(argv) -> int:
    smoke = "--smoke" in argv
    names = set(SMOKE_BENCHMARKS) if smoke else None
    benchmarks = [
        bench for bench in all_benchmarks() if names is None or bench.name in names
    ]
    record = run(benchmarks)
    record["smoke"] = smoke
    if "--orderings" in argv:
        record["orderings"] = run_orderings(benchmarks, smoke)

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
    print(f"[rewrite bench] appended record to {RESULT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
