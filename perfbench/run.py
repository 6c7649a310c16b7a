"""The repository benchmark: one workload per invocation, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``sweep-cold``, ``figure7-event`` and
``farm-dup``.  The seed generates the workload's inputs.  After set-up and
one discarded warm-up pass, passes run until ``--seconds`` have elapsed
(at least three).  The outputs are then checked against an independent
reference, and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones:

* ``points_per_s`` — the median over timed passes of points answered ÷
  pass wall time (on farm-dup: responses ÷ stream wall time);
* ``latency_p50_ms`` / ``latency_p90_ms`` — per request: one compile
  request on farm-dup, from its batch being sent to its response frame
  arriving, each percentile the median of the streams' own; one app's
  sweep (its median over the passes) on the sweep workloads, whose six
  apps make the p90 close to the slowest app;
* ``setup_s`` — process start until ready to time, the median of this
  process and two set-up probes (fresh processes that only set up);
* ``peak_rss_mb`` — ``ru_maxrss`` of this process.

Every end-to-end time is scaled to a reference host speed.  The speed of
a shared host swings by up to a factor of two within seconds and drifts
over minutes, which moved the unscaled medians of identical runs by a
third.  Each pass samples a fixed pure-Python loop
(``workloads.host_ref_ms``) between its units of work — after every farm
batch, after every app — and its times are multiplied by
``workloads.host_scale`` of the mean of its own samples: (nominal ÷ mean)
to the power ``HOST_EXPONENT``.  Set-up times are scaled by a reading
taken right after them.  The unscaled figures, the
per-pass sample means and ``best_cycles_geomean`` go to standard error.

With ``--trace 1`` half the time runs untraced and half traced (layer spans
recorded by ``tracer.py``), and the metrics are the per-layer ones, each
the median over the traced passes; ``bench.self_s`` includes the
host-speed samples.  A failed check prints the result with
``"correct": false`` and exits with code 1.

Scratch files (stores, journals, snapshots) live in
``.perfbench_work/`` under the repository root and are removed on exit.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3
SETUP_PROBES = 2

#: Every pipeline pass name, in pipeline order.
PASS_NAMES = (
    "fusion", "strip-mine", "tile-copies", "cse", "code-motion", "interchange",
    "post-cse", "post-code-motion", "generate-hardware", "build-schedule",
    "rewrite-schedule", "estimate-area",
)
#: Span layers reported with ``.calls``, ``.busy_s`` and ``.self_s``.
LAYERS = (
    "apps.bindings", "pipeline.run", "hw.generate", "schedule.lower",
    "schedule.batched", "schedule.analytical", "schedule.event",
    "schedule.rewrite", "schedule.tune", "analysis.area", "dse.explore",
    "dse.evaluate_point", "dse.batch", "dse.prune", "dse.search",
)
#: Span layers of the farm and the store, reported by self time only
#: beside their named metrics.
SERVE_LAYERS = (
    "serve.admit", "serve.net.encode", "serve.net.decode", "dse.journal",
    "dse.cache.load", "dse.cache.save",
)


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe(args, store) -> float:
    """Set-up time of a fresh process running this workload's set-up."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe",
    ]
    if store is not None:
        command += ["--store", str(store)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(args, timed, setup_samples, peak_mb, scaled=True):
    """The user-facing metrics over the timed passes.

    Each pass's times are multiplied by its own host-speed scale (unless
    ``scaled`` is false).  On the sweep workloads a request is one app's
    sweep (in a fixed app order), timed by its median over the passes; on
    farm-dup it is one compile request, and each percentile is the median
    of the streams' own.
    """
    scales = [result.scale if scaled else 1.0 for result in timed]
    if args.workload == "farm-dup":
        p50_s = statistics.median(
            statistics.median(result.latencies) * scale for result, scale in zip(timed, scales)
        )
        p90_s = statistics.median(
            p90(result.latencies) * scale for result, scale in zip(timed, scales)
        )
    else:
        per_pass = [
            [latency * scale for latency in result.latencies]
            for result, scale in zip(timed, scales)
        ]
        latencies = [statistics.median(times) for times in zip(*per_pass)]
        p50_s, p90_s = statistics.median(latencies), p90(latencies)
    rate = statistics.median(
        result.points / (result.seconds * scale) for result, scale in zip(timed, scales)
    )
    return {
        "points_per_s": (rate, "1/s"),
        "latency_p50_ms": (p50_s * 1e3, "ms"),
        "latency_p90_ms": (p90_s * 1e3, "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def traced_pass(work):
    """Run one traced pass; its per-layer metrics as a flat dict."""
    from repro.dse.cache import ANALYSIS_CACHE
    from repro.serve.protocol import STATUSES
    from tracer import profile

    tracer = work.tracer
    before = Counter(tracer.counters)
    tracer.spans = []
    result = work.run_pass()
    spans = tracer.spans
    counters = Counter(tracer.counters)
    counters.subtract(before)
    calls, busy, self_time = profile(spans)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.busy_s"] = busy[layer]
    for layer in LAYERS + SERVE_LAYERS + ("bench",):
        out[f"{layer}.self_s"] = self_time[layer]
    root = next(span for span in spans if span[0] == "bench")
    out["trace.self_sum_ratio"] = sum(self_time.values()) / (root[2] - root[1])
    for name in PASS_NAMES:
        prefix = f"pipeline.pass.{name}."
        for key in ("runs", "cached", "busy_s"):
            out[prefix + key] = counters[prefix + key]
    out["schedule.batched.lanes"] = counters["schedule.batched.lanes"]
    missed = counters["dse.batch.points"] - counters["dse.batch.entry_hits"]
    out["dse.batch.vector_share"] = counters["schedule.batched.lanes"] / missed if missed else 0.0
    library = ANALYSIS_CACHE.stats()
    for table in ("point_results", "pipeline_pass"):
        prefix = f"dse.cache.{table}."
        hits, misses = counters[prefix + "hits"], counters[prefix + "misses"]
        out[prefix + "hits"] = hits
        out[prefix + "misses"] = misses
        out[prefix + "hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
        # The library's own count, cleared with the cache before each pass.
        out[prefix + "lib_misses"] = library.get(table, {}).get("misses", 0)
    out["dse.cache.load_s"] = busy["dse.cache.load"]
    out["dse.cache.save_s"] = busy["dse.cache.save"]
    out["dse.journal.appends"] = calls["dse.journal"]
    out["dse.journal.append_s"] = busy["dse.journal"]
    out["serve.admit_s"] = busy["serve.admit"]
    for status in STATUSES:
        out[f"serve.status.{status}"] = result.statuses.get(status, 0)
    compute = {
        span[4]: span[2] - span[1]
        for span in spans
        if span[0] == "dse.evaluate_point" and span[4] in result.evaluated
    }
    out["serve.compute_ms_p50"] = (
        statistics.median(compute.values()) * 1e3 if compute else 0.0
    )
    waits = [
        latency - compute[tag] for tag, latency in result.evaluated.items() if tag in compute
    ]
    out["serve.queue_wait_ms_p50"] = statistics.median(waits) * 1e3 if waits else 0.0
    out["serve.net.encode_s"] = busy["serve.net.encode"]
    out["serve.net.decode_s"] = busy["serve.net.decode"]
    for key in ("retries", "timeouts", "respawns", "quarantined"):
        out[f"dse.supervision.{key}"] = result.supervision.get(key, 0)
    return result, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--store", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")

    scratch = ROOT / ".perfbench_work"
    work_dir = scratch / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    tempfile.tempdir = str(work_dir)
    try:
        return run(args, workloads, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it


def run(args, workloads, work_dir: Path) -> int:
    farm = args.workload == "farm-dup"
    work = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    work.setup()
    setup_s = time.perf_counter() - PROCESS_START
    if farm:
        # The prewarm fixture is not set-up: a probe reuses the parent's store.
        if args.store:
            work.store = Path(args.store)
        else:
            work.make_store()
        setup_s += work.probe_start() if args.setup_probe else 0.0
    ref_start = workloads.host_ref_ms()
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s * workloads.host_scale(ref_start)}))
        return 0

    passes = [work.run_pass()]  # warm-up, discarded
    if farm:
        setup_s += work.farm_start[0]
    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    minimum = 2 if args.trace else MIN_PASSES
    timed = []
    deadline = time.perf_counter() + untraced_seconds
    while len(timed) < minimum or time.perf_counter() < deadline:
        timed.append(work.run_pass())

    traced = []
    if args.trace:
        import tracer

        work.tracer = tracer.install()
        deadline = time.perf_counter() + args.seconds - untraced_seconds
        while len(traced) < minimum or time.perf_counter() < deadline:
            traced.append(traced_pass(work))

    # Read before the check, whose reference inputs are not the workload's.
    peak_mb = peak_rss_mb()
    checks, mismatches = work.check()
    ref_end = workloads.host_ref_ms()
    passes += timed + [result for result, _ in traced]
    attempted = sum(result.points for result in passes) + checks
    failed = sum(result.failed for result in passes) + mismatches

    if args.trace:
        layer_values = [values for _, values in traced]
        metrics = {
            name: (statistics.median(values[name] for values in layer_values), _unit(name))
            for name in layer_values[0]
        }
        untraced = statistics.median(result.seconds * result.scale for result in timed)
        overhead = (
            statistics.median(result.seconds * result.scale for result, _ in traced) / untraced
            - 1
        )
        metrics["trace.overhead"] = (overhead, "ratio")
        metrics["host.ref_ms_start"] = (ref_start, "ms")
        metrics["host.ref_ms_end"] = (ref_end, "ms")
        metrics["best_cycles_geomean"] = (work.best_cycles_geomean(), "cycles")
        metrics["failed_share"] = (failed / attempted, "ratio")
    else:
        setup_samples = [setup_s * workloads.host_scale(ref_start)]
        store = work.store if farm else None
        setup_samples += [setup_probe(args, store) for _ in range(SETUP_PROBES)]
        metrics = end_to_end(args, timed, setup_samples, peak_mb)
        unscaled = end_to_end(args, timed, [setup_s], peak_mb, scaled=False)
        print(
            f"perfbench: {args.workload} best_cycles_geomean "
            f"{work.best_cycles_geomean():.6g}, host.ref_ms {ref_start:.1f} "
            f"{[round(statistics.mean(r.host_ms), 1) for r in timed]} -> {ref_end:.1f}, unscaled "
            f"{ {name: round(value, 3) for name, (value, _) in unscaled.items()} }, "
            f"pass rates {[round(r.points / r.seconds, 1) for r in timed]}",
            file=sys.stderr,
        )

    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


def _unit(name: str) -> str:
    if name.endswith("_ms_p50"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("hit_rate", "vector_share", "self_sum_ratio")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
