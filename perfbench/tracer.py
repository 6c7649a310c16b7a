"""Layer spans for the traced benchmark run, recorded from outside ``src/``.

:func:`install` wraps the public entry point of every measured layer where
its name is looked up: methods on their class, module functions in every
``repro`` module that bound them by name.  Each call becomes a span
``(layer, start, end, parent)`` kept in memory; counters (cache lookups at
the ``AnalysisCache`` boundary, batched lanes, per-pass pipeline records)
sit beside them.  Every workload runs in one process, so one tracer sees
all of its spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, List, Optional

perf_counter = time.perf_counter

#: Cache tables whose lookups are counted at the boundary.
CACHE_TABLES = ("point_results", "pipeline_pass")

_SENTINEL = object()


class Tracer:
    """Spans and counters of one process."""

    def __init__(self) -> None:
        # Each span is [layer, start, end, parent index, tag].
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counters: Counter = Counter()
        # Keys that missed and were not inserted since: a second lookup of
        # the same missing key (a fallback path asking again) is not a
        # second miss.
        self.pending: Dict[str, set] = {table: set() for table in CACHE_TABLES}

    def begin(self, layer: str, tag: object = None) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([layer, perf_counter(), 0.0, parent, tag])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        if self.stack and self.stack[-1] == index:
            self.stack.pop()
        else:
            self.stack.remove(index)

    def top(self) -> Optional[str]:
        return self.spans[self.stack[-1]][0] if self.stack else None

    @contextmanager
    def span(self, layer: str):
        index = self.begin(layer)
        try:
            yield
        finally:
            self.end(index)


TRACER: Optional[Tracer] = None


def root_span(tracer: Optional[Tracer]):
    """The span covering one timed pass (a no-op when untraced)."""
    return tracer.span("bench") if tracer is not None else nullcontext()


def profile(spans: List[list]):
    """Per-layer ``(calls, busy, self_time)`` Counters over ``spans``.

    ``busy`` sums the durations of a layer's outermost spans (a span nested
    in another span of its own layer adds nothing).  ``self_time`` is a
    span's duration minus its direct children's, over the tree of the first
    ``bench`` root only, so it adds up to that root's duration.
    """
    children = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    roots = [index for index, span in enumerate(spans) if span[0] == "bench"]
    pass_root = roots[0] if roots else None
    top: List[int] = []
    calls: Counter = Counter()
    busy: Counter = Counter()
    self_time: Counter = Counter()
    for index, (layer, start, end, parent, _) in enumerate(spans):
        top.append(index if parent < 0 else top[parent])
        calls[layer] += 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != layer:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            busy[layer] += end - start
        if top[index] == pass_root:
            self_time[layer] += (end - start) - children[index]
    return calls, busy, self_time


def _wrap(layer: str, fn: Callable, before=None, after=None, tag=None) -> Callable:
    tracer = TRACER

    if inspect.iscoroutinefunction(fn):

        async def traced(*args, **kwargs):
            index = tracer.begin(layer)
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.end(index)

    else:

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = tracer.begin(layer, tag(args) if tag else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(result)
            return result

    return functools.update_wrapper(traced, fn)


def _patch_function(module_name: str, name: str, layer: str, **hooks) -> None:
    """Wrap a module function in every ``repro`` module bound to it."""
    original = getattr(sys.modules[module_name], name)
    wrapped = _wrap(layer, original, **hooks)
    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("repro") and getattr(module, name, None) is original:
            setattr(module, name, wrapped)


def _patch_method(cls: type, name: str, layer: str, **hooks) -> None:
    setattr(cls, name, _wrap(layer, cls.__dict__[name], **hooks))


def _count(key: str, amount: float = 1) -> None:
    TRACER.counters[key] += amount


def install() -> Tracer:
    """Create the process tracer and wrap every measured layer."""
    global TRACER
    if TRACER is not None:
        raise RuntimeError("tracer already installed")
    # Import every module that binds a wrapped function by name first, so
    # the by-name patching below finds all of them.
    import repro.analysis.area
    import repro.apps.base
    import repro.dse.batch
    import repro.dse.cache

    TRACER = Tracer()

    import repro.dse.engine
    import repro.dse.resilience
    import repro.dse.search
    import repro.dse.space
    import repro.evaluation.figure7
    import repro.hw.generation
    import repro.pipeline.pipeline
    import repro.schedule.analytical
    import repro.schedule.batched
    import repro.schedule.event
    import repro.schedule.lower
    import repro.schedule.rewrite
    import repro.serve.farm
    import repro.serve.net
    import repro.serve.protocol

    _patch_method(repro.apps.base.Benchmark, "bindings", "apps.bindings")
    _patch_method(
        repro.pipeline.pipeline.Pipeline, "run", "pipeline.run", after=_record_report
    )
    _patch_method(repro.hw.generation.HardwareGenerator, "generate", "hw.generate")
    _patch_function("repro.schedule.lower", "build_schedule", "schedule.lower")
    _patch_function(
        "repro.schedule.batched", "batched_cycles", "schedule.batched",
        before=lambda args: _count("schedule.batched.lanes", len(args[0])),
    )
    _patch_function("repro.schedule.batched", "batched_area", "schedule.batched")
    _patch_method(
        repro.schedule.analytical.AnalyticalScheduleBackend, "run", "schedule.analytical"
    )
    _patch_method(repro.schedule.event.EventScheduleBackend, "run", "schedule.event")
    _patch_function("repro.schedule.rewrite", "rewrite_schedule", "schedule.rewrite")
    _patch_function("repro.schedule.rewrite", "tune_balance_factor", "schedule.tune")
    _patch_function("repro.analysis.area", "estimate_area_of_schedule", "analysis.area")
    _patch_function(
        "repro.dse.engine", "evaluate_point", "dse.evaluate_point",
        tag=lambda args: f"{args[0].name}|{args[2].label}",
    )
    _patch_function(
        "repro.dse.batch", "evaluate_point_batch", "dse.batch",
        before=lambda args: _count("dse.batch.points", len(args[2])),
    )
    _patch_function("repro.dse.engine", "explore", "dse.explore")
    _patch_function("repro.dse.space", "estimate_point_area", "dse.prune")
    for name in ("start", "record", "advance"):
        _patch_method(repro.dse.search.SearchDriver, name, "dse.search")
    cache_cls = repro.dse.cache.AnalysisCache
    cache_cls.memoize = _counted_memoize(cache_cls.memoize)
    cache_cls.get = _counted_get(cache_cls.get)
    cache_cls.put = _counted_put(cache_cls.put)
    _patch_method(cache_cls, "load_disk", "dse.cache.load")
    _patch_method(cache_cls, "save_disk", "dse.cache.save")
    _patch_method(repro.dse.resilience.CheckpointJournal, "append", "dse.journal")
    _patch_method(repro.serve.farm.CompileFarm, "submit", "serve.admit")
    _patch_function("repro.serve.protocol", "encode_frame", "serve.net.encode")
    _patch_function("repro.serve.protocol", "decode_frame", "serve.net.decode")
    return TRACER


def _record_report(outcome) -> None:
    report = outcome.report
    if report is None:
        return
    counters = TRACER.counters
    for record in report.records:
        prefix = f"pipeline.pass.{record.name}."
        counters[prefix + "runs"] += 1
        counters[prefix + "cached"] += int(record.cached)
        counters[prefix + "busy_s"] += record.seconds


def _lookup(table: str, key: object, hit: bool) -> None:
    pending = TRACER.pending[table]
    if hit:
        TRACER.counters[f"dse.cache.{table}.hits"] += 1
        pending.discard(key)
        if table == "point_results" and TRACER.top() == "dse.batch":
            TRACER.counters["dse.batch.entry_hits"] += 1
    elif key not in pending:
        TRACER.counters[f"dse.cache.{table}.misses"] += 1
        pending.add(key)


def _counted_memoize(original):
    def memoize(self, name, key, compute):
        if not self.enabled or name not in CACHE_TABLES:
            return original(self, name, key, compute)
        _lookup(name, key, key in self.table(name))
        value = original(self, name, key, compute)
        TRACER.pending[name].discard(key)
        return value

    return functools.update_wrapper(memoize, original)


def _counted_get(original):
    def get(self, name, key, default=None):
        value = original(self, name, key, _SENTINEL)
        if self.enabled and name in CACHE_TABLES:
            _lookup(name, key, value is not _SENTINEL)
        return default if value is _SENTINEL else value

    return functools.update_wrapper(get, original)


def _counted_put(original):
    def put(self, name, key, value):
        if name in CACHE_TABLES:
            TRACER.pending[name].discard(key)
        return original(self, name, key, value)

    return functools.update_wrapper(put, original)

