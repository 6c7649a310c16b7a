"""The composable pass pipeline: ordering, instrumentation, memoisation.

A :class:`Pipeline` is an immutable ordered sequence of
:class:`~repro.pipeline.passes.PipelinePass` objects with unique names.
Editing operations (:meth:`Pipeline.without`, :meth:`Pipeline.replaced`,
:meth:`Pipeline.inserted_before` / :meth:`Pipeline.inserted_after`) return
new pipelines, so one pipeline object can be shared by many sessions and
sweeps without aliasing surprises.  The named pipeline *variants*
(``no-fusion``, ``no-cse``, …) are orderings of the same steps
(:mod:`repro.pipeline.variants`).

Running a pipeline produces a :class:`PipelineOutcome`: the final program,
the per-pass program trace (the intermediate IR after every step, which is
how the session reconstructs the paper's strip-mined/interchanged stage
snapshots) and a :class:`PipelineReport` with per-pass wall-clock, cache
hits and IR node-count deltas.

Memoisation is layered on the existing :class:`~repro.dse.cache.AnalysisCache`
(table ``pipeline_pass``): a pass whose :meth:`cache_key` returns a hashable
is keyed on the *incoming* program's structural hash plus the input/size
symbol names plus that key.  Because the key covers the pass class rather
than the instance name, a pass that receives a structurally identical
program — even at a different position, or in a different pipeline — hits
the same entry; cached outputs are reused wholesale, so design points that
differ only in knobs no transform reads (parallelisation factors, the
metapipelining flag) share every transform result.

Tile sizes are shared the same way.  With the cache on, the stock PPL
transformation stages run *symbolically* (:mod:`repro.transforms.symbolic`):
strip mining emits a placeholder size symbol per tiled key, so the tiling
passes key on the tiling structure (which keys are tiled, the split
budget) and every tile size of one structure reaches the same entries.  A
pass that decides on a tile value records the decision as a guard, and its
entry (a :class:`GuardedPayloads`) serves a configuration only where the
guards hold, gaining another alternative where they fail.  :meth:`Pipeline.run`
instantiates the symbolic program for the configuration before the first
pass that is not a stock PPL transformation, or at the end; traced
snapshots are instantiated when read.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import PipelineError
from repro.pipeline.passes import (
    PASS_DETAILS_KEY,
    PassContext,
    PipelinePass,
)
from repro.ppl.program import Program
from repro.ppl.traversal import count_nodes
from repro.transforms.symbolic import TileGuards, guards_hold, holds_placeholders, instance

__all__ = ["PassRecord", "PipelineReport", "PipelineOutcome", "Pipeline"]

_MISSING = object()


def _memo_names(program: Program) -> Tuple[tuple, tuple, bool]:
    """The input and size names a memo key carries for ``program``, and
    whether it holds placeholder tile sizes; cached on the program, which
    memoised passes hand back to every compile that reaches it."""
    cached = program.__dict__.get("_memo_names")
    if cached is None:
        cached = program._memo_names = (
            tuple(array.name for array in program.inputs),
            tuple(size.name for size in program.sizes),
            holds_placeholders(program),
        )
    return cached


def _node_count(body) -> int:
    """Node count of an IR body, cached on the (immutable) node.

    Pipeline instrumentation records IR sizes around every pass of every
    compile; memoised passes hand back shared node objects, so caching the
    count alongside the structural hash turns ~20 full-tree walks per
    compile into one walk per distinct body.
    """
    cached = getattr(body, "_node_count", None)
    if cached is None:
        cached = count_nodes(body)
        body._node_count = cached
    return cached


@dataclass
class PassRecord:
    """Instrumentation for one pass execution inside one pipeline run."""

    name: str
    seconds: float
    cached: bool
    nodes_before: int
    nodes_after: int
    changed: bool
    # The pass's advisory wall-clock budget.
    budget_seconds: float = 0.0
    # Structured per-run details a pass deposited (e.g. the schedule
    # rewriter's per-rewrite hit counts and event-cycle delta).
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def node_delta(self) -> int:
        return self.nodes_after - self.nodes_before

    @property
    def over_budget(self) -> bool:
        """Whether the (uncached) run exceeded the pass's time budget."""
        return (
            not self.cached and self.budget_seconds > 0 and self.seconds > self.budget_seconds
        )

    @property
    def budget_label(self) -> str:
        """The budget rendered for report tables (``!`` marks a breach)."""
        if not self.budget_seconds:
            return "-"
        return f"{self.budget_seconds * 1e3:.0f}ms{'!' if self.over_budget else ' '}"


@dataclass
class PipelineReport:
    """Per-pass wall-clock, cache and IR-delta numbers for one pipeline run."""

    pipeline: str
    program: str
    records: List[PassRecord] = field(default_factory=list)
    total_seconds: float = 0.0

    @property
    def cache_hits(self) -> int:
        return sum(1 for record in self.records if record.cached)

    @property
    def passes_run(self) -> int:
        return len(self.records)

    def over_budget(self) -> List[PassRecord]:
        """Records of passes that exceeded their advisory time budget."""
        return [record for record in self.records if record.over_budget]

    def record(self, name: str) -> PassRecord:
        for entry in self.records:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def table(self) -> str:
        header = (
            f"{'pass':<30} {'time':>10} {'budget':>10} {'cached':>7} "
            f"{'nodes':>13} {'delta':>7}"
        )
        lines = [
            f"pipeline {self.pipeline!r} on {self.program}: "
            f"{self.passes_run} passes, {self.cache_hits} cache hits, "
            f"{self.total_seconds * 1e3:.2f} ms",
            header,
            "-" * len(header),
        ]
        for record in self.records:
            lines.append(
                f"{record.name:<30} {record.seconds * 1e3:>8.2f}ms {record.budget_label:>10} "
                f"{'hit' if record.cached else '-':>7} "
                f"{record.nodes_before:>5} -> {record.nodes_after:<5} "
                f"{record.node_delta:>+7}"
            )
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        return {
            "pipeline": self.pipeline,
            "program": self.program,
            "total_seconds": self.total_seconds,
            "cache_hits": self.cache_hits,
            "passes": [
                {
                    "name": record.name,
                    "seconds": record.seconds,
                    "budget_seconds": record.budget_seconds,
                    "cached": record.cached,
                    "nodes_before": record.nodes_before,
                    "nodes_after": record.nodes_after,
                    "details": dict(record.details),
                }
                for record in self.records
            ],
        }


class PipelineOutcome:
    """Everything one pipeline run produced.

    ``raw_trace`` holds the program after every step as the run saw it:
    the symbolic stretch holds placeholder tile sizes.  :attr:`trace` and
    :meth:`stage` instantiate those snapshots for the run's configuration
    when read.
    """

    def __init__(
        self,
        program: Program,
        trace: Optional[List[Tuple[str, Program]]] = None,
        report: Optional[PipelineReport] = None,
        resolve: Optional[Callable[[Program], Program]] = None,
    ) -> None:
        self.program = program
        self.raw_trace: List[Tuple[str, Program]] = list(trace or [])
        self.report = report
        self._resolve = resolve

    def resolve(self, program: Program) -> Program:
        """A traced snapshot instantiated for the run's configuration."""
        return program if self._resolve is None else self._resolve(program)

    @property
    def trace(self) -> List[Tuple[str, Program]]:
        return [(name, self.resolve(program)) for name, program in self.raw_trace]

    def stage(self, pass_name: str) -> Optional[Program]:
        """The program recorded after ``pass_name`` (last occurrence), or None."""
        found = None
        for name, program in self.raw_trace:
            if name == pass_name:
                found = program
        return None if found is None else self.resolve(found)


class GuardedPayloads:
    """The memo value of a pass whose run decided on tile values.

    Each alternative pairs a payload with the guard record of the run that
    produced it (:class:`~repro.transforms.symbolic.TileGuards`).  A lookup
    serves the first alternative whose guards hold for the configuration;
    a configuration that none serves runs the pass and adds one.
    """

    def __init__(self, alternatives: Tuple = ()) -> None:
        self.alternatives = tuple(alternatives)

    def select(self, tile_sizes) -> object:
        for record, payload in self.alternatives:
            if guards_hold(record, tile_sizes):
                return payload
        return _MISSING

    def adding(self, record, payload) -> "GuardedPayloads":
        return GuardedPayloads(self.alternatives + ((record, payload),))


class Pipeline:
    """An immutable, name-addressable sequence of pipeline passes."""

    def __init__(self, passes: Sequence[PipelinePass], name: str = "custom") -> None:
        duplicates = [n for n, count in Counter(p.name for p in passes).items() if count > 1]
        if duplicates:
            raise PipelineError(
                f"duplicate pass names {sorted(duplicates)} in pipeline {name!r}: "
                "names address passes for insertion/removal/replacement and must "
                "be unique (instantiate the pass with an explicit name, e.g. "
                "TransformationStage(LetCse(), name='post-cse'))"
            )
        self.passes: Tuple[PipelinePass, ...] = tuple(passes)
        self.name = name
        self._signature: Optional[Tuple[Tuple[str, str], ...]] = None

    # -- introspection -------------------------------------------------------
    @property
    def pass_names(self) -> List[str]:
        return [p.name for p in self.passes]

    def __len__(self) -> int:
        return len(self.passes)

    def __iter__(self):
        return iter(self.passes)

    def __contains__(self, name: str) -> bool:
        return any(p.name == name for p in self.passes)

    def _index(self, name: str) -> int:
        for index, pass_ in enumerate(self.passes):
            if pass_.name == name:
                return index
        raise PipelineError(
            f"no pass named {name!r} in pipeline {self.name!r} "
            f"(passes: {self.pass_names})"
        )

    def signature(self) -> Tuple[Tuple[str, str], ...]:
        """A stable, picklable identity of the pass sequence.

        Used by the DSE engine to fold the pipeline variant into
        point-result cache keys: two registries that bind the same variant
        name to different pass sequences produce different keys.  Cached on
        the instance (pipelines are immutable — every edit returns a copy),
        since the engine reads it on the warm evaluation path.
        """
        if self._signature is None:
            self._signature = tuple(p.signature() for p in self.passes)
        return self._signature

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Pipeline {self.name!r}: {' -> '.join(self.pass_names)}>"

    # -- composition ---------------------------------------------------------
    def _derived(self, passes: Sequence[PipelinePass], name: Optional[str] = None) -> "Pipeline":
        return Pipeline(passes, name=name or self.name)

    def renamed(self, name: str) -> "Pipeline":
        return self._derived(self.passes, name=name)

    def without(self, *names: str) -> "Pipeline":
        """A copy with the named passes removed (unknown names are an error)."""
        for name in names:
            self._index(name)
        dropped = set(names)
        return self._derived([p for p in self.passes if p.name not in dropped])

    def replaced(self, name: str, new_pass: PipelinePass) -> "Pipeline":
        """A copy with the named pass swapped for ``new_pass``."""
        index = self._index(name)
        passes = list(self.passes)
        passes[index] = new_pass
        return self._derived(passes)

    def inserted_before(self, name: str, new_pass: PipelinePass) -> "Pipeline":
        index = self._index(name)
        passes = list(self.passes)
        passes.insert(index, new_pass)
        return self._derived(passes)

    def inserted_after(self, name: str, new_pass: PipelinePass) -> "Pipeline":
        index = self._index(name)
        passes = list(self.passes)
        passes.insert(index + 1, new_pass)
        return self._derived(passes)

    def appended(self, new_pass: PipelinePass) -> "Pipeline":
        return self._derived(list(self.passes) + [new_pass])

    # -- execution -----------------------------------------------------------
    @staticmethod
    def _memoized(pass_: PipelinePass, key, program: Program, ctx: PassContext):
        """The pass's payload from the memo, or from running it: (payload, cached)."""
        cache = ctx.cache
        tiles = ctx.config.tile_sizes
        entry = cache.get("pipeline_pass", key, _MISSING)
        payload = entry.select(tiles) if isinstance(entry, GuardedPayloads) else entry
        if payload is not _MISSING:
            cache.hits["pipeline_pass"] += 1
            return payload, True
        cache.misses["pipeline_pass"] += 1
        guards = TileGuards(tiles) if pass_.symbolic else None
        ctx.tile_guards = guards
        try:
            payload = pass_.payload(pass_.run(program, ctx), ctx)
        finally:
            ctx.tile_guards = None
        record = guards.record() if guards is not None else ()
        if record:
            base = entry if isinstance(entry, GuardedPayloads) else GuardedPayloads()
            cache.put("pipeline_pass", key, base.adding(record, payload))
        else:
            cache.put("pipeline_pass", key, payload)
        return payload, False

    def run(self, program: Program, ctx: PassContext) -> PipelineOutcome:
        """Run every pass in order, memoising and instrumenting each.

        A pass is memoised on the incoming program's structural hash, its
        input and size names, the pass class and the pass's ``cache_key``.
        With the cache on, the PPL transformation stages run symbolically
        (see the module docstring): the program is instantiated for the
        configuration once, before the first other pass or at the end.
        """
        started = time.perf_counter()
        trace: List[Tuple[str, Program]] = [("input", program)]
        report = PipelineReport(pipeline=self.name, program=program.name)
        tiles = ctx.config.tile_sizes
        sharing = ctx.cache.enabled
        current = program
        inputs, sizes, pending = _memo_names(current)
        # An instance has its symbolic program's node count, and a pass
        # that returns its input changes nothing: neither is re-walked.
        nodes = _node_count(current.body)
        for pass_ in self.passes:
            symbolic = sharing and pass_.symbolic
            if pending and not symbolic:
                current = instance(current, tiles)
                inputs, sizes, pending = _memo_names(current)
            pass_started = time.perf_counter()
            contribution = pass_.cache_key(ctx) if sharing else None
            if contribution is None:
                payload = pass_.payload(pass_.run(current, ctx), ctx)
                cached = False
            else:
                key = (
                    current.body.structural_hash(),
                    inputs,
                    sizes,
                    type(pass_).__name__,
                    contribution,
                )
                payload, cached = self._memoized(pass_, key, current, ctx)
            next_program = pass_.restore(payload, ctx)
            elapsed = time.perf_counter() - pass_started
            same = next_program is current
            nodes_after = nodes if same else _node_count(next_program.body)
            report.records.append(
                PassRecord(
                    name=pass_.name,
                    seconds=elapsed,
                    cached=cached,
                    nodes_before=nodes,
                    nodes_after=nodes_after,
                    changed=not same
                    and next_program.body.structural_hash() != current.body.structural_hash(),
                    budget_seconds=pass_.budget_seconds,
                    details=ctx.artifacts.pop(PASS_DETAILS_KEY, {}),
                )
            )
            trace.append((pass_.name, next_program))
            nodes = nodes_after
            if not same:
                current = next_program
                inputs, sizes, pending = _memo_names(current)
        if pending:
            current = instance(current, tiles)
        report.total_seconds = time.perf_counter() - started
        return PipelineOutcome(
            program=current,
            trace=trace,
            report=report,
            resolve=lambda snapshot: (
                instance(snapshot, tiles) if holds_placeholders(snapshot) else snapshot
            ),
        )
