"""One event run per distinct tree: the profile memo behind factor tuning.

The reference for :func:`tune_balance_factor` is the loop it replaced,
written out here: every candidate rewritten with fresh event profiles and
priced with a fresh event run, then the winner rewritten a second time.
The memoised tuning must match it exactly — factor, hits, rounds, the
rewritten tree and every candidate's full :class:`SimulationResult` — on
generated trees where rebalancing fires and the candidates rewrite to
different trees.  Event runs are counted through a wrapper on
:meth:`EventScheduleBackend.run`, never through the memo's own counters.
"""

import dataclasses
import itertools
from unittest import mock

import pytest
from hypothesis import HealthCheck, Phase, event, find, given, settings
from hypothesis import strategies as st

from repro.apps import all_benchmarks, get_benchmark
from repro.config import CompileConfig
from repro.dse.cache import ANALYSIS_CACHE
from repro.dse.engine import evaluate_point
from repro.dse.space import DesignPoint
from repro.hw.templates import VectorUnit
from repro.pipeline import Session
from repro.schedule import (
    ComputeNode,
    EventScheduleBackend,
    MetapipelineSchedule,
    ParallelSchedule,
    Schedule,
    ScheduleNode,
    SequentialSchedule,
    StreamNode,
    TransferNode,
)
from repro.rewrite.schedule import (
    CoalesceTransfers,
    FlattenDegenerateGroups,
    RebalanceStages,
)
from repro.schedule.rewrite import (
    BALANCE_FACTOR_CANDIDATES,
    DEFAULT_BALANCE_FACTOR,
    ProfileMemo,
    ScheduleRewriter,
    tree_fingerprint,
    tune_balance_factor,
)
from repro.sim.model import PerformanceModel
from repro.target.device import DEFAULT_BOARD


def _schedule(root, name="drawn"):
    return Schedule(
        name=name, program_name=name, config_label=name, root=root, board=DEFAULT_BOARD
    )


# ---------------------------------------------------------------------------
# The reference: the tuning loop without a memo
# ---------------------------------------------------------------------------


def _memo_free_rewrite(schedule, model, factor, cost_source):
    """The default rewrite sequence with every profile a fresh event run."""
    rewrites = [
        FlattenDegenerateGroups(),
        CoalesceTransfers(),
        RebalanceStages(balance_factor=factor, cost_source=cost_source),
    ]
    return ScheduleRewriter(rewrites=rewrites, balance_factor=factor).rewrite(
        schedule, model
    )


def _reference_tuning(schedule, model, cost_source):
    """Fresh price per candidate, then a second rewrite with the winner."""
    backend = EventScheduleBackend(model)
    candidates = []
    prices = []
    best_factor = None
    best_cycles = float("inf")
    for factor in BALANCE_FACTOR_CANDIDATES:
        result = _memo_free_rewrite(schedule, model, factor, cost_source)
        price = backend.run(result.schedule)
        candidates.append(result)
        prices.append(price)
        if price.cycles < best_cycles:
            best_cycles = price.cycles
            best_factor = factor
    factor = best_factor if best_factor is not None else DEFAULT_BALANCE_FACTOR
    return _memo_free_rewrite(schedule, model, factor, cost_source), candidates, prices


def _memoised_tuning(schedule, model, cost_source):
    """The production tuning, recording the price it read per candidate
    and counting its event runs at the backend."""
    prices = []
    runs = []
    simulate = ProfileMemo.simulate
    run = EventScheduleBackend.run

    def recording(memo, tree, tree_model):
        price = simulate(memo, tree, tree_model)
        prices.append(price)
        return price

    def counting(backend, tree):
        runs.append(tree.name)
        return run(backend, tree)

    with mock.patch.object(ProfileMemo, "simulate", recording), mock.patch.object(
        EventScheduleBackend, "run", counting
    ):
        tuned = tune_balance_factor(schedule, model, cost_source=cost_source)
    return tuned, prices, len(runs)


def _assert_matches_reference(schedule, model, cost_source):
    reference, candidates, reference_prices = _reference_tuning(
        schedule, model, cost_source
    )
    tuned, prices, runs = _memoised_tuning(schedule, model, cost_source)
    assert tuned.balance_factor == reference.balance_factor
    assert tuned.hits == reference.hits
    assert tuned.rounds == reference.rounds
    assert tuned.schedule == reference.schedule
    assert prices == reference_prices
    assert tuned.event_runs == runs
    return tuned, candidates, runs


# ---------------------------------------------------------------------------
# Generated trees
# ---------------------------------------------------------------------------


@st.composite
def _trees(draw):
    """A metapipeline root over leaves, sequential groups and nested
    metapipelines: depth <= 2, <= 4 stages, <= 12 iterations."""
    names = itertools.count()

    def leaf():
        name = f"n{next(names)}"
        if draw(st.booleans()):
            return ComputeNode(
                name=name,
                lanes=draw(st.sampled_from((1, 2, 4))),
                elements=float(draw(st.sampled_from((8, 32, 128, 512, 2048)))),
                pipeline_depth=draw(st.integers(0, 8)),
            )
        return TransferNode(
            name=name,
            direction=draw(st.sampled_from(("load", "store"))),
            bytes_per_invocation=draw(st.sampled_from((256, 1024, 4096, 16384))),
            burst_bytes=draw(st.sampled_from((64, 128))),
            source=draw(st.sampled_from(("a", "b", "c"))),
        )

    def stage():
        kind = draw(st.sampled_from(("leaf", "leaf", "sequential", "metapipeline")))
        if kind == "leaf":
            return leaf()
        children = [leaf() for _ in range(draw(st.integers(1, 4)))]
        if kind == "sequential":
            return SequentialSchedule(
                name=f"seq{next(names)}",
                stages=children,
                iterations=draw(st.sampled_from((1, 1, 2))),
            )
        return MetapipelineSchedule(
            name=f"meta{next(names)}",
            stages=children,
            iterations=draw(st.integers(1, 12)),
        )

    root = MetapipelineSchedule(
        name="root",
        stages=[stage() for _ in range(draw(st.integers(2, 4)))],
        iterations=draw(st.integers(2, 12)),
    )
    model = PerformanceModel(
        dram_channels=draw(st.sampled_from((1, 2))),
        metapipeline_sync=draw(st.sampled_from((0, 2))),
    )
    return _schedule(root), model, draw(st.sampled_from(("event", "analytical")))


def _diverging(case) -> bool:
    """Rebalancing fires and the candidates rewrite to different trees."""
    schedule, model, cost_source = case
    _, candidates, _ = _reference_tuning(schedule, model, cost_source)
    fired = any(c.hits["rebalance-stages"] for c in candidates)
    return fired and len({tree_fingerprint(c.schedule) for c in candidates}) > 1


class TestMemoisedTuning:
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=_trees())
    def test_matches_the_memo_free_loop(self, case):
        schedule, model, cost_source = case
        _, candidates, _ = _assert_matches_reference(schedule, model, cost_source)
        if any(c.hits["rebalance-stages"] for c in candidates):
            event("rebalancing fired")
        if len({tree_fingerprint(c.schedule) for c in candidates}) > 1:
            event("candidates diverged")

    def test_generated_trees_reach_diverging_candidates(self):
        """The strategy above does exercise the memo across changing trees."""
        schedule, model, cost_source = find(
            _trees(),
            _diverging,
            settings=settings(
                max_examples=200,
                deadline=None,
                database=None,
                derandomize=True,
                phases=[Phase.generate],
            ),
        )
        _assert_matches_reference(schedule, model, cost_source)

    def test_outer_merge_shifts_a_nested_metapipeline(self):
        """Merging the outer group's first stages wraps them in a new node,
        shifting the nested metapipeline's pre-order position before its
        own costs are read.  Its profile must follow the node, not the
        position: at factor 4 only the measured (contended) durations of
        the nested loads keep them apart, where the closed forms a wrong
        lookup falls back to would merge them."""
        nested = MetapipelineSchedule(
            name="nested",
            iterations=12,
            stages=[
                TransferNode(
                    name="load-x", bytes_per_invocation=1024, burst_bytes=64, source="x"
                ),
                TransferNode(
                    name="load-y", bytes_per_invocation=1024, burst_bytes=128, source="y"
                ),
                ComputeNode(name="body", elements=800.0),
            ],
        )
        outer = MetapipelineSchedule(
            name="outer",
            iterations=8,
            stages=[
                ComputeNode(name="a", elements=8.0),
                ComputeNode(name="b", elements=8.0),
                nested,
                ComputeNode(name="big", elements=20000.0),
            ],
        )
        schedule = _schedule(outer, name="nested")
        model = PerformanceModel(metapipeline_sync=0)
        _, candidates, runs = _assert_matches_reference(schedule, model, "event")
        for candidate in candidates:
            assert candidate.schedule.root.stages[0].name.startswith("a+b")
        nested_stages = [
            len(c.schedule.nodes_of(MetapipelineSchedule)[-1].stages) for c in candidates
        ]
        assert nested_stages == [2, 2, 2, 2, 3]
        # One profile of the input tree serves every candidate's first
        # round; each of the three distinct results is profiled once by its
        # no-op last round, which also prices it.
        assert len({tree_fingerprint(c.schedule) for c in candidates}) == 3
        assert runs == 1 + 3


# ---------------------------------------------------------------------------
# The fingerprint is exact
# ---------------------------------------------------------------------------


def _changed(value):
    """A different value of the same kind (every field type the IR uses)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "'"
    if isinstance(value, list):
        return value + [ComputeNode(name="extra")]
    if isinstance(value, ScheduleNode):
        return dataclasses.replace(value, name=value.name + "'")
    if dataclasses.is_dataclass(value):
        first = dataclasses.fields(value)[0].name
        return dataclasses.replace(value, **{first: _changed(getattr(value, first))})
    raise TypeError(f"no mutation for {type(value).__name__}: extend _changed")


_NODES = [
    ScheduleNode(name="memory"),
    SequentialSchedule(name="seq", stages=[ComputeNode(name="c")], iterations=2),
    ParallelSchedule(name="par", stages=[ComputeNode(name="c")], iterations=2),
    MetapipelineSchedule(name="meta", stages=[ComputeNode(name="c")], iterations=2),
    ComputeNode(name="c", unit="reduction", lanes=4, elements=64.0, pipeline_depth=3),
    TransferNode(
        name="t", bytes_per_invocation=512, burst_bytes=64, source="a", destination="b"
    ),
    StreamNode(name="s", total_bytes=4096, requests=2.0, source="a", store_bytes=64),
]


class TestTreeFingerprint:
    @pytest.mark.parametrize("node", _NODES, ids=lambda node: node.kind)
    def test_every_timed_field_changes_it(self, node):
        key = tree_fingerprint(node)
        timed = [
            f.name
            for f in dataclasses.fields(node)
            if f.name not in ("module", "extra_modules")
        ]
        assert "name" in timed
        for name in timed:
            altered = dataclasses.replace(node, **{name: _changed(getattr(node, name))})
            assert tree_fingerprint(altered) != key, (node.kind, name)

    @pytest.mark.parametrize("node", _NODES, ids=lambda node: node.kind)
    def test_hardware_references_leave_it_alone(self, node):
        unit = VectorUnit(name="unit", lanes=2, elements=8)
        rehomed = dataclasses.replace(node, module=unit, extra_modules=[unit, unit])
        assert tree_fingerprint(rehomed) == tree_fingerprint(node)

    def test_group_kinds_are_distinguished(self):
        keys = {tree_fingerprint(node) for node in _NODES[1:4]}
        assert len(keys) == 3

    def test_schedule_fields(self):
        """Schedule-level fields the result carries count too; the memory
        inventory and notes are not timed."""
        schedule = _schedule(_NODES[3])
        key = tree_fingerprint(schedule)
        for f in dataclasses.fields(schedule):
            altered = dataclasses.replace(
                schedule, **{f.name: _changed(getattr(schedule, f.name))}
            )
            if f.name in ("memories", "notes"):
                assert tree_fingerprint(altered) == key, f.name
            else:
                assert tree_fingerprint(altered) != key, f.name


# ---------------------------------------------------------------------------
# Event runs, counted at the backend
# ---------------------------------------------------------------------------


@pytest.fixture
def event_runs(monkeypatch):
    """Every :meth:`EventScheduleBackend.run` call made during the test."""
    calls = []
    run = EventScheduleBackend.run

    def counting(backend, schedule):
        calls.append(schedule.name)
        return run(backend, schedule)

    monkeypatch.setattr(EventScheduleBackend, "run", counting)
    return calls


def _figure7_meta_config(bench):
    return CompileConfig(
        tiling=True,
        metapipelining=True,
        tile_sizes=dict(bench.tile_sizes),
        par_factors=dict(bench.par_factors),
    )


class TestEventRunCounts:
    def test_rewrite_point_priced_analytically_runs_no_event_model(self, event_runs):
        """The farm-dup path: a ``rewrite`` point under the analytical model."""
        bench = get_benchmark("tpchq6")
        point = DesignPoint.make(
            {"n": 4096}, par=16, metapipelining=True, pipeline="rewrite"
        )
        with ANALYSIS_CACHE.disabled():
            result = evaluate_point(
                bench.build(), bench.workload({"n": 262144}), point
            )
        assert result.cycles > 0
        assert event_runs == []

    @pytest.mark.parametrize("name", [b.name for b in all_benchmarks()])
    def test_profiled_compile_runs_fewer_than_one_per_candidate(self, name, event_runs):
        bench = get_benchmark(name)
        compiled = Session().compile(
            bench.build(),
            _figure7_meta_config(bench),
            bench.workload(bench.default_sizes),
            par=bench.par_factors.get("inner", 16),
            pipeline="rewrite-profiled",
        )
        details = compiled.report.record("rewrite-schedule").details
        assert 1 <= len(event_runs) < len(BALANCE_FACTOR_CANDIDATES)
        assert details["event_runs"] == len(event_runs)
        assert details["event_reuses"] > 0
