"""The session's per-configuration memo: visible, bounded and exact.

With the analysis cache on, ``evaluate_point`` prices a stock point under
the analytical model on its configuration's tiled program and generation
state, kept by the session (``CompilerSession.config_state``).  A
bit-identity test cannot see a silent bypass, so these tests read the
memo's counters as well as the results: a shuffled single-point sweep
misses once per (app, configuration), and a generated sequence under a
small bound misses, hits and evicts exactly as an LRU over its
configurations would while every result equals cache-off
``evaluate_point`` field for field.
"""

from collections import Counter, OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import all_benchmarks, get_benchmark
from repro.dse import engine
from repro.dse.cache import ANALYSIS_CACHE, config_signature
from repro.dse.engine import PointLedger, _point_key, evaluate_point, explore
from repro.dse.space import default_space
from repro.pipeline import session as session_module
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.session import CompilerSession

BENCHES = all_benchmarks()
PIPELINES = ("default", "rewrite")

#: Cache-off ``evaluate_point`` results by (app, size scale, point).
_REFERENCES = {}


@pytest.fixture(autouse=True)
def _fresh_cache():
    ANALYSIS_CACHE.clear()
    yield
    ANALYSIS_CACHE.clear()


def _space(bench):
    sizes = bench.default_sizes
    dims = {name: sizes[name] for name in bench.tile_sizes if name in sizes}
    return list(default_space(dims, pipelines=PIPELINES))


def _scaled(bench, scale):
    return {name: value * scale for name, value in bench.default_sizes.items()}


def _reference(bench, program, scale, point):
    key = (bench.name, scale, point)
    if key not in _REFERENCES:
        with ANALYSIS_CACHE.disabled():
            _REFERENCES[key] = evaluate_point(
                program, bench.workload(_scaled(bench, scale)), point
            )
    return _REFERENCES[key]


def _lru(keys, limit):
    """(entries, misses, evictions) of an LRU of ``limit`` over ``keys``."""
    held = OrderedDict()
    misses = evictions = 0
    for key in keys:
        if key in held:
            held.move_to_end(key)
            continue
        misses += 1
        held[key] = None
        if len(held) > limit:
            held.popitem(last=False)
            evictions += 1
    return len(held), misses, evictions


def test_default_spaces_miss_once_per_configuration():
    tasks = []
    for bench in BENCHES:
        program, workload = bench.build(), bench.workload(bench.default_sizes)
        tasks += [(bench.name, program, workload, point) for point in _space(bench)]
    np.random.default_rng(7).shuffle(tasks)
    session = CompilerSession()
    for _, program, workload, point in tasks:
        evaluate_point(program, workload, point, session=session)
    configurations = {(name, config_signature(point.config())) for name, _, _, point in tasks}
    assert (len(tasks), len(configurations)) == (1776, 114)
    assert session.config_state_stats() == {
        "entries": 114,
        "hits": 1776 - 114,
        "misses": 114,
        "evictions": 0,
    }


@st.composite
def sequences(draw):
    """An app, a memo bound, and (size scale, point) pairs with repeats."""
    bench = draw(st.sampled_from(BENCHES))
    space = _space(bench)
    picks = draw(
        st.lists(
            st.tuples(st.sampled_from((1, 2)), st.integers(0, len(space) - 1)),
            min_size=1,
            max_size=12,
        )
    )
    # Repeat a drawn stretch, so entries are met again after evictions.
    picks += picks[: draw(st.integers(0, len(picks)))]
    return bench, draw(st.integers(1, 4)), [(scale, space[index]) for scale, index in picks]


@given(case=sequences())
@settings(max_examples=60, deadline=None)
def test_session_memo_matches_cache_off_evaluation(case):
    """One session serves a program bound at two sizes under a small bound:
    every result equals the cache-off reference, and the memo counts match
    an LRU keyed by (size, configuration) — so sizes never share an entry."""
    bench, limit, sequence = case
    program = bench.build()
    workloads = {scale: bench.workload(_scaled(bench, scale)) for scale in (1, 2)}
    session = CompilerSession()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(session_module, "CONFIG_STATE_LIMIT", limit)
        for scale, point in sequence:
            # Every call prices through the memo, repeats included.
            ANALYSIS_CACHE.clear("point_results")
            got = evaluate_point(program, workloads[scale], point, session=session)
            assert got == _reference(bench, program, scale, point), (scale, point.label)
    keys = [(scale, config_signature(point.config())) for scale, point in sequence]
    entries, misses, evictions = _lru(keys, limit)
    assert session.config_state_stats() == {
        "entries": entries,
        "hits": len(keys) - misses,
        "misses": misses,
        "evictions": evictions,
    }


def test_cache_off_evaluation_keeps_no_session_state():
    bench = BENCHES[0]
    program, workload = bench.build(), bench.workload(bench.default_sizes)
    session = CompilerSession()
    with ANALYSIS_CACHE.disabled():
        for point in _space(bench)[:4]:
            evaluate_point(program, workload, point, session=session)
    assert session.config_state_stats() == {
        "entries": 0,
        "hits": 0,
        "misses": 0,
        "evictions": 0,
    }


def test_exploration_reports_the_memo():
    result = explore("sumrows", sizes={"m": 1024, "n": 128}, pipelines=PIPELINES)
    configurations = {config_signature(r.point.config()) for r in result.evaluated}
    stats = result.cache_stats["config_state"]
    assert stats["misses"] == stats["entries"] == len(configurations)
    assert stats["evictions"] == 0


def test_clear_caches_empties_the_memo():
    bench = BENCHES[0]
    program, workload = bench.build(), bench.workload(bench.default_sizes)
    session = CompilerSession()
    for point in _space(bench)[:4]:
        evaluate_point(program, workload, point, session=session)
    assert session.config_state_stats()["entries"] > 0
    session.clear_caches()
    assert session.config_state_stats() == {
        "entries": 0,
        "hits": 0,
        "misses": 0,
        "evictions": 0,
    }


def test_ledger_derives_each_workload_head_once(monkeypatch):
    """A ledger keys a program at two sizes as ``_point_key`` does, deriving
    each workload's head once."""
    bench = get_benchmark("gemm")
    program = bench.build()
    workloads = [bench.workload(_scaled(bench, scale)) for scale in (1, 2)]
    points = _space(bench)[:5]
    session = CompilerSession()
    expected = [
        _point_key(program, workload, point, session, session.model)
        for workload in workloads
        for point in points
    ]
    derived = Counter()
    derive = engine._workload_head

    def counted(program, bindings):
        derived[id(bindings)] += 1
        return derive(program, bindings)

    monkeypatch.setattr(engine, "_workload_head", counted)
    ledger = PointLedger(session)
    keys = [
        ledger.key(program, workload, point, "analytical")
        for workload in workloads
        for point in points
    ]
    assert keys == expected
    assert len(set(keys)) == len(keys)
    assert sorted(derived.values()) == [1, 1]


def test_a_new_session_builds_no_pipeline_for_a_gene_split_before(monkeypatch):
    """Each gene's pipeline is split once per process, so a fresh session —
    a farm lane's, a pool worker's — prices its first point of that gene
    without building a pipeline."""
    bench = get_benchmark("sumrows")
    program, workload = bench.build(), bench.workload(bench.test_sizes)
    dims = {name: bench.test_sizes[name] for name in bench.tile_sizes}
    first, second = list(default_space(dims, pars=(4, 8), pipelines=("rewrite",)))[-2:]
    with ANALYSIS_CACHE.disabled():
        expected = evaluate_point(program, workload, second)
    evaluate_point(program, workload, first, session=CompilerSession())
    session = CompilerSession()

    def built(self, passes, name="custom"):
        raise AssertionError(f"built pipeline {name!r}")

    monkeypatch.setattr(Pipeline, "__init__", built)
    assert evaluate_point(program, workload, second, session=session) == expected
