"""Generated-input check: the one-walk ``verify_rewrite`` against its reference.

``verify_rewrite`` takes the module multiset, the DRAM read and write
totals and the source arrays of each schedule from one walk of its tree.
Each example draws an app at its test sizes, a point of its default space,
the ``default`` or ``rewrite`` step set, and one corruption of the
rewritten schedule (or none).  ``ScheduleRewriteError`` must be raised
exactly when the reference comparison differs: the ``modules()`` id
multiset, the ``schedule_traffic`` read and write totals and source set,
and the memory-record ids.  The walk's own totals must equal the
reference's on the corrupted schedule too, so a difference that no
comparison of two trees exposes (a blanked stream source) still shows.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.traffic import schedule_traffic
from repro.apps import all_benchmarks, get_benchmark
from repro.dse.space import default_space
from repro.errors import ScheduleRewriteError
from repro.pipeline import Session
from repro.schedule.ir import StageGroup, StreamNode, TransferNode
from repro.schedule.rewrite import _inventory, clone_schedule, verify_rewrite

BENCH_NAMES = [bench.name for bench in all_benchmarks()]


def _reference(schedule):
    traffic = schedule_traffic(schedule)
    return (
        Counter(id(module) for module in schedule.modules()),
        traffic.read_bytes,
        traffic.write_bytes,
        frozenset(
            source
            for record in traffic.records
            for source in (record.source or record.name).split("+")
        ),
        [id(memory) for memory in schedule.memories],
    )


def _sites(schedule):
    """Per corruption, what it can act on in ``schedule`` (may be empty)."""
    nodes = list(schedule.walk())
    transfers = [node for node in nodes if isinstance(node, TransferNode)]
    streams = [node for node in nodes if isinstance(node, StreamNode)]
    absorbing = [node for node in nodes if node.extra_modules]
    return {
        "drop-extra": absorbing,
        "duplicate-extra": absorbing,
        "bytes": transfers,
        "direction": transfers,
        "iterations": [node for node in nodes if isinstance(node, StageGroup)],
        "source": transfers + streams,
        "store-bytes": streams,
        "drop-memory": list(range(len(schedule.memories))),
    }


def _corrupt(schedule, corruption, site, draw) -> None:
    """Apply one corruption at ``site`` in place."""
    if corruption == "drop-extra":
        site.extra_modules.pop(draw(st.integers(0, len(site.extra_modules) - 1)))
    elif corruption == "duplicate-extra":
        site.extra_modules.append(draw(st.sampled_from(site.extra_modules)))
    elif corruption == "bytes":
        site.bytes_per_invocation += draw(st.sampled_from([-1, 1, 4096]))
    elif corruption == "direction":
        site.direction = draw(st.sampled_from(["load", "store", "stream", "copy"]))
    elif corruption == "iterations":
        site.iterations = draw(st.integers(0, 5))
    elif corruption == "source":
        sites = _sites(schedule)["source"]
        known = sorted({node.source for node in sites})
        site.source = draw(st.sampled_from(known + ["", "renamed", "+".join(known)]))
    elif corruption == "store-bytes":
        reads = site.read_bytes
        site.store_bytes = draw(st.sampled_from([0, 8, site.total_bytes]))
        if draw(st.booleans()):  # move only the writes
            site.total_bytes = reads + site.store_bytes
    elif corruption == "drop-memory":
        schedule.memories.pop(site)


@st.composite
def cases(draw):
    bench = get_benchmark(draw(st.sampled_from(BENCH_NAMES)))
    variant = draw(st.sampled_from(["default", "rewrite"]))
    space = list(
        default_space(
            {name: bench.test_sizes[name] for name in bench.tile_sizes},
            pars=(4, 16),
            max_tiles_per_dim=2,
            pipelines=(variant,),
        )
    )
    # Baseline designs stream (no transfers); tiled ones transfer tiles.
    tiled = draw(st.booleans())
    return bench, draw(st.sampled_from([p for p in space if bool(p.tile_sizes) == tiled]))


@given(case=cases(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_verify_rewrite_rejects_exactly_what_the_reference_rejects(case, data):
    bench, point = case
    compiled = Session().compile_point(
        bench.build(), point, bench.workload(bench.test_sizes)
    )
    original = compiled.design.schedule()
    rewritten = clone_schedule(compiled.schedule)
    sites = _sites(rewritten)
    corruption = data.draw(
        st.sampled_from(["none"] + [name for name, found in sites.items() if found])
    )
    if corruption != "none":
        site = data.draw(st.sampled_from(sites[corruption]))
        _corrupt(rewritten, corruption, site, data.draw)
    reference = _reference(rewritten)
    assert _inventory(rewritten) == reference[:4]
    if _reference(original) != reference:
        with pytest.raises(ScheduleRewriteError):
            verify_rewrite(original, rewritten)
    else:
        verify_rewrite(original, rewritten)
