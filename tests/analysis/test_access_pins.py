"""Pinned access analyses: traffic records, minimum reads and preload plans,
hashed exactly.

Hardware generation's access records feed the baseline stream model and
the tiled designs' unhandled-access accounting, Figure 5c's minimum reads
feed the traffic table, and the preload plan decides which inputs Section 5
holds on chip.  These digests pin all three over the source and the four
stage snapshots of

* every tiling in each app's default space, at test and at default sizes;
* each app's Figure 7 tiling, at both sizes;
* a tile of ``min(5, extent)`` on every tiled key at test sizes, which
  leaves a partial tile wherever the extent exceeds 5 (the default spaces'
  tiles start at 16, and an extent under 16 is tiled whole);
* kmeans' Figure 5c tiling (``n`` and ``k`` tiled), the one configuration
  here on which split-and-interchange fires.

The records are taken for the body and every ``Pattern`` node, in walk
order, and kept in order: the baseline turns the first eight records of a
kernel into stream buffers.  Every analysis runs with the analysis cache
off, so the digests pin the walk, not its memo.
"""

import hashlib

import pytest

from repro.analysis.traffic import minimum_reads
from repro.apps import all_benchmarks
from repro.config import CompileConfig
from repro.dse.cache import ANALYSIS_CACHE, AnalysisCache
from repro.dse.space import default_space
from repro.evaluation.figure5c import DEFAULT_SIZES as FIGURE5C_SIZES
from repro.evaluation.figure5c import DEFAULT_TILES as FIGURE5C_TILES
from repro.hw.generation import GenerationShared
from repro.pipeline import Session, default_pipeline
from repro.ppl.ir import Pattern
from repro.ppl.traversal import walk

TILING_FLOW = default_pipeline().without("generate-hardware", "build-schedule", "estimate-area")

#: blake2b of each analysis over the programs below.
RECORDS_DIGEST = "215b8a05a07486792450bdd28558178b"
MINIMUM_READS_DIGEST = "dc0c0d2a3c14c46530363fe13b3dcd09"
PRELOAD_PLANS_DIGEST = "557638fb3526da0fcac7d32ef758a54b"


def _digest(lines) -> str:
    return hashlib.blake2b("\n".join(lines).encode(), digest_size=16).hexdigest()


def _tilings(bench):
    """``(size tag, sizes, tile sizes or None)`` of every pinned compile."""
    for tag in ("test", "default"):
        sizes = bench.test_sizes if tag == "test" else bench.default_sizes
        space = default_space(
            {name: sizes[name] for name in bench.tile_sizes}, pars=(16,), metapipelining=(False,)
        )
        for point in space.points:
            yield tag, sizes, dict(point.tiles) if point.tiling else None
        yield tag, sizes, dict(bench.tile_sizes)
    sizes = bench.test_sizes
    yield "test", sizes, {name: min(5, sizes[name]) for name in bench.tile_sizes}
    if bench.name == "kmeans":
        yield "figure5c", FIGURE5C_SIZES, dict(FIGURE5C_TILES)


@pytest.fixture(scope="module")
def programs():
    """``(label, program, workload)`` of every pinned program form."""
    forms = []
    splits = 0
    for bench in all_benchmarks():
        for tag, sizes, tiles in _tilings(bench):
            config = (
                CompileConfig(tiling=True, tile_sizes=tiles) if tiles else CompileConfig()
            )
            workload = bench.workload(sizes)
            session = Session(cache=AnalysisCache())
            tiling = session.compile(bench.build(), config, workload, pipeline=TILING_FLOW).tiling
            splits += "split" in tiling.applied_interchanges
            for stage, program in tiling.stages().items():
                label = f"{bench.name}|{tag}|{sorted((tiles or {}).items())}|{stage}"
                forms.append((label, program, workload))
    assert splits == 1  # only kmeans' Figure 5c tiling splits
    return forms


def test_traffic_records_are_pinned(programs):
    lines = []
    roots = 0
    with ANALYSIS_CACHE.disabled():
        for label, program, workload in programs:
            shared = GenerationShared(program, workload)
            body = program.body
            for position, root in enumerate(
                [body] + [node for node in walk(body) if isinstance(node, Pattern)]
            ):
                roots += 1
                for record in shared.traffic(root):
                    lines.append(
                        f"{label}|{position}|{record.array}|{record.is_copy}|"
                        f"{record.words_per_trip}|{record.trips}|{record.stream}|"
                        f"{record.run_words}"
                    )
    assert (len(programs), roots, len(lines)) == (735, 3200, 4985)
    assert _digest(lines) == RECORDS_DIGEST


def test_minimum_reads_are_pinned(programs):
    lines = []
    with ANALYSIS_CACHE.disabled():
        for label, program, workload in programs:
            report = minimum_reads(program, workload)
            for array, entry in sorted(report.entries.items()):
                lines.append(
                    f"{label}|{array}|{entry.main_memory_words}|{entry.on_chip_words}"
                )
    assert len(lines) == 1580
    assert _digest(lines) == MINIMUM_READS_DIGEST


def test_preload_plans_are_pinned(programs):
    with ANALYSIS_CACHE.disabled():
        plans = [
            (label, GenerationShared(program, workload).preload_plan())
            for label, program, workload in programs
        ]
    assert sum(bool(plan) for _, plan in plans) == 189
    assert _digest(f"{label}|{plan!r}" for label, plan in plans) == PRELOAD_PLANS_DIGEST
