"""Pinned point keys: every ``point_results`` key of the swept spaces, hashed.

A disk store written by one version of the engine serves another only if
both derive the same key for the same point: the workload head, the point's
genes, the pass-sequence signature its pipeline gene resolves to, the
cycle model, the board and the model with the point's DRAM-channel gene
folded in.  This digest pins ``repr`` of every key of the six apps'
default spaces at test sizes, under every named pipeline variant and two
``auto:`` orderings, both cycle models and one and two DRAM channels, so a
change to how any part of a key is derived shows up here.
"""

import hashlib

from repro.apps import all_benchmarks
from repro.dse.engine import _point_key
from repro.dse.space import default_space
from repro.pipeline import CompilerSession, pipeline_variants
from repro.rewrite.orderings import guided_orderings, ordering_name

#: blake2b of ``repr`` of every key below (2,816 keys).
POINT_KEYS_DIGEST = "09be8de31d94022cd61afc04deff4a05"

CYCLE_MODELS = ("analytical", "event")


def _genes():
    return tuple(pipeline_variants()) + tuple(
        ordering_name(steps) for steps in guided_orderings(seed=7, count=2)
    )


def test_point_keys_are_pinned():
    session = CompilerSession()
    genes = _genes()
    assert len(genes) == 8
    lines = []
    for bench in all_benchmarks():
        program = bench.build()
        workload = bench.workload(bench.test_sizes)
        dims = {name: bench.test_sizes[name] for name in bench.tile_sizes}
        space = default_space(dims, pipelines=genes, channels=(1, 2))
        for point in space:
            for cycle_model in CYCLE_MODELS:
                key = _point_key(program, workload, point, session, None, cycle_model)
                assert key is not None
                lines.append(repr(key))
    assert len(lines) == 2816
    digest = hashlib.blake2b("\n".join(lines).encode(), digest_size=16).hexdigest()
    assert digest == POINT_KEYS_DIGEST
