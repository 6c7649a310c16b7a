"""E4 — Tables 1 and 2: the strip-mining rules on the paper's worked examples."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import get_benchmark
from repro.config import CompileConfig
from repro.pipeline import PassContext
from repro.ppl import builder as b
from repro.ppl.interp import run_program
from repro.ppl.ir import ArrayCopy, ArrayLit, Cmp, EmptyArray, FlatMap, MultiFold, Select
from repro.ppl.printer import pretty
from repro.ppl.program import Program
from repro.ppl.traversal import collect, find_patterns
from repro.rewrite import StripMine, TileCopies


def _elementwise_map():
    n = b.size_sym("n")
    x = b.array_sym("x", 1)
    body = b.pmap(b.domain(n), lambda i: b.mul(b.apply_array(x, i), b.flt(2.0)))
    return Program("table2_map", inputs=[x], sizes=[n], body=body)


def _filter():
    n = b.size_sym("n")
    x = b.array_sym("x", 1)
    body = b.flat_map(
        b.domain(n),
        lambda i: Select(
            Cmp(">", b.apply_array(x, i), b.flt(0.0)),
            ArrayLit((b.apply_array(x, i),)),
            EmptyArray(),
        ),
    )
    return Program("table2_filter", inputs=[x], sizes=[n], body=body)


def _strip(program, tiles):
    """Strip mining (Table 1) then tile-copy insertion (Table 2)."""
    ctx = PassContext(config=CompileConfig(tiling=True, tile_sizes=tiles))
    return TileCopies().apply(StripMine().apply(program, ctx), ctx)


def test_table2_elementwise_map(benchmark):
    """Row 1: Map → MultiFold of Map with an x tile copy."""
    tiled = benchmark(_strip, _elementwise_map(), {"n": 64})
    print("\n" + pretty(tiled.body)[:400])
    assert isinstance(tiled.body, MultiFold)
    assert collect(tiled.body, lambda node: isinstance(node, ArrayCopy))

    x = np.random.default_rng(0).normal(size=256)
    np.testing.assert_allclose(
        run_program(tiled, {"x": x, "n": 256}), 2 * x
    )


def test_table2_sumrows(benchmark):
    """Row 2: MultiFold → MultiFold of MultiFold with a Let-bound tile."""
    bench = get_benchmark("sumrows")
    tiled = benchmark(_strip, bench.build(), {"m": 8, "n": 8})
    strided = [p for p in find_patterns(tiled.body) if p.domain.is_strided]
    assert strided
    bindings = bench.bindings({"m": 16, "n": 24}, np.random.default_rng(1))
    np.testing.assert_allclose(
        run_program(tiled, bindings), np.asarray(bindings["x"]).sum(axis=1)
    )


def test_table2_filter(benchmark):
    """Row 3: FlatMap → FlatMap of FlatMap."""
    tiled = benchmark(_strip, _filter(), {"n": 32})
    assert isinstance(tiled.body, FlatMap)
    inner = [p for p in find_patterns(tiled.body.func.body) if isinstance(p, FlatMap)]
    assert inner

    x = np.random.default_rng(2).normal(size=128)
    np.testing.assert_allclose(
        run_program(tiled, {"x": x, "n": 128}), x[x > 0]
    )


def test_table2_histogram_groupbyfold(benchmark):
    """Row 4: GroupByFold keeps its flat form (documented deviation), tile size recorded."""
    n = b.size_sym("n")
    x = b.array_sym("x", 1)
    body = b.group_by_fold(
        b.domain(n),
        init=b.flt(0.0),
        key_builder=lambda i: b.apply_array(x, i),
        value_builder=lambda i, acc: b.add(acc, 1.0),
    )
    program = Program("table2_hist", inputs=[x], sizes=[n], body=body)
    tiled = benchmark(_strip, program, {"n": 32})
    assert tiled.body.meta.get("strip_mined")

    x_val = np.asarray([1.0, 2.0, 1.0, 3.0] * 16)
    result = {k: v for k, v in run_program(tiled, {"x": x_val, "n": 64})}
    assert result == {1: 32.0, 2: 16.0, 3: 16.0}
