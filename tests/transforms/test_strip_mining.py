"""Strip mining (Table 1 / Table 2): structure and semantics preservation."""

import numpy as np
import pytest

from repro.apps import get_benchmark
from repro.config import CompileConfig
from repro.pipeline import PassContext, TransformationStage
from repro.ppl import builder as b
from repro.ppl.interp import run_program
from repro.ppl.ir import ArrayCopy, FlatMap, Let, Map, MultiFold, Select, Cmp, ArrayLit, EmptyArray
from repro.ppl.printer import pretty
from repro.ppl.program import Program
from repro.ppl.traversal import collect, find_patterns
from repro.ppl.types import INDEX
from repro.rewrite import StripMine, TileCopies


def _config(**tiles):
    return CompileConfig(tiling=True, tile_sizes=tiles)


def _strip_mine(program, config):
    """Strip mining plus tile-copy insertion (Tables 1 and 2)."""
    ctx = PassContext(config=config)
    return TileCopies().apply(StripMine().apply(program, ctx), ctx)


def _elementwise_map_program():
    n = b.sym("n", INDEX)
    x = b.array_sym("x", 1)
    body = b.pmap(b.domain(n), lambda i: b.mul(b.apply_array(x, i), b.flt(2.0)))
    return Program("double", inputs=[x], sizes=[n], body=body)


def _filter_program():
    n = b.sym("n", INDEX)
    x = b.array_sym("x", 1)
    body = b.flat_map(
        b.domain(n),
        lambda i: Select(
            Cmp(">", b.apply_array(x, i), b.flt(0.0)),
            ArrayLit((b.apply_array(x, i),)),
            EmptyArray(),
        ),
    )
    return Program("filter", inputs=[x], sizes=[n], body=body)


class TestTable2ElementwiseMap:
    """Row 1 of Table 2: an element-wise map becomes a MultiFold of Maps."""

    def test_structure(self):
        program = _elementwise_map_program()
        tiled = _strip_mine(program, _config(n=4))
        outer = tiled.body
        assert isinstance(outer, MultiFold)
        assert outer.domain.is_strided
        assert outer.combine is None  # the unused combiner, written "(_)" in Table 1
        assert outer.meta.get("tiled_from") == "Map"
        inner_maps = [p for p in find_patterns(outer) if isinstance(p, Map)]
        assert inner_maps, "the inner tile Map must survive"

    def test_tile_copy_inserted(self):
        program = _elementwise_map_program()
        tiled = _strip_mine(program, _config(n=4))
        copies = collect(tiled.body, lambda node: isinstance(node, ArrayCopy))
        assert len(copies) == 1
        copy = copies[0]
        assert copy.array is program.inputs[0] or copy.array.name == "x"

    def test_semantics_preserved(self, rng):
        program = _elementwise_map_program()
        tiled = _strip_mine(program, _config(n=4))
        x = rng.normal(size=12)
        base = run_program(program, {"x": x, "n": 12})
        opt = run_program(tiled, {"x": x, "n": 12})
        np.testing.assert_allclose(opt, base)

    def test_untiled_dimension_left_alone(self):
        program = _elementwise_map_program()
        tiled = _strip_mine(program, _config(m=4))  # no tile size for "n"
        assert isinstance(tiled.body, Map)


class TestTable2Sumrows:
    """Row 2 of Table 2: nested MultiFold with a tiled partial accumulator."""

    def test_structure(self):
        bench = get_benchmark("sumrows")
        program = bench.build()
        tiled = _strip_mine(program, _config(m=4, n=4))
        outer = tiled.body
        assert isinstance(outer, MultiFold)
        assert outer.domain.is_strided
        assert outer.meta.get("tiled_from") == "MultiFold"
        # Inner MultiFold reduces one tile; its result is Let-bound ("tile = ...").
        lets = collect(outer, lambda node: isinstance(node, Let))
        assert any(isinstance(let.value, MultiFold) for let in lets)

    def test_tile_copy_of_input(self):
        bench = get_benchmark("sumrows")
        tiled = _strip_mine(bench.build(), _config(m=4, n=4))
        copies = collect(tiled.body, lambda node: isinstance(node, ArrayCopy))
        assert len(copies) >= 1
        assert {c.array.name for c in copies} == {"x"}

    def test_semantics_preserved(self, rng):
        bench = get_benchmark("sumrows")
        program = bench.build()
        tiled = _strip_mine(program, _config(m=3, n=4))
        bindings = bench.bindings({"m": 6, "n": 8}, rng)
        np.testing.assert_allclose(
            run_program(tiled, bindings), run_program(program, bindings)
        )

    def test_semantics_with_partial_tiles(self, rng):
        """Tile sizes that do not divide the extent still work (min checks)."""
        bench = get_benchmark("sumrows")
        program = bench.build()
        tiled = _strip_mine(program, _config(m=4, n=4))
        bindings = bench.bindings({"m": 6, "n": 10}, rng)
        np.testing.assert_allclose(
            run_program(tiled, bindings), run_program(program, bindings)
        )


class TestTable2Filter:
    """Row 3 of Table 2: FlatMap nests into FlatMap of FlatMap."""

    def test_structure(self):
        program = _filter_program()
        tiled = _strip_mine(program, _config(n=4))
        outer = tiled.body
        assert isinstance(outer, FlatMap)
        assert outer.domain.is_strided
        inner = outer.func.body
        while isinstance(inner, Let):
            inner = inner.body
        assert isinstance(inner, FlatMap)
        assert not inner.domain.is_strided

    def test_semantics_preserved(self, rng):
        program = _filter_program()
        tiled = _strip_mine(program, _config(n=4))
        x = rng.normal(size=16)
        np.testing.assert_allclose(
            run_program(tiled, {"x": x, "n": 16}),
            run_program(program, {"x": x, "n": 16}),
        )


class TestStripMinedBenchmarks:
    """Strip mining preserves the semantics of every benchmark program."""

    @pytest.mark.parametrize(
        "name", ["outerprod", "sumrows", "gemm", "tpchq6", "gda", "kmeans"]
    )
    def test_benchmark_semantics(self, name, rng):
        bench = get_benchmark(name)
        program = bench.build()
        config = CompileConfig(tiling=True, tile_sizes={k: 2 for k in bench.tile_sizes})
        tiled = _strip_mine(program, config)
        bindings = bench.bindings(rng=rng)
        base = run_program(program, bindings)
        opt = run_program(tiled, bindings)
        np.testing.assert_allclose(
            np.asarray(opt, dtype=float), np.asarray(base, dtype=float), rtol=1e-9
        )

    def test_gemm_three_level_structure(self):
        bench = get_benchmark("gemm")
        tiled = _strip_mine(bench.build(), _config(m=2, n=2, p=2))
        strided = [p for p in find_patterns(tiled.body) if p.domain.is_strided]
        assert len(strided) >= 2  # output tile loop + reduction tile loop

    def test_kmeans_points_tile_copy(self):
        bench = get_benchmark("kmeans")
        tiled = _strip_mine(bench.build(), _config(n=4))
        copies = collect(tiled.body, lambda node: isinstance(node, ArrayCopy))
        assert any(c.array.name == "points" for c in copies)
        # centroids are not tiled in this configuration (k untiled), so no
        # centroid tile copy is created.
        assert not any(c.array.name == "centroids" for c in copies)

    def test_kmeans_both_tiled_creates_centroid_copy(self):
        bench = get_benchmark("kmeans")
        tiled = _strip_mine(bench.build(), _config(n=4, k=2))
        copies = collect(tiled.body, lambda node: isinstance(node, ArrayCopy))
        assert any(c.array.name == "centroids" for c in copies)

    def test_kmeans_both_tiled_semantics(self, rng):
        bench = get_benchmark("kmeans")
        program = bench.build()
        tiled = _strip_mine(program, _config(n=4, k=2))
        bindings = bench.bindings({"n": 8, "k": 4, "d": 3}, rng)
        np.testing.assert_allclose(
            run_program(tiled, bindings), run_program(program, bindings), rtol=1e-9
        )


class TestPassBehaviour:
    def test_disabled_tiling_is_identity(self):
        program = _elementwise_map_program()
        ctx = PassContext(config=CompileConfig(tiling=False, tile_sizes={"n": 4}))
        assert TransformationStage(StripMine()).run(program, ctx) is program
        assert TransformationStage(TileCopies()).run(program, ctx) is program

    def test_strided_pattern_not_restripped(self):
        program = _elementwise_map_program()
        once = _strip_mine(program, _config(n=4))
        twice = StripMine().apply(once, PassContext(config=_config(n=4)))
        # Already-strided dimensions are skipped; node count should not grow.
        from repro.ppl.traversal import count_nodes

        assert count_nodes(twice.body) == count_nodes(once.body)

    def test_printer_renders_tiled_program(self):
        program = _elementwise_map_program()
        tiled = _strip_mine(program, _config(n=4))
        text = pretty(tiled.body)
        assert "copy" in text
        assert "multiFold" in text
