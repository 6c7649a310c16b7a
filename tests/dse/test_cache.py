"""The analysis cache, structural hashing and memoisation correctness."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.estimate import (
    StaticEvaluator,
    count_scalar_ops,
    input_shapes,
    traffic_records,
    workload_env,
)
from repro.apps import get_benchmark
from repro.config import CompileConfig
from repro.dse.cache import ANALYSIS_CACHE, AnalysisCache, config_signature, env_signature
from repro.ppl import builder as b
from repro.pipeline import Session
from repro.ppl.ir import Pattern, structural_hash
from repro.ppl.traversal import walk
from repro.utils.naming import reset_names


def _fingerprint(program):
    """Structural hash, pattern meta in walk order (the hash ignores meta)
    and the pre-order index of each non-leaf node's first occurrence."""
    nodes = list(walk(program.body))
    first = {}
    return (
        program.body.structural_hash(),
        [dict(node.meta) for node in nodes if isinstance(node, Pattern)],
        [first.setdefault(id(node), index) for index, node in enumerate(nodes) if node.children()],
    )


@pytest.fixture(autouse=True)
def _fresh_cache():
    ANALYSIS_CACHE.clear()
    yield
    ANALYSIS_CACHE.clear()


class TestStructuralHash:
    def test_identical_structure_same_names_hash_equal(self):
        reset_names()
        first = get_benchmark("gemm").build()
        reset_names()
        second = get_benchmark("gemm").build()
        assert first.body is not second.body
        assert structural_hash(first.body) == structural_hash(second.body)

    def test_different_programs_hash_differently(self):
        gemm = get_benchmark("gemm").build()
        kmeans = get_benchmark("kmeans").build()
        assert structural_hash(gemm.body) != structural_hash(kmeans.body)

    def test_constants_distinguish_trees(self):
        x = b.array_sym("x", 1)
        left = b.add(b.apply_array(x, 0), 1.0)
        right = b.add(b.apply_array(x, 0), 2.0)
        assert structural_hash(left) != structural_hash(right)

    def test_hash_is_cached_on_the_node(self):
        expr = b.add(b.flt(1.0), b.flt(2.0))
        value = expr.structural_hash()
        assert expr._shash == value
        assert expr.structural_hash() == value


class TestAnalysisCache:
    def test_memoize_computes_once(self):
        cache = AnalysisCache()
        calls = []
        for _ in range(3):
            value = cache.memoize("t", "key", lambda: calls.append(1) or 42)
        assert value == 42
        assert len(calls) == 1
        assert cache.stats()["t"] == {"entries": 1, "hits": 2, "misses": 1, "evictions": 0}

    def test_disabled_context_recomputes(self):
        cache = AnalysisCache()
        cache.memoize("t", "key", lambda: "cached")
        with cache.disabled():
            assert cache.memoize("t", "key", lambda: "fresh") == "fresh"
        assert cache.memoize("t", "key", lambda: "fresh") == "cached"

    def test_clear_by_table_and_whole(self):
        cache = AnalysisCache()
        cache.put("a", 1, "x")
        cache.put("b", 2, "y")
        cache.clear("a")
        assert cache.size("a") == 0 and cache.size("b") == 1
        cache.clear()
        assert cache.size() == 0

    def test_env_signature_keyed_by_names(self):
        n1 = b.size_sym("n")
        reset_names()
        n2 = b.size_sym("n")
        assert n1 is not n2
        assert env_signature({n1: 4}) == env_signature({n2: 4})
        assert env_signature({n1: 4}) != env_signature({n1: 8})

    def test_config_signature_ignores_par_and_metapipelining(self):
        base = CompileConfig(tiling=True, tile_sizes={"n": 64})
        meta = CompileConfig(tiling=True, metapipelining=True, tile_sizes={"n": 64})
        par = CompileConfig(tiling=True, tile_sizes={"n": 64}, default_par=64)
        assert config_signature(base) == config_signature(meta) == config_signature(par)
        other = CompileConfig(tiling=True, tile_sizes={"n": 128})
        assert config_signature(base) != config_signature(other)


class TestLRUBounding:
    def test_memory_stays_bounded_over_a_500_point_sweep(self):
        """A 500-point sweep through a bounded cache keeps at most maxsize
        entries per table while still returning every result."""
        cache = AnalysisCache(maxsize=64)
        for i in range(500):
            value = cache.memoize("point_results", ("point", i), lambda i=i: i * 2)
            assert value == i * 2
            assert cache.size("point_results") <= 64
        assert cache.size("point_results") == 64
        assert cache.evictions["point_results"] == 500 - 64
        # The most recent entries survive, the oldest were evicted.
        assert cache.get("point_results", ("point", 499)) == 998
        assert cache.get("point_results", ("point", 0)) is None

    def test_hits_refresh_recency(self):
        cache = AnalysisCache(maxsize=2)
        cache.memoize("t", "a", lambda: 1)
        cache.memoize("t", "b", lambda: 2)
        cache.memoize("t", "a", lambda: 1)  # refresh "a"
        cache.memoize("t", "c", lambda: 3)  # evicts "b", not "a"
        assert cache.get("t", "a") == 1
        assert cache.get("t", "b") is None

    def test_unbounded_cache_never_evicts(self):
        cache = AnalysisCache(maxsize=None)
        for i in range(200):
            cache.put("t", i, i)
        assert cache.size("t") == 200
        assert cache.evictions["t"] == 0

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            AnalysisCache(maxsize=0)

    def test_global_cache_is_bounded(self):
        from repro.dse.cache import DEFAULT_TABLE_MAXSIZE

        assert ANALYSIS_CACHE.maxsize == DEFAULT_TABLE_MAXSIZE


class TestDiskPersistence:
    def test_round_trip(self, tmp_path):
        store = tmp_path / "analysis.pkl"
        cache = AnalysisCache()
        cache.put("t", ("k", 1), "value")
        cache.put("u", ("k", 2), (1, 2.5))
        assert cache.save_disk(store)
        fresh = AnalysisCache()
        assert fresh.load_disk(store) == 2
        assert fresh.get("t", ("k", 1)) == "value"
        assert fresh.get("u", ("k", 2)) == (1, 2.5)

    def test_version_mismatch_invalidates(self, tmp_path, monkeypatch):
        import warnings

        import repro.dse.cache as cache_module

        store = tmp_path / "analysis.pkl"
        stale = AnalysisCache()
        stale.put("t", "k", "stale")
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "CACHE_VERSION", -1)
            assert stale.save_disk(store)
        cache = AnalysisCache()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # ignored silently, not quarantined
            assert cache.load_disk(store) == 0
        assert cache.get("t", "k") is None
        assert store.exists()

    def test_corrupt_store_is_ignored(self, tmp_path):
        store = tmp_path / "analysis.pkl"
        store.write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning, match="failed validation"):
            assert AnalysisCache().load_disk(store) == 0

    def test_missing_store_is_ignored(self, tmp_path):
        assert AnalysisCache().load_disk(tmp_path / "absent.pkl") == 0

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = tmp_path / "analysis.pkl"
        cache = AnalysisCache()
        cache.put("t", "k", "v")
        cache.save_disk(store)
        # Besides the store itself, only the advisory-lock sidecar may
        # exist (it must persist: unlinking a lock file lets a late
        # waiter and a fresh creator hold "the" lock simultaneously).
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "analysis.pkl",
            "analysis.pkl.lock",
        ]

    def test_unpicklable_entries_are_skipped(self, tmp_path):
        store = tmp_path / "analysis.pkl"
        cache = AnalysisCache()
        cache.put("t", "good", 42)
        cache.put("t", "bad", lambda: None)  # unpicklable value
        assert cache.save_disk(store)
        fresh = AnalysisCache()
        assert fresh.load_disk(store) == 1
        assert fresh.get("t", "good") == 42

    def test_dirty_tracking_skips_redundant_saves(self, tmp_path):
        store = tmp_path / "analysis.pkl"
        cache = AnalysisCache()
        cache.put("t", "k", "v")
        assert cache.dirty
        assert cache.save_disk(store, only_if_dirty=True)
        assert not cache.dirty
        # A pure-hit workload stays clean: no rewrite.
        cache.memoize("t", "k", lambda: "v")
        assert not cache.save_disk(store, only_if_dirty=True)
        cache.put("t", "k2", "v2")
        assert cache.save_disk(store, only_if_dirty=True)

    def test_load_respects_lru_bound(self, tmp_path):
        store = tmp_path / "analysis.pkl"
        big = AnalysisCache()
        for i in range(100):
            big.put("t", i, i)
        big.save_disk(store)
        small = AnalysisCache(maxsize=10)
        small.load_disk(store)
        assert small.size("t") == 10
        # Entries persisted in LRU order: the most recent survive the reload.
        assert small.get("t", 99) == 99

    def test_structural_hash_stable_across_processes(self):
        """Disk keys embed structural hashes, so the hash of the same program
        must be identical in a fresh interpreter (PYTHONHASHSEED differs)."""
        import subprocess
        import sys

        script = (
            "from repro.apps import get_benchmark;"
            "print(get_benchmark('gemm').build().body.structural_hash())"
        )
        runs = {
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
                check=True,
            ).stdout.strip()
            for seed in ("1", "2")
        }
        assert len(runs) == 1

    def test_point_results_survive_disk_round_trip(self, tmp_path):
        """An explore() with disk_cache persists whole point evaluations;
        a cleared cache reloading the store serves them as pure hits."""
        from repro.dse.engine import explore
        from repro.dse.space import DesignPoint, DesignSpace

        store = tmp_path / "analysis.pkl"
        sizes = {"m": 256, "n": 256, "p": 256}
        space = DesignSpace()
        space.add(DesignPoint.make({"m": 64, "n": 64, "p": 64}, par=16))
        space.add(DesignPoint.make({"m": 64, "n": 64, "p": 128}, par=16))
        cold = explore("gemm", sizes=sizes, space=space, disk_cache=store)
        assert store.exists()

        ANALYSIS_CACHE.clear()
        warm = explore("gemm", sizes=sizes, space=space, disk_cache=store)
        stats = warm.cache_stats["point_results"]
        assert stats["hits"] == len(space) and stats["misses"] == 0
        for a, b in zip(cold.evaluated, warm.evaluated):
            assert a.point == b.point and a.cycles == b.cycles and a.logic == b.logic


class TestStoreHardening:
    """Checksum validation, quarantine-and-rebuild, and merge-on-save."""

    def test_corrupt_store_is_quarantined_and_rebuilt(self, tmp_path):
        store = tmp_path / "analysis.pkl"
        store.write_bytes(b"not a pickle")
        cache = AnalysisCache()
        with pytest.warns(RuntimeWarning, match="failed validation"):
            assert cache.load_disk(store) == 0
        # Quarantined aside, not left in place to fail every future load.
        assert not store.exists()
        assert (tmp_path / "analysis.pkl.corrupt").exists()
        # The next save rebuilds a clean store.
        cache.put("t", "k", "v")
        assert cache.save_disk(store)
        fresh = AnalysisCache()
        assert fresh.load_disk(store) == 1
        assert fresh.get("t", "k") == "v"

    def test_bit_flip_is_caught_by_checksum(self, tmp_path):
        store = tmp_path / "analysis.pkl"
        cache = AnalysisCache()
        cache.put("t", "k", "v")
        assert cache.save_disk(store)
        blob = bytearray(store.read_bytes())
        blob[-1] ^= 0xFF
        store.write_bytes(bytes(blob))
        with pytest.warns(RuntimeWarning, match="failed validation"):
            assert AnalysisCache().load_disk(store) == 0

    def test_headerless_store_is_quarantined_unread(self, tmp_path, monkeypatch):
        import pickle

        import repro.dse.cache as cache_module
        from repro.dse.cache import CACHE_VERSION

        store = tmp_path / "analysis.pkl"
        store.write_bytes(
            pickle.dumps({"version": CACHE_VERSION, "tables": {"t": [("k", "v")]}})
        )

        def unverified(blob):
            raise AssertionError("unverified bytes reached pickle.loads")

        monkeypatch.setattr(cache_module, "_unpickle", unverified)
        with pytest.warns(RuntimeWarning, match="no store header"):
            assert AnalysisCache().load_disk(store) == 0
        assert (tmp_path / "analysis.pkl.corrupt").exists()

    @given(
        mutation=st.sampled_from(["flip", "truncate", "extend"]),
        position=st.integers(0, 2**16),
        mask=st.integers(1, 255),
        extra=st.binary(min_size=1, max_size=32),
    )
    @settings(max_examples=80, deadline=None)
    def test_damaged_store_is_quarantined_never_raised(self, mutation, position, mask, extra):
        with tempfile.TemporaryDirectory() as tmp:
            store = Path(tmp) / "analysis.pkl"
            writer = AnalysisCache()
            writer.put("t", "k", "v")
            writer.put("u", ("key", 1), [1.0, 2.5])
            assert writer.save_disk(store)
            blob = bytearray(store.read_bytes())
            if mutation == "flip":
                blob[position % len(blob)] ^= mask
            elif mutation == "truncate":
                del blob[position % len(blob) :]
            else:
                at = position % (len(blob) + 1)
                blob[at:at] = extra
            store.write_bytes(bytes(blob))
            with pytest.warns(RuntimeWarning, match="failed validation"):
                assert AnalysisCache().load_disk(store) == 0
            assert not store.exists()
            assert store.with_name("analysis.pkl.corrupt").exists()

    def test_merge_on_save_keeps_concurrent_writers_entries(self, tmp_path):
        """Two processes saving to one store must not lose each other's
        entries to a last-writer-wins race."""
        store = tmp_path / "analysis.pkl"
        first = AnalysisCache()
        first.put("t", "a", 1)
        assert first.save_disk(store)
        second = AnalysisCache()  # never loaded the store
        second.put("t", "b", 2)
        assert second.save_disk(store)
        merged = AnalysisCache()
        assert merged.load_disk(store) == 2
        assert merged.get("t", "a") == 1
        assert merged.get("t", "b") == 2

    def test_merge_on_save_prefers_live_entries(self, tmp_path):
        store = tmp_path / "analysis.pkl"
        stale = AnalysisCache()
        stale.put("t", "k", "old")
        stale.save_disk(store)
        fresh = AnalysisCache()
        fresh.put("t", "k", "new")
        fresh.save_disk(store)
        loaded = AnalysisCache()
        assert loaded.load_disk(store) == 1
        assert loaded.get("t", "k") == "new"


class TestMemoizedAnalysesMatchUncached:
    def _setup(self, name="gemm"):
        bench = get_benchmark(name)
        bindings = bench.bindings(rng=np.random.default_rng(0))
        program = bench.build()
        evaluator = StaticEvaluator(
            workload_env(program, bindings), input_shapes(program, bindings)
        )
        return program, bindings, evaluator

    def test_count_scalar_ops_identical(self):
        program, _, evaluator = self._setup()
        with ANALYSIS_CACHE.disabled():
            cold = count_scalar_ops(program.body, evaluator)
        warm_miss = count_scalar_ops(program.body, evaluator)
        warm_hit = count_scalar_ops(program.body, evaluator)
        assert cold == warm_miss == warm_hit
        assert ANALYSIS_CACHE.hits["scalar_ops"] >= 1

    def test_traffic_records_identical_and_copy_safe(self):
        program, _, evaluator = self._setup("kmeans")
        with ANALYSIS_CACHE.disabled():
            cold = traffic_records(program, evaluator)
        warm = traffic_records(program, evaluator)
        assert [vars(r) for r in warm] == [vars(r) for r in cold]
        # Mutating the returned list must not poison the cache.
        warm.clear()
        again = traffic_records(program, evaluator)
        assert [vars(r) for r in again] == [vars(r) for r in cold]

    def test_tiling_result_shared_across_par_and_meta(self):
        bench = get_benchmark("gemm")
        program = bench.build()
        workload = bench.workload()
        tiles = dict(bench.tile_sizes)
        plain = Session().compile(program, CompileConfig(tiling=True, tile_sizes=tiles), workload)
        meta_config = CompileConfig(
            tiling=True, metapipelining=True, tile_sizes=tiles, par_factors={"m": 4}
        )
        meta = Session().compile(program, meta_config, workload)
        assert meta.tiled_program is plain.tiled_program  # one tiling, shared
        assert meta.tiling.config is meta_config  # but reported under the caller's config
        transforms = [
            record
            for record in meta.report.records
            if record.name not in ("generate-hardware", "build-schedule", "estimate-area")
        ]
        assert len(transforms) == 8 and all(record.cached for record in transforms)
        assert ANALYSIS_CACHE.hits["pipeline_pass"] >= len(transforms)

    def test_tiling_cache_shares_one_structure_across_tile_sizes(self):
        bench = get_benchmark("gemm")
        uncached = AnalysisCache()
        uncached.enabled = False

        def compile_(tiles, cache=None):
            config = CompileConfig(tiling=True, tile_sizes=tiles)
            return bench.compile(config, session=Session(cache=cache))

        small = compile_({"m": 32})
        large = compile_({"m": 64})
        direct = compile_({"m": 64}, uncached)
        assert large.report.record("strip-mine").cached
        assert small.tiled_program is not large.tiled_program
        assert (
            small.tiled_program.body.structural_hash()
            != large.tiled_program.body.structural_hash()
        )
        assert _fingerprint(large.tiled_program) == _fingerprint(direct.tiled_program)
