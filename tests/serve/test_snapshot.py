"""Memory-mapped cache snapshots: write, lazy attach, corruption handling."""

from __future__ import annotations

import gc
import struct
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dse.cache import CACHE_VERSION, AnalysisCache
from repro.errors import CacheIntegrityError
from repro.serve.snapshot import (
    SNAPSHOT_MAGIC,
    SnapshotView,
    attach_snapshot,
    write_snapshot,
)


#: Bytes before the index: magic, cache version, table count.
_HEADER_BYTES = 12


def _warm_cache() -> AnalysisCache:
    cache = AnalysisCache()
    for i in range(8):
        cache.put("point_results", ("pr", i), {"cycles": i * 100})
        cache.put("tiling", ("tile", i), [i, i + 1])
    cache.put("pipeline_pass", ("pp", 0), "payload")
    return cache


class TestWriteSnapshot:
    def test_writes_one_blob_per_nonempty_table(self, tmp_path):
        snap = tmp_path / "cache.snap"
        assert write_snapshot(snap, _warm_cache()) == 3
        view = SnapshotView(snap)
        assert view.tables == ["pipeline_pass", "point_results", "tiling"]
        assert view.version == CACHE_VERSION
        view.close()

    def test_empty_cache_writes_empty_snapshot(self, tmp_path):
        snap = tmp_path / "cache.snap"
        assert write_snapshot(snap, AnalysisCache()) == 0
        assert attach_snapshot(AnalysisCache(), snap) == 0

    def test_unpicklable_entries_are_skipped(self, tmp_path):
        cache = AnalysisCache()
        cache.put("point_results", ("ok",), 1)
        cache.put("point_results", ("bad",), lambda: None)
        snap = tmp_path / "cache.snap"
        assert write_snapshot(snap, cache) == 1
        view = SnapshotView(snap)
        assert view.entries("point_results") == [(("ok",), 1)]
        view.close()


class TestAttach:
    def test_attach_is_lazy_per_table(self, tmp_path):
        snap = tmp_path / "cache.snap"
        write_snapshot(snap, _warm_cache())
        fresh = AnalysisCache()
        assert attach_snapshot(fresh, snap) == 3
        # Nothing decoded yet: attaching is index-only.
        assert fresh.size() == 0
        assert fresh.get("point_results", ("pr", 3)) == {"cycles": 300}
        # Only the touched table materialised.
        assert fresh.size("point_results") == 8
        assert fresh.size("tiling") == 0
        assert fresh.size("pipeline_pass") == 0

    def test_attach_does_not_mark_dirty(self, tmp_path):
        snap = tmp_path / "cache.snap"
        write_snapshot(snap, _warm_cache())
        fresh = AnalysisCache()
        attach_snapshot(fresh, snap)
        fresh.get("tiling", ("tile", 0))
        assert not fresh.dirty

    def test_live_entries_win_on_collision(self, tmp_path):
        snap = tmp_path / "cache.snap"
        write_snapshot(snap, _warm_cache())
        fresh = AnalysisCache()
        fresh.put("point_results", ("pr", 0), "live wins")
        attach_snapshot(fresh, snap)
        assert fresh.get("point_results", ("pr", 0)) == "live wins"
        assert fresh.get("point_results", ("pr", 1)) == {"cycles": 100}

    def test_missing_file_attaches_nothing(self, tmp_path):
        assert attach_snapshot(AnalysisCache(), tmp_path / "absent.snap") == 0

    def test_version_mismatch_is_ignored(self, tmp_path):
        snap = tmp_path / "cache.snap"
        write_snapshot(snap, _warm_cache())
        blob = bytearray(snap.read_bytes())
        blob[4:8] = struct.pack(">I", CACHE_VERSION + 1)
        snap.write_bytes(bytes(blob))
        assert attach_snapshot(AnalysisCache(), snap) == 0

    def test_bad_magic_raises(self, tmp_path):
        snap = tmp_path / "cache.snap"
        write_snapshot(snap, _warm_cache())
        blob = bytearray(snap.read_bytes())
        blob[:4] = b"JUNK"
        snap.write_bytes(bytes(blob))
        with pytest.raises(CacheIntegrityError, match="not a cache snapshot"):
            attach_snapshot(AnalysisCache(), snap)

    def test_truncated_index_raises(self, tmp_path):
        snap = tmp_path / "cache.snap"
        write_snapshot(snap, _warm_cache())
        snap.write_bytes(snap.read_bytes()[:14])
        with pytest.raises(CacheIntegrityError, match="truncated"):
            attach_snapshot(AnalysisCache(), snap)

    def test_corrupt_blob_degrades_to_cold_table(self, tmp_path):
        snap = tmp_path / "cache.snap"
        write_snapshot(snap, _warm_cache())
        blob = bytearray(snap.read_bytes())
        blob[-1] ^= 0xFF  # flip a byte inside the last table's blob
        snap.write_bytes(bytes(blob))
        fresh = AnalysisCache()
        attached = attach_snapshot(fresh, snap)
        assert attached == 3
        # The corrupt table ("tiling" — blobs are written in sorted table
        # order, so the last byte is its) fails its checksum at
        # materialisation; the cache degrades it to cold with a warning
        # instead of raising.
        with pytest.warns(RuntimeWarning, match="lazy cache source"):
            assert fresh.get("tiling", ("tile", 0)) is None
        # The intact tables still serve.
        assert fresh.get("point_results", ("pr", 0)) == {"cycles": 0}

    @given(
        mutation=st.sampled_from(["flip", "truncate", "extend"]),
        position=st.integers(0, 2**16),
        mask=st.integers(1, 255),
        extra=st.binary(min_size=1, max_size=32),
    )
    # An empty file, and a non-UTF-8 first byte of the first table name.
    @example(mutation="truncate", position=0, mask=1, extra=b"\x00")
    @example(mutation="flip", position=_HEADER_BYTES + 2, mask=0x80, extra=b"\x00")
    @settings(max_examples=80, deadline=None)
    def test_damaged_snapshot_raises_integrity_error_or_serves(
        self, mutation, position, mask, extra
    ):
        """Mutated bytes either fail attach with CacheIntegrityError or
        attach; a later lookup never raises, and a table that fails to load
        starts cold with the documented warning."""
        with tempfile.TemporaryDirectory() as tmp:
            snap = Path(tmp) / "cache.snap"
            write_snapshot(snap, _warm_cache())
            blob = bytearray(snap.read_bytes())
            if mutation == "flip":
                blob[position % len(blob)] ^= mask
            elif mutation == "truncate":
                del blob[position % len(blob) :]
            else:
                at = position % (len(blob) + 1)
                blob[at:at] = extra
            snap.write_bytes(bytes(blob))
            fresh = AnalysisCache()
            try:
                attached = attach_snapshot(fresh, snap)
            except CacheIntegrityError:
                return
            assert attached >= 0
            with SnapshotView(snap) as view:
                names = set(view.tables) if view.version == CACHE_VERSION else set()
            names |= {"pipeline_pass", "point_results", "tiling"}
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for name in sorted(names):
                    fresh.get(name, ("pr", 0))
            for warning in caught:
                assert issubclass(warning.category, RuntimeWarning)
                assert "lazy cache source" in str(warning.message)

    def test_snapshot_preserves_lru_order(self, tmp_path):
        cache = AnalysisCache()
        for i in range(4):
            cache.put("t", i, i)
        cache.get("t", 0)  # refresh 0: order becomes 1,2,3,0
        snap = tmp_path / "cache.snap"
        write_snapshot(snap, cache)
        view = SnapshotView(snap)
        assert [key for key, _ in view.entries("t")] == [1, 2, 3, 0]
        view.close()


class TestViewLifetime:
    """An attached snapshot's file closes once no table can still load."""

    @pytest.fixture
    def closed(self, monkeypatch):
        paths = []
        close = SnapshotView.close

        def recording(view):
            paths.append(view.path)
            close(view)

        monkeypatch.setattr(SnapshotView, "close", recording)
        return paths

    def test_snapshot_without_tables_closes_at_once(self, tmp_path, closed):
        snap = tmp_path / "cache.snap"
        write_snapshot(snap, AnalysisCache())
        assert attach_snapshot(AnalysisCache(), snap) == 0
        assert closed == [snap]

    def test_closes_when_the_last_table_materialises(self, tmp_path, closed):
        snap = tmp_path / "cache.snap"
        write_snapshot(snap, _warm_cache())
        fresh = AnalysisCache()
        attach_snapshot(fresh, snap)
        fresh.get("point_results", ("pr", 0))
        fresh.get("tiling", ("tile", 0))
        assert closed == []
        assert fresh.get("pipeline_pass", ("pp", 0)) == "payload"
        assert closed == [snap]
        fresh.clear()
        assert closed == [snap]

    def test_a_corrupt_table_still_releases_the_view(self, tmp_path, closed):
        snap = tmp_path / "cache.snap"
        write_snapshot(snap, _warm_cache())
        blob = bytearray(snap.read_bytes())
        blob[-1] ^= 0xFF
        snap.write_bytes(bytes(blob))
        fresh = AnalysisCache()
        attach_snapshot(fresh, snap)
        fresh.clear("pipeline_pass")
        fresh.get("point_results", ("pr", 0))
        with pytest.warns(RuntimeWarning, match="lazy cache source"):
            fresh.get("tiling", ("tile", 0))
        assert closed == [snap]

    def test_closes_when_clear_drops_the_loaders(self, tmp_path, closed):
        snap = tmp_path / "cache.snap"
        write_snapshot(snap, _warm_cache())
        fresh = AnalysisCache()
        attach_snapshot(fresh, snap)
        fresh.get("tiling", ("tile", 0))
        fresh.clear()
        assert closed == [snap]

    def test_a_second_attach_releases_the_first_view(self, tmp_path, closed):
        first, second = tmp_path / "first.snap", tmp_path / "second.snap"
        write_snapshot(first, _warm_cache())
        write_snapshot(second, _warm_cache())
        fresh = AnalysisCache()
        attach_snapshot(fresh, first)
        attach_snapshot(fresh, second)
        assert closed == [first]
        assert fresh.get("point_results", ("pr", 2)) == {"cycles": 200}

    def test_closes_when_the_cache_is_collected(self, tmp_path, closed):
        snap = tmp_path / "cache.snap"
        write_snapshot(snap, _warm_cache())
        fresh = AnalysisCache()
        attach_snapshot(fresh, snap)
        del fresh
        gc.collect()
        assert closed == [snap]
