"""Read-only memory-mapped snapshots of the analysis cache.

The historical worker warm-up path is ``AnalysisCache.load_disk``: every
spawned pool worker reads the whole store and unpickles *every* table
before serving its first task.  For a farm that spawns pools repeatedly —
and whose workers each touch only the tables their benchmarks need — that
cost is pure overhead.

A snapshot is the same table data laid out for lazy attachment:

``RSNP | u32 cache_version | u32 ntables |`` *index* ``|`` *blobs*

where the index holds one entry per table — ``u16 name length | name
(utf-8) | u64 absolute blob offset | u64 blob length | 16-byte blake2b of
the blob`` — and each blob is an independently pickled
``[(key, value), ...]`` list in LRU order (least recent first, matching
``save_disk``).

:func:`attach_snapshot` memory-maps the file, parses only the index (a few
hundred bytes), and registers one lazy loader per table via
:meth:`~repro.dse.cache.AnalysisCache.attach_lazy`.  Attachment is
microseconds regardless of store size; a table's blob is checksummed and
unpickled on the table's *first access*, and tables never touched are
never decoded.  The mapping is read-only and shared between processes by
the OS page cache, so a farm's whole pool warms from one set of physical
pages.  It is closed once no attached table can still load from it: when
the last one has materialised or been dropped by the cache, or when the
cache itself is collected.

Version skew follows ``load_disk`` semantics: a snapshot whose
``cache_version`` differs from the running :data:`CACHE_VERSION` is
silently ignored (attach returns 0 tables).  Structural corruption —
an empty file, bad magic, a truncated index, an undecodable table name,
a checksum mismatch at materialisation — raises
:class:`~repro.errors.CacheIntegrityError`; when it surfaces inside a lazy
loader, ``AnalysisCache._materialize`` degrades that table to cold with a
``RuntimeWarning`` instead of failing the lookup.
"""

from __future__ import annotations

import functools
import hashlib
import mmap
import os
import pickle
import struct
import tempfile
import weakref
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.dse.cache import ANALYSIS_CACHE, CACHE_VERSION, AnalysisCache
from repro.errors import CacheIntegrityError

__all__ = ["SNAPSHOT_MAGIC", "SnapshotView", "attach_snapshot", "write_snapshot"]

SNAPSHOT_MAGIC = b"RSNP"
_HEADER = struct.Struct(">4sII")
_INDEX_FIXED = struct.Struct(">QQ16s")
_CHECKSUM_BYTES = 16


def write_snapshot(
    path: Union[str, Path],
    cache: Optional[AnalysisCache] = None,
) -> int:
    """Atomically write every picklable table of ``cache`` to ``path``.

    Returns the number of tables written.  Mirrors ``save_disk``'s
    tolerance: a table that refuses to pickle is skipped entry-by-entry
    (persistence is an optimisation, never a correctness requirement).
    Unlike ``save_disk`` this does not merge with an existing file — a
    snapshot is an immutable point-in-time image, regenerated whole.
    """
    cache = cache if cache is not None else ANALYSIS_CACHE
    blobs: List[Tuple[str, bytes]] = []
    for name in sorted(cache._tables):
        table = cache._tables[name]
        if not table:
            continue
        entries = list(table.items())
        try:
            blob = pickle.dumps(entries, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            kept = []
            for key, value in entries:
                try:
                    pickle.dumps((key, value))
                except Exception:
                    continue
                kept.append((key, value))
            if not kept:
                continue
            blob = pickle.dumps(kept, protocol=pickle.HIGHEST_PROTOCOL)
        blobs.append((name, blob))

    index_size = sum(2 + len(name.encode("utf-8")) + _INDEX_FIXED.size for name, _ in blobs)
    offset = _HEADER.size + index_size
    index = bytearray()
    for name, blob in blobs:
        encoded = name.encode("utf-8")
        index += struct.pack(">H", len(encoded)) + encoded
        index += _INDEX_FIXED.pack(
            offset,
            len(blob),
            hashlib.blake2b(blob, digest_size=_CHECKSUM_BYTES).digest(),
        )
        offset += len(blob)

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(_HEADER.pack(SNAPSHOT_MAGIC, CACHE_VERSION, len(blobs)))
            handle.write(bytes(index))
            for _, blob in blobs:
                handle.write(blob)
        os.replace(tmp_name, str(path))
    except Exception:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return len(blobs)


class SnapshotView:
    """A parsed, memory-mapped snapshot; tables decode on demand.

    Construction maps the file read-only and parses header + index only.
    :meth:`entries` checksums and unpickles one table's blob — the lazy
    half that :func:`attach_snapshot` defers to first access.  A view
    :func:`attach_snapshot` opens lives as long as any attached cache
    table might still materialise; a view opened directly is closed by
    its opener (:meth:`close`, or a ``with`` block).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._file = self.path.open("rb")
        try:
            self._map = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as exc:  # mmap refuses an empty file
            self._file.close()
            raise CacheIntegrityError(f"truncated snapshot {self.path}") from exc
        except Exception:
            self._file.close()
            raise
        self.version: int = -1
        self._index: Dict[str, Tuple[int, int, bytes]] = {}
        try:
            self._parse_index()
        except Exception:
            self.close()
            raise

    def _parse_index(self) -> None:
        view = self._map
        if len(view) < _HEADER.size:
            raise CacheIntegrityError(f"truncated snapshot {self.path}")
        magic, version, ntables = _HEADER.unpack(view[: _HEADER.size])
        if magic != SNAPSHOT_MAGIC:
            raise CacheIntegrityError(f"{self.path} is not a cache snapshot")
        self.version = version
        offset = _HEADER.size
        for _ in range(ntables):
            if offset + 2 > len(view):
                raise CacheIntegrityError(f"truncated snapshot index in {self.path}")
            (name_len,) = struct.unpack(">H", view[offset : offset + 2])
            offset += 2
            end = offset + name_len + _INDEX_FIXED.size
            if end > len(view):
                raise CacheIntegrityError(f"truncated snapshot index in {self.path}")
            try:
                name = view[offset : offset + name_len].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CacheIntegrityError(
                    f"undecodable table name in {self.path}"
                ) from exc
            offset += name_len
            blob_offset, blob_len, checksum = _INDEX_FIXED.unpack(
                view[offset : offset + _INDEX_FIXED.size]
            )
            offset += _INDEX_FIXED.size
            if blob_offset + blob_len > len(view):
                raise CacheIntegrityError(
                    f"snapshot table {name!r} extends past end of {self.path}"
                )
            self._index[name] = (blob_offset, blob_len, checksum)

    @property
    def tables(self) -> List[str]:
        return sorted(self._index)

    def entries(self, name: str) -> List[Tuple[object, object]]:
        """Checksum-verify and unpickle one table's entries."""
        if name not in self._index:
            raise KeyError(name)
        blob_offset, blob_len, checksum = self._index[name]
        blob = self._map[blob_offset : blob_offset + blob_len]
        if hashlib.blake2b(blob, digest_size=_CHECKSUM_BYTES).digest() != checksum:
            raise CacheIntegrityError(
                f"snapshot table {name!r} failed checksum validation in {self.path}"
            )
        entries = pickle.loads(blob)
        if not isinstance(entries, list):
            raise CacheIntegrityError(
                f"snapshot table {name!r} holds {type(entries).__name__}, expected list"
            )
        return entries

    def close(self) -> None:
        try:
            self._map.close()
        finally:
            self._file.close()

    def __enter__(self) -> "SnapshotView":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def attach_snapshot(
    cache: AnalysisCache,
    path: Union[str, Path],
) -> int:
    """Lazily attach every table of a snapshot to ``cache``.

    Returns the number of tables attached: 0 for a missing file or a
    version-mismatched snapshot (both silently ignored, matching
    ``load_disk``), raising :class:`~repro.errors.CacheIntegrityError`
    only for a structurally corrupt file.  Attached tables cost nothing
    until first access and merge older than live entries when they
    materialise.
    """
    path = Path(path)
    if not path.exists():
        return 0
    view = SnapshotView(path)
    tables = view.tables if view.version == CACHE_VERSION else []
    if not tables:
        view.close()
        return 0
    # The view closes once no table can still load from it: the last one
    # materialised or dropped, or the cache collected with loaders left.
    close = weakref.finalize(cache, view.close)
    pending = set(tables)

    def release(table: str) -> None:
        pending.discard(table)
        if not pending:
            close()

    for name in tables:
        cache.attach_lazy(
            name,
            functools.partial(view.entries, name),
            functools.partial(release, name),
        )
    return len(tables)
