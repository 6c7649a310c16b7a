"""Process-global memoisation cache for the hot compiler analyses.

The design-space exploration engine evaluates many points that share most
of their compilation work: points differing only in parallelisation factor
or metapipelining share the entire tiling flow, and the per-node analyses
(`count_scalar_ops`, traffic analysis, area costing, the hardware
generator's preload plan) are re-run on structurally identical subtrees
over and over.  This module provides the shared cache those analyses
memoise through.  Because the entries are keyed by content, not by the
objects of one evaluation, a scalar evaluation reuses the per-program
generation analyses of every earlier point on the same tiled program —
across the requests of a compile farm as much as within one sweep.

Keys are built from two ingredients:

* the **structural hash** of the IR subtree (``Node.structural_hash``),
  which identifies a subtree up to symbol naming, and
* the **environment signature** — the name → value binding of every size
  symbol and input shape the analysis can observe.

Because every symbol lookup inside the analyses goes through an environment
keyed by name (sizes) or an input-shape table keyed by name, a matching
(structure, names → values) pair fully determines the analysis result; the
cache is exact, not approximate.

Memory bounding
---------------

Each table is an LRU: hits refresh recency and inserts evict the least
recently used entry once the table exceeds ``maxsize``.  Long multi-sweep
processes (CI, the multi-benchmark explorer) therefore hold a bounded
working set instead of growing without limit; evictions are counted in
:meth:`AnalysisCache.stats`.

Disk persistence
----------------

:meth:`AnalysisCache.save_disk` / :meth:`AnalysisCache.load_disk` persist
the tables across processes.  Structural hashes are deterministic across
interpreter runs (blake2b, see ``repro.ppl.ir.structural_hash``), so keys
written by one sweep match lookups in the next — repeated sweeps and CI
runs reuse tiling results and whole point evaluations without recompiling.
Writes are atomic (temp file + ``os.replace``), and the payload carries
``CACHE_VERSION``: a version mismatch silently invalidates the file, which
is how stale stores from older key schemes are retired.

Invalidation rules:

* Entries never go stale through IR mutation — IR nodes are immutable and
  pattern ``meta`` (which *is* mutable) is excluded from the structural
  hash, so only meta-independent analyses may memoise here.
* New workloads and new programs produce new keys; nothing needs flushing.
* :meth:`AnalysisCache.clear` drops everything (used between benchmark
  sweeps and by tests); :meth:`AnalysisCache.disabled` turns the cache off
  for a scope (used to time the cold path).
* On disk, bumping :data:`CACHE_VERSION` invalidates every persisted store.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import tempfile
import warnings
from collections import Counter, OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Hashable, Iterator, Mapping, Optional, Tuple, Union

from repro.errors import CacheIntegrityError

__all__ = [
    "AnalysisCache",
    "ANALYSIS_CACHE",
    "CACHE_VERSION",
    "DEFAULT_TABLE_MAXSIZE",
    "env_signature",
    "config_signature",
]

_MISSING = object()

#: Bump whenever the key scheme or cached value layout changes; persisted
#: stores carrying a different version are ignored on load.
#: v3: point-result keys gained the pipeline-variant signature and tiling
#: moved to per-pass ``pipeline_pass`` memoisation.
#: v4: point-result keys gained the ``cycle_model`` backend and pipeline
#: signatures gained the ``build-schedule`` terminal pass.
#: v5: the ``rewrite`` pipeline variant (schedule rewriter) joined the
#: variant registry and the ``pipeline`` gene's value space — point-result
#: keys embed its pass signature, so stores written before the rewriter
#: existed are retired.
#: v6: cached :class:`~repro.dse.results.PointResult` values gained
#: supervision metadata fields, and stores gained a checksum header.
#: v7: :class:`~repro.dse.space.DesignPoint` gained the ``dram_channels``
#: gene (folded into the model half of the point-result key) and
#: :class:`~repro.sim.model.PerformanceModel` gained the
#: ``dram_channels``/``dram_interleaving`` fields, changing ``astuple``
#: layouts embedded in every point-result key.
#: v8: pipeline variants are re-expressed as framework transformation
#: orderings (:mod:`repro.rewrite`), changing every pass-sequence
#: signature embedded in point-result keys.
#: v9: the ``minimum_reads`` table is retired and ``traffic_records`` keys
#: lost their word-size component.  Merge-on-save copies every table and
#: entry of the store it overwrites, so a retired table or an old key
#: shape would live on in every later store: a change that retires a table
#: or changes a table's key shape bumps the version.
CACHE_VERSION = 9

#: Header of a store: magic, then a 16-byte blake2b digest of the pickled
#: payload, then the payload.  A file without it, or failing its checksum
#: or its unpickling, is *quarantined* — renamed aside and rebuilt on the
#: next save — instead of crashing the sweep that touched it; no
#: unverified bytes reach ``pickle.loads``.
_STORE_MAGIC = b"RCHS"
_CHECKSUM_BYTES = 16

#: Default per-table LRU bound of the process-global cache.  Generous enough
#: that single sweeps never evict, small enough that week-long CI processes
#: stay bounded.
DEFAULT_TABLE_MAXSIZE = 65_536


@contextmanager
def _store_write_lock(path: Path) -> Iterator[None]:
    """Serialise read-merge-write store saves across processes.

    Advisory ``fcntl`` lock on a ``.lock`` sidecar next to the store.
    Without it, two processes saving at the same instant can both read the
    same prior store and the later ``os.replace`` silently drops the
    earlier writer's new entries — exactly the lost-update race the
    merge-on-save semantics promise against.  On platforms without
    ``fcntl`` the lock degrades to a no-op: saves stay atomic, merely
    unserialised.
    """
    try:
        import fcntl
    except ImportError:
        yield
        return
    lock_path = path.with_name(path.name + ".lock")
    try:
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(lock_path, "w")
    except OSError:
        yield
        return
    try:
        fcntl.flock(handle, fcntl.LOCK_EX)
        yield
    finally:
        try:
            fcntl.flock(handle, fcntl.LOCK_UN)
        finally:
            handle.close()


def _unpickle(blob: bytes) -> object:
    """``pickle.loads`` with the cyclic collector paused.

    A store unpickles into one large graph of new containers, which would
    trigger repeated collections that walk the growing graph and free
    nothing.  Pausing them cut ``bench_dse.py``'s warm disk rerun (a
    249 KiB store) from about 50 to 34 ms on a 2-core host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return pickle.loads(blob)
    finally:
        if enabled:
            gc.enable()


class AnalysisCache:
    """A set of named LRU memo tables with hit/miss/eviction accounting.

    Tables are ``OrderedDict``s keyed by whatever hashable key the analysis
    chooses (conventionally ``(structural_hash, env_signature)``); each is
    bounded to ``maxsize`` entries with least-recently-used eviction.  The
    cache can be disabled globally, in which case :meth:`memoize` always
    recomputes — the mechanism the benchmarks use to measure the uncached
    baseline.
    """

    def __init__(self, maxsize: Optional[int] = DEFAULT_TABLE_MAXSIZE) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1 or None, got {maxsize}")
        self.enabled: bool = True
        self.maxsize: Optional[int] = maxsize
        self._tables: Dict[str, "OrderedDict[Hashable, object]"] = {}
        self.hits: Counter = Counter()
        self.misses: Counter = Counter()
        self.evictions: Counter = Counter()
        self._dirty: bool = False
        self._clean_path: Optional[str] = None

    @property
    def dirty(self) -> bool:
        """True when the tables changed since the last disk load/save."""
        return self._dirty

    # -- core API ------------------------------------------------------------
    def table(self, name: str) -> "OrderedDict[Hashable, object]":
        if name not in self._tables:
            self._tables[name] = OrderedDict()
        return self._tables[name]

    def _insert(self, name: str, key: Hashable, value: object) -> None:
        table = self.table(name)
        self._dirty = True
        table[key] = value
        table.move_to_end(key)
        if self.maxsize is not None:
            while len(table) > self.maxsize:
                table.popitem(last=False)
                self.evictions[name] += 1

    def memoize(self, name: str, key: Hashable, compute: Callable[[], object]) -> object:
        """Return the cached value for ``key`` or compute and store it."""
        if not self.enabled:
            return compute()
        table = self.table(name)
        value = table.get(key, _MISSING)
        if value is not _MISSING:
            table.move_to_end(key)
            self.hits[name] += 1
            return value
        self.misses[name] += 1
        value = compute()
        self._insert(name, key, value)
        return value

    def get(self, name: str, key: Hashable, default: object = None) -> object:
        """Look up an entry (refreshing its recency) without computing."""
        if not self.enabled:
            return default
        table = self._tables.get(name)
        if table is None:
            return default
        value = table.get(key, _MISSING)
        if value is _MISSING:
            return default
        table.move_to_end(key)
        return value

    def put(self, name: str, key: Hashable, value: object) -> None:
        """Seed an entry directly (bypasses hit/miss accounting)."""
        if self.enabled:
            self._insert(name, key, value)

    # -- management ----------------------------------------------------------
    def clear(self, name: Optional[str] = None) -> None:
        """Drop one table, or every table plus the hit/miss counters.

        A full clear also resets the disk-store state: the cache forgets
        which persisted store it was clean against, so the next
        ``save_disk(..., only_if_dirty=True)`` writes instead of assuming
        the old store still mirrors the (now empty) tables — a cleared
        session therefore recompiles cold even across save/load cycles.
        A partial clear marks the cache dirty for the same reason.
        """
        if name is not None:
            if self._tables.pop(name, None) is not None:
                self._dirty = True
            return
        self._tables.clear()
        self.hits.clear()
        self.misses.clear()
        self.evictions.clear()
        self._dirty = False
        self._clean_path = None

    def size(self, name: Optional[str] = None) -> int:
        if name is not None:
            return len(self._tables.get(name, ()))
        return sum(len(t) for t in self._tables.values())

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-table entry/hit/miss/eviction counts (for benchmark reports)."""
        names = set(self._tables) | set(self.hits) | set(self.misses) | set(self.evictions)
        return {
            name: {
                "entries": len(self._tables.get(name, ())),
                "hits": self.hits.get(name, 0),
                "misses": self.misses.get(name, 0),
                "evictions": self.evictions.get(name, 0),
            }
            for name in sorted(names)
        }

    @contextmanager
    def disabled(self) -> Iterator[None]:
        """Temporarily disable memoisation (the cold/uncached path)."""
        previous = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = previous

    # -- disk persistence ----------------------------------------------------
    def _read_store(self, path: Path) -> dict:
        """Parse and validate a persisted store.

        The body is verified byte-for-byte against the header's checksum
        before it is unpickled.  Raises
        :class:`~repro.errors.CacheIntegrityError` for anything that fails
        validation — truncated writes, bit rot, files without the header,
        or files that were never a store at all.
        """
        blob = path.read_bytes()
        header = len(_STORE_MAGIC) + _CHECKSUM_BYTES
        if blob[: len(_STORE_MAGIC)] != _STORE_MAGIC:
            raise CacheIntegrityError(f"no store header in {path}")
        checksum, body = blob[len(_STORE_MAGIC) : header], blob[header:]
        if hashlib.blake2b(body, digest_size=_CHECKSUM_BYTES).digest() != checksum:
            raise CacheIntegrityError(f"checksum mismatch in {path}")
        try:
            payload = _unpickle(body)
        except Exception as exc:
            raise CacheIntegrityError(f"undecodable store {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise CacheIntegrityError(
                f"store {path} holds {type(payload).__name__}, expected dict"
            )
        return payload

    def _quarantine_store(self, path: Path, why: str) -> None:
        """Move a corrupt store aside so the next save rebuilds it clean."""
        quarantined = path.with_name(path.name + ".corrupt")
        note = ""
        try:
            os.replace(str(path), str(quarantined))
            note = f"; moved aside to {quarantined.name}"
        except OSError:
            pass
        warnings.warn(
            f"analysis store failed validation ({why}); ignoring it{note} — "
            "a fresh store will be rebuilt on the next save",
            RuntimeWarning,
            stacklevel=3,
        )

    def save_disk(self, path: Union[str, Path], only_if_dirty: bool = False) -> bool:
        """Atomically persist every picklable table to ``path``.

        Entries are written in LRU order (least recent first) so a
        bounded reload reconstructs the same recency ordering.  Tables or
        entries that fail to pickle are skipped — persistence is an
        optimisation, never a correctness requirement.  Returns True when
        a store was written.  ``only_if_dirty=True`` skips the write (and
        the pickling cost) when nothing changed since the last load/save
        *of this same path* — the warm-rerun fast path.  Saving to a
        different path always writes: being clean with respect to one
        store says nothing about another.

        Saving **merges**: entries already on disk that this process never
        loaded are carried over (ordered as older than the live entries)
        instead of being clobbered — so concurrent sweeps writing the same
        store lose nothing to last-writer-wins races.  The read-merge-write
        is serialised across processes by an advisory lock on a ``.lock``
        sidecar, so two savers finishing at the same instant cannot both
        read the same prior store and have the later one silently drop the
        earlier one's entries.  A corrupt existing store is simply
        overwritten: that *is* the rebuild.
        """
        resolved = str(Path(path).resolve())
        if only_if_dirty and not self._dirty and resolved == self._clean_path:
            return False
        tables: Dict[str, list] = {
            name: list(table.items()) for name, table in self._tables.items() if table
        }
        existing = Path(path)
        with _store_write_lock(existing):
            return self._save_locked(existing, tables, resolved)

    def _save_locked(self, path: Path, tables: Dict[str, list], resolved: str) -> bool:
        if path.exists():
            try:
                on_disk = self._read_store(path)
            except (CacheIntegrityError, OSError):
                on_disk = None
            if on_disk is not None and on_disk.get("version") == CACHE_VERSION:
                for name, entries in on_disk.get("tables", {}).items():
                    try:
                        live_keys = {key for key, _ in tables.get(name, ())}
                        carried = [
                            (key, value) for key, value in entries if key not in live_keys
                        ]
                    except TypeError:
                        continue  # malformed table shape: drop it
                    if carried:
                        tables[name] = carried + tables.get(name, [])
        payload = {"version": CACHE_VERSION, "tables": tables}
        try:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            # Some entry refused to pickle: filter entry by entry (the slow
            # path — only ever paid when an unpicklable value sneaks in).
            filtered: Dict[str, list] = {}
            for name, entries in tables.items():
                kept = []
                for key, value in entries:
                    try:
                        pickle.dumps((key, value))
                    except Exception:
                        continue
                    kept.append((key, value))
                if kept:
                    filtered[name] = kept
            payload = {"version": CACHE_VERSION, "tables": filtered}
            try:
                blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:
                return False
        blob = (
            _STORE_MAGIC
            + hashlib.blake2b(blob, digest_size=_CHECKSUM_BYTES).digest()
            + blob
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_name, str(path))
        except Exception:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            return False
        self._dirty = False
        self._clean_path = resolved
        return True

    def load_disk(self, path: Union[str, Path]) -> int:
        """Merge a persisted store into the live tables.

        Entries already present keep their (fresher) values; loaded entries
        are inserted oldest-first so LRU bounding favours what this process
        uses.  A missing or version-mismatched store is silently ignored; a
        store failing checksum validation (or unpickling) is *quarantined*
        — renamed aside with a ``RuntimeWarning`` so the next save rebuilds
        a clean one — instead of crashing the sweep.  Returns the number of
        entries merged in.
        """
        path = Path(path)
        if not path.exists():
            return 0
        try:
            payload = self._read_store(path)
        except CacheIntegrityError as exc:
            self._quarantine_store(path, str(exc))
            return 0
        except OSError:
            return 0
        if payload.get("version") != CACHE_VERSION:
            return 0
        had_entries = self.size() > 0
        loaded = 0
        for name, entries in payload.get("tables", {}).items():
            table = self.table(name)
            for key, value in entries:
                if key in table:
                    continue
                self._insert(name, key, value)
                loaded += 1
        if had_entries:
            # Pre-existing entries may not be in this store: stay (or
            # become) dirty so a later save does not silently skip them.
            self._dirty = True
        else:
            # The tables now mirror the store exactly.
            self._dirty = False
            self._clean_path = str(path.resolve())
        return loaded


#: The process-global cache every memoised analysis shares.  A forked
#: worker pool inherits a copy-on-write snapshot of the parent's warm cache.
ANALYSIS_CACHE = AnalysisCache()


def env_signature(
    env: Mapping, shapes: Optional[Mapping[str, Tuple[int, ...]]] = None
) -> Tuple:
    """Signature of a workload environment, keyed by *names* not identities.

    ``env`` maps size symbols (``repro.ppl.ir.Sym``) to integers; ``shapes``
    maps input-array names to shape tuples.  Analyses observe symbols only
    through these two mappings, so the signature captures everything the
    analysis result can depend on.
    """
    sizes = tuple(sorted((sym.name, int(value)) for sym, value in env.items()))
    if not shapes:
        return (sizes, ())
    shape_sig = tuple(sorted((name, tuple(shape)) for name, shape in shapes.items()))
    return (sizes, shape_sig)


def config_signature(config, include_metapipelining: bool = False) -> Tuple:
    """Signature of the tiling-relevant part of a :class:`CompileConfig`.

    The tiling flow reads the tiling flag, the tile sizes and the on-chip /
    split budgets — but *not* the parallelisation factors or (unless
    requested) the metapipelining flag, so design points differing only in
    those share one tiling result.
    """
    parts: Tuple = (
        bool(config.tiling),
        tuple(sorted(config.tile_sizes.items())),
        int(config.on_chip_budget_words),
        config.split_threshold_words,
    )
    if include_metapipelining:
        parts = parts + (bool(config.metapipelining),)
    return parts
