"""Main-memory traffic and on-chip storage analysis (Figure 5c).

Figure 5c of the paper reports, for k-means clustering after each IR
transformation (fused → strip mined → interchanged), the *minimum* number of
words read from main memory and the on-chip storage required for each data
structure.  :func:`minimum_reads` computes that count for any PPL program
from the shared access walk (:func:`repro.analysis.estimate.input_accesses`),
counting an IR node the tree reaches twice once:

* for explicit tile copies the count is simply (copy words) × (trips of the
  enclosing loops) — the copies literally are the main-memory reads;
* for direct (un-copied) accesses the count assumes the design buffers the
  currently accessed row on chip, so an array is re-read only when the loops
  that select its row advance: the count is the product of the trip counts of
  every enclosing loop from the outermost down to the deepest loop whose
  index participates in selecting the row, times the row length.

Each entry of the report also carries the words of on-chip buffering its
data structure needs in the same model (``TrafficEntry.on_chip_words``: one
row for direct accesses, the tile for copies);
:func:`intermediate_storage_words` sizes the ``minDistWithIndex`` row.

:func:`schedule_traffic` inventories the DRAM transfers of a lowered
schedule instead, with the trip counts of the stage groups around them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Set, Tuple

from repro.analysis.access import linear_form
from repro.analysis.estimate import StaticEvaluator, input_accesses, input_shapes, workload_env
from repro.ppl.ir import ArrayCopy, ArraySlice, Expr, Let, MultiFold, Sym
from repro.ppl.program import Program
from repro.ppl.traversal import collect

__all__ = [
    "TrafficEntry",
    "TrafficReport",
    "TransferInventory",
    "TransferRecord",
    "minimum_reads",
    "schedule_traffic",
]


@dataclass
class TrafficEntry:
    """Traffic and storage for one data structure."""

    array: str
    main_memory_words: int = 0
    on_chip_words: int = 0


@dataclass
class TrafficReport:
    """Per-array traffic/storage for one program form."""

    label: str
    entries: Dict[str, TrafficEntry] = field(default_factory=dict)

    def entry(self, array: str) -> TrafficEntry:
        if array not in self.entries:
            self.entries[array] = TrafficEntry(array)
        return self.entries[array]

    def words_read(self, array: str) -> int:
        return self.entries[array].main_memory_words if array in self.entries else 0

    def storage(self, array: str) -> int:
        return self.entries[array].on_chip_words if array in self.entries else 0


def minimum_reads(program: Program, bindings: Mapping[str, object]) -> TrafficReport:
    """Minimum main-memory words read and on-chip storage per input array.

    Derived from the shared access walk
    (:func:`~repro.analysis.estimate.input_accesses`).  The same IR node
    can appear several times in the tree when an expression is reused
    (e.g. ``square(x) = x * x``); hardware reads the value once, so only
    its first occurrence counts.
    """
    evaluator = StaticEvaluator(workload_env(program, bindings), input_shapes(program, bindings))
    inputs = {array.name for array in program.inputs}
    report = TrafficReport(label=program.name)
    seen: Set[int] = set()
    # Direct-access sites grouped by (array, row-selection signature): every
    # site in a group reads the same row, which is buffered once.  Values
    # are (reads, row words).
    rows: Dict[Tuple[str, frozenset], Tuple[int, int]] = {}
    for node, loops in input_accesses(program.body, inputs, evaluator):
        if id(node) in seen:
            continue
        seen.add(id(node))
        name = node.array.name
        if isinstance(node, ArrayCopy):
            words = evaluator.copy_words(node)
            entry = report.entry(name)
            entry.main_memory_words += words * math.prod(trips for _, trips in loops)
            entry.on_chip_words = max(entry.on_chip_words, words)
            continue
        row_syms, row_words = _row(node, evaluator.shapes.get(name, ()))
        # Product of trips of every loop from the outermost down to the
        # deepest loop selecting the row.
        deepest = max(
            (level for level, (params, _) in enumerate(loops) if row_syms.intersection(params)),
            default=-1,
        )
        reads = math.prod(trips for _, trips in loops[: deepest + 1]) * row_words
        key = (name, frozenset(sym.name for sym in row_syms))
        old_reads, old_words = rows.get(key, (0, 0))
        rows[key] = (max(old_reads, reads), max(old_words, row_words))
    for (name, _signature), (reads, row_words) in rows.items():
        entry = report.entry(name)
        entry.main_memory_words += reads
        entry.on_chip_words = max(entry.on_chip_words, row_words)
    return report


def _row(node: Expr, shape: Tuple[int, ...]) -> Tuple[Set[Sym], int]:
    """The symbols selecting a direct access's row, and the row's words."""
    if isinstance(node, ArraySlice):
        row_indices = [spec for spec in node.specs if spec is not None]
        row_words = 1
        for axis in node.kept_axes:
            row_words *= shape[axis] if axis < len(shape) else 1
    else:
        # A rank-1 array is one row.
        row_indices = node.indices[:-1]
        last_axis = len(node.indices) - 1
        row_words = shape[last_axis] if last_axis < len(shape) else 1
    row_syms: Set[Sym] = set()
    for index in row_indices:
        form = linear_form(index)
        if form is not None:
            row_syms |= set(form.coeffs)
    return row_syms, max(1, row_words)


# ---------------------------------------------------------------------------
# Schedule-derived transfer inventory
# ---------------------------------------------------------------------------


@dataclass
class TransferRecord:
    """One transfer or stream site of a schedule, with its total traffic.

    ``trips`` is the product of the iteration counts of every stage group
    enclosing the site — how many times the hardware issues the transfer —
    and ``bursts`` the total DRAM bursts across all trips (zero for
    baseline streams, whose burst behaviour is folded into their derated
    efficiency).
    """

    name: str
    kind: str  # "load" / "store" / "stream"
    source: str
    bytes_per_invocation: int
    trips: int
    bursts: int

    @property
    def total_bytes(self) -> int:
        return self.bytes_per_invocation * self.trips


@dataclass
class TransferInventory:
    """Every DRAM transfer of one schedule, derived from the Schedule IR.

    This replaces re-walking the design graph: the same schedule object the
    cycle backends time and the MaxJ emitter renders is inventoried here,
    so a transfer that is simulated is — by construction — a transfer that
    is counted.
    """

    label: str
    records: List[TransferRecord] = field(default_factory=list)

    @property
    def read_bytes(self) -> int:
        return sum(r.total_bytes for r in self.records if r.kind in ("load", "stream"))

    @property
    def write_bytes(self) -> int:
        return sum(r.total_bytes for r in self.records if r.kind == "store")

    @property
    def total_bursts(self) -> int:
        return sum(r.bursts for r in self.records)

    def by_source(self) -> Dict[str, int]:
        """Total transferred bytes per source array, sorted by name."""
        totals: Dict[str, int] = {}
        for record in self.records:
            key = record.source or record.name
            totals[key] = totals.get(key, 0) + record.total_bytes
        return dict(sorted(totals.items()))

    def summary(self) -> str:
        header = f"{'transfer':<28} {'kind':<7} {'bytes/inv':>12} {'trips':>8} {'total MB':>10}"
        lines = [f"transfer inventory for {self.label}", header, "-" * len(header)]
        for record in self.records:
            lines.append(
                f"{record.name:<28} {record.kind:<7} {record.bytes_per_invocation:>12,} "
                f"{record.trips:>8,} {record.total_bytes / 1e6:>10.2f}"
            )
        return "\n".join(lines)


def schedule_traffic(schedule) -> TransferInventory:
    """Inventory every DRAM transfer of a schedule with its trip counts.

    Walks the Schedule IR once, multiplying the iteration counts of the
    enclosing stage groups down to each transfer / stream leaf.  The
    resulting read traffic matches the design's accounted
    ``main_memory_read_bytes`` for tiled transfers (accesses served by
    caches are accounted by the generator but have no transfer unit, so the
    inventory is a lower bound in their presence).  Baseline streams split
    their output-write portion into a separate ``store`` record; note the
    design's *read* counter historically folds that store traffic in (the
    write stream shares the streaming bandwidth), so for baseline designs
    ``read_bytes + write_bytes`` — not ``read_bytes`` alone — matches the
    design's read accounting.
    """
    from repro.schedule.ir import StageGroup, StreamNode, TransferNode

    inventory = TransferInventory(label=schedule.name)

    def visit(node, trips: int) -> None:
        if isinstance(node, TransferNode):
            inventory.records.append(
                TransferRecord(
                    name=node.name,
                    kind=node.direction,
                    source=node.source,
                    bytes_per_invocation=node.bytes_per_invocation,
                    trips=trips,
                    bursts=node.bursts * trips,
                )
            )
            return
        if isinstance(node, StreamNode):
            inventory.records.append(
                TransferRecord(
                    name=node.name,
                    kind="stream",
                    source=node.source,
                    bytes_per_invocation=node.read_bytes,
                    trips=trips,
                    bursts=0,
                )
            )
            if node.store_bytes:
                # The final kernel's stream carries the result store along
                # with its reads; split it out so read/write totals are true.
                inventory.records.append(
                    TransferRecord(
                        name=f"{node.name}_store",
                        kind="store",
                        source=node.source,
                        bytes_per_invocation=node.store_bytes,
                        trips=trips,
                        bursts=0,
                    )
                )
            return
        if isinstance(node, StageGroup):
            for stage in node.stages:
                visit(stage, trips * max(1, node.iterations))

    visit(schedule.root, 1)
    return inventory


def intermediate_storage_words(program: Program, bindings: Mapping[str, object]) -> int:
    """On-chip words of the (dist, index) intermediate in k-means-like programs.

    Before interchange the intermediate is a single scalar pair (2 words);
    after split + interchange it is a vector of pairs, one per element of the
    split pattern's tile (2 × b0 in Figure 5c).
    """
    evaluator = StaticEvaluator(workload_env(program, bindings), input_shapes(program, bindings))
    split_lets = [
        let
        for let in collect(program.body, lambda n: isinstance(n, Let))
        if isinstance(let.value, MultiFold) and let.value.meta.get("interchanged")
    ]
    if not split_lets:
        return 2
    fold = split_lets[0].value
    words = 1
    for dim in fold.rshape:
        words *= max(1, evaluator.eval_or(dim, 1))
    return 2 * words
