"""Figure 5c: k-means main-memory reads and on-chip storage per IR form.

The paper's Figure 5c table lists, for the ``points``, ``centroids`` and
``minDistWithIndex`` data structures of k-means, the minimum number of words
read from main memory and the on-chip storage after each transformation
stage:

===================  ==================  ============  ==================  ============  ==================  ============
data structure        fused reads         fused store   strip-mined reads   s.m. store    interchanged reads  int. store
===================  ==================  ============  ==================  ============  ==================  ============
points                n·d                 d             n·d                 b0·d          n·d                 b0·d
centroids             n·k·d               d             n·k·d               b1·d          (n/b0)·k·d          b1·d
minDistWithIndex      0                   2             0                   2             0                   2·b0
===================  ==================  ============  ==================  ============  ==================  ============

:func:`run_figure5c` derives all three program forms with the tiling driver
(tiling both ``n`` by ``b0`` and ``k`` by ``b1``, as in the paper's
walkthrough), measures reads/storage with the traffic analysis, and evaluates
the paper's closed-form expressions at the same sizes so the two can be
compared row by row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.analysis.traffic import TrafficReport, intermediate_storage_words, minimum_reads
from repro.apps import get_benchmark
from repro.config import CompileConfig
from repro.transforms.tiling import TilingDriver

__all__ = ["Figure5cRow", "Figure5cReport", "run_figure5c", "paper_formulas"]

DEFAULT_SIZES = {"n": 4096, "k": 64, "d": 16}
DEFAULT_TILES = {"n": 256, "k": 16}


def paper_formulas(sizes: Mapping[str, int], tiles: Mapping[str, int]) -> Dict[str, Dict[str, Dict[str, int]]]:
    """The Figure 5c expressions evaluated at concrete sizes."""
    n, k, d = sizes["n"], sizes["k"], sizes["d"]
    b0, b1 = tiles["n"], tiles["k"]
    return {
        "fused": {
            "points": {"reads": n * d, "storage": d},
            "centroids": {"reads": n * k * d, "storage": d},
            "minDistWithIndex": {"reads": 0, "storage": 2},
        },
        "strip_mined": {
            "points": {"reads": n * d, "storage": b0 * d},
            "centroids": {"reads": n * k * d, "storage": b1 * d},
            "minDistWithIndex": {"reads": 0, "storage": 2},
        },
        "interchanged": {
            "points": {"reads": n * d, "storage": b0 * d},
            "centroids": {"reads": (n // b0) * k * d, "storage": b1 * d},
            "minDistWithIndex": {"reads": 0, "storage": 2 * b0},
        },
    }


@dataclass
class Figure5cRow:
    """Measured traffic/storage for one data structure in one IR form."""

    form: str
    array: str
    reads: int
    storage: int
    paper_reads: int
    paper_storage: int

    @property
    def reads_match(self) -> bool:
        return self.reads == self.paper_reads

    @property
    def storage_match(self) -> bool:
        return self.storage == self.paper_storage


@dataclass
class Figure5cReport:
    sizes: Dict[str, int]
    tiles: Dict[str, int]
    rows: list[Figure5cRow] = field(default_factory=list)

    def row(self, form: str, array: str) -> Figure5cRow:
        for row in self.rows:
            if row.form == form and row.array == array:
                return row
        raise KeyError((form, array))

    def table(self) -> str:
        header = (
            f"{'form':<14} {'array':<18} {'reads':>14} {'paper reads':>14} "
            f"{'storage':>10} {'paper storage':>14}"
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.form:<14} {row.array:<18} {row.reads:>14,} {row.paper_reads:>14,} "
                f"{row.storage:>10,} {row.paper_storage:>14,}"
            )
        return "\n".join(lines)

    @property
    def all_match(self) -> bool:
        return all(row.reads_match and row.storage_match for row in self.rows)


def run_figure5c(
    sizes: Optional[Mapping[str, int]] = None,
    tiles: Optional[Mapping[str, int]] = None,
) -> Figure5cReport:
    """Measure the k-means traffic table and compare with the paper's formulas."""
    sizes = dict(sizes or DEFAULT_SIZES)
    tiles = dict(tiles or DEFAULT_TILES)

    bench = get_benchmark("kmeans")
    program = bench.build()
    workload = bench.workload(sizes)

    config = CompileConfig(tiling=True, tile_sizes=tiles)
    tiling = TilingDriver(config).run(program)
    forms = {
        "fused": tiling.fused,
        "strip_mined": tiling.strip_mined,
        "interchanged": tiling.tiled,
    }
    expected = paper_formulas(sizes, tiles)

    report = Figure5cReport(sizes=sizes, tiles=tiles)
    for form, form_program in forms.items():
        traffic: TrafficReport = minimum_reads(form_program, workload)
        for array in ("points", "centroids"):
            report.rows.append(
                Figure5cRow(
                    form=form,
                    array=array,
                    reads=traffic.words_read(array),
                    storage=traffic.storage(array),
                    paper_reads=expected[form][array]["reads"],
                    paper_storage=expected[form][array]["storage"],
                )
            )
        report.rows.append(
            Figure5cRow(
                form=form,
                array="minDistWithIndex",
                reads=0,
                storage=intermediate_storage_words(form_program, workload),
                paper_reads=expected[form]["minDistWithIndex"]["reads"],
                paper_storage=expected[form]["minDistWithIndex"]["storage"],
            )
        )
    return report
