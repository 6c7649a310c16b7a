"""Benchmark definitions shared by tests, benchmarks and the evaluation harness.

Each of the paper's six benchmarks (Table 5) is described by a
:class:`Benchmark` object bundling:

* the PPL program builder (the fused form, mirroring Figure 4),
* a numpy reference implementation used as the correctness oracle,
* an input generator, and each input's dimensions as size names,
* the workload sizes and tile sizes used by the evaluation harness, and the
  smaller sizes used by the functional tests (the reference interpreter runs
  pure Python loops, so tests use small shapes).

:meth:`Benchmark.bindings` generates real arrays for whatever reads their
contents (the interpreter, the numpy reference); :meth:`Benchmark.workload`
binds data-free :class:`ShapeOnly` stand-ins for whatever only compiles, keys
or simulates.  Both give the same sizes and shapes, hence the same results and
cache keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.ppl.program import Program

__all__ = [
    "Benchmark",
    "ShapeOnly",
    "register",
    "get_benchmark",
    "all_benchmarks",
    "BENCHMARK_ORDER",
]


# The order used by Figure 7 in the paper.
BENCHMARK_ORDER = ["outerprod", "sumrows", "gemm", "tpchq6", "gda", "kmeans"]


class ShapeOnly:
    """A stand-in for an input array that holds no data, only its ``.shape``.

    The static analyses see an input only through its shape
    (:func:`repro.analysis.estimate.input_shapes`), so a stand-in is all a
    compile needs.  Any read of contents — indexing, iteration, arithmetic,
    ``np.asarray`` — raises ``TypeError`` instead of seeing made-up values.
    """

    __slots__ = ("shape",)

    def __init__(self, shape: Tuple[int, ...]) -> None:
        self.shape = tuple(shape)

    def __array__(self, dtype=None, copy=None):
        raise TypeError(f"a shape-only input {self.shape} holds no data to read")

    def __repr__(self) -> str:
        return f"ShapeOnly({self.shape})"


@dataclass
class Benchmark:
    """A single benchmark of Table 5.

    ``input_dims`` names each input's dimensions by size name, e.g. gemm's
    ``{"x": ("m", "p"), "y": ("p", "n")}``.  Tensor types carry only a
    rank, so the shapes cannot be read off the program; a test checks the
    declaration against ``generate_inputs``.
    """

    name: str
    description: str
    collection_ops: tuple[str, ...]
    build: Callable[[], Program]
    generate_inputs: Callable[[Mapping[str, int], np.random.Generator], Dict[str, np.ndarray]]
    input_dims: Dict[str, Tuple[str, ...]]
    reference: Callable[[Mapping[str, object]], object]
    default_sizes: Dict[str, int]
    test_sizes: Dict[str, int]
    tile_sizes: Dict[str, int]
    par_factors: Dict[str, int] = field(default_factory=dict)
    notes: str = ""

    def bindings(
        self,
        sizes: Optional[Mapping[str, int]] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> Dict[str, object]:
        """Concrete input bindings (sizes + generated arrays) for the program.

        For callers that read array contents (the interpreter, the numpy
        reference); compiling needs only :meth:`workload`.
        """
        sizes = dict(sizes or self.test_sizes)
        rng = rng or np.random.default_rng(7)
        data = self.generate_inputs(sizes, rng)
        bindings: Dict[str, object] = dict(sizes)
        bindings.update(data)
        return bindings

    def workload(self, sizes: Optional[Mapping[str, int]] = None) -> Dict[str, object]:
        """The sizes plus one :class:`ShapeOnly` stand-in per input.

        What compiling, keying and simulating read of :meth:`bindings`,
        without generating any data.
        """
        sizes = dict(sizes or self.test_sizes)
        workload: Dict[str, object] = dict(sizes)
        for name, dims in self.input_dims.items():
            workload[name] = ShapeOnly(tuple(sizes[dim] for dim in dims))
        return workload

    def compile(
        self,
        config,
        sizes: Optional[Mapping[str, int]] = None,
        session=None,
        par: Optional[int] = None,
    ):
        """Build this benchmark and compile it through a compiler session.

        The compile binds :meth:`workload` (shapes, no data).
        ``sizes=None`` compiles the small functional-test workload.  Pass a
        shared :class:`~repro.pipeline.session.CompilerSession` to reuse its
        caches and instrumentation across benchmarks; without one, a
        default session is created (imported lazily — the registry must
        stay importable without pulling in the whole compiler).

        Build and compile run under one fresh naming scope, so the minted
        IR names — and hence the structural hashes the caches key on — are
        a pure function of (benchmark, config), identical in every process.
        """
        from repro.utils.naming import fresh_naming_scope

        if session is None:
            from repro.pipeline.session import CompilerSession

            session = CompilerSession()
        with fresh_naming_scope():
            return session.compile(self.build(), config, self.workload(sizes), par=par)


_REGISTRY: Dict[str, Benchmark] = {}


def register(benchmark: Benchmark) -> Benchmark:
    """Register a benchmark in the global registry (used at import time).

    The builder is wrapped in a fresh naming scope, making every build of a
    registered benchmark nominally identical — the same structural hash in
    any process — so repeated builds share analysis-cache entries (including
    the disk-persisted ones) instead of each minting new keys.
    """
    from repro.utils.naming import fresh_naming_scope

    original_build = benchmark.build

    def deterministic_build() -> Program:
        with fresh_naming_scope():
            return original_build()

    benchmark.build = deterministic_build
    _REGISTRY[benchmark.name] = benchmark
    return benchmark


def get_benchmark(name: str) -> Benchmark:
    if name not in _REGISTRY:
        raise KeyError(f"unknown benchmark {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name]


def all_benchmarks() -> list[Benchmark]:
    """All registered benchmarks in Figure 7 order."""
    ordered = [name for name in BENCHMARK_ORDER if name in _REGISTRY]
    extra = [name for name in _REGISTRY if name not in BENCHMARK_ORDER]
    return [_REGISTRY[name] for name in ordered + sorted(extra)]
