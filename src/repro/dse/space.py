"""Design-space enumeration and the cheap analytical area pre-filter.

A :class:`DesignPoint` fixes everything the compiler needs to produce one
hardware design: the tile size per size symbol, the innermost
parallelisation factor and whether metapipelining is enabled.  The
:func:`default_space` generator enumerates a benchmark's natural sweep —
power-of-two tile sizes per tiled dimension crossed with parallelisation
factors and the metapipelining flag — and :func:`estimate_point_area`
scores a point with a closed-form resource estimate (no tiling, no
hardware generation) so the exploration engine can discard points that
cannot fit the board before paying for compilation.

The estimator reuses the per-lane coefficients of the real area model
(:mod:`repro.analysis.area`) so the pre-filter and the post-generation
report agree about scale; it intentionally over-approximates buffer
footprints (every tiled input double-buffered under metapipelining), so a
generous ``budget`` headroom keeps false prunes rare.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.config import CompileConfig

__all__ = [
    "DesignPoint",
    "DesignSpace",
    "PruneDecision",
    "default_space",
    "estimate_point_area",
    "tile_candidates",
]

WORD_BITS = 32


@dataclass(frozen=True)
class DesignPoint:
    """One candidate configuration of the design space.

    ``tile_sizes`` is a sorted tuple of ``(size-name, tile)`` pairs; an
    empty tuple denotes the untiled baseline configuration.  ``pipeline``
    names the pass-pipeline variant (:mod:`repro.pipeline.variants`) the
    point compiles through — transform orderings are a search axis just
    like tile sizes and parallelism.  ``dram_channels`` selects the
    memory-system provisioning the event cycle backend times the point
    under (:class:`~repro.sim.model.PerformanceModel.dram_channels`); at
    the default 1 the point is evaluated under the session's model
    unchanged.
    """

    tile_sizes: Tuple[Tuple[str, int], ...] = ()
    par: int = 16
    metapipelining: bool = False
    pipeline: str = "default"
    dram_channels: int = 1

    @property
    def tiling(self) -> bool:
        return bool(self.tile_sizes)

    @property
    def tiles(self) -> Dict[str, int]:
        return dict(self.tile_sizes)

    @property
    def label(self) -> str:
        suffix = f"/{self.pipeline}" if self.pipeline != "default" else ""
        if self.dram_channels != 1:
            suffix += f"/ch{self.dram_channels}"
        if not self.tiling:
            return f"baseline/par{self.par}{suffix}"
        tiles = ",".join(f"{name}={size}" for name, size in self.tile_sizes)
        meta = "+meta" if self.metapipelining else ""
        return f"tiles[{tiles}]/par{self.par}{meta}{suffix}"

    def config(self) -> CompileConfig:
        """The compiler configuration realising this point."""
        return CompileConfig(
            tiling=self.tiling,
            metapipelining=self.metapipelining and self.tiling,
            tile_sizes=self.tiles,
            par_factors={"inner": self.par},
            default_par=self.par,
        )

    @staticmethod
    def make(
        tile_sizes: Optional[Mapping[str, int]] = None,
        par: int = 16,
        metapipelining: bool = False,
        pipeline: str = "default",
        dram_channels: int = 1,
    ) -> "DesignPoint":
        return DesignPoint(
            tile_sizes=tuple(sorted((tile_sizes or {}).items())),
            par=par,
            metapipelining=metapipelining,
            pipeline=pipeline,
            dram_channels=dram_channels,
        )


@dataclass
class DesignSpace:
    """An ordered, duplicate-free collection of design points.

    Membership checks are O(1): the search strategies snap every proposed
    move to the space, so ``point in space`` sits on their hot path, and
    enumerating a thousand-point sweep must not pay a quadratic dedupe.
    """

    points: List[DesignPoint] = field(default_factory=list)
    _members: set = field(default_factory=set, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.points and not self._members:
            unique = list(dict.fromkeys(self.points))
            self.points = unique
            self._members = set(unique)

    def __iter__(self) -> Iterator[DesignPoint]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, point: DesignPoint) -> bool:
        return point in self._members

    def add(self, point: DesignPoint) -> None:
        if point not in self._members:
            self.points.append(point)
            self._members.add(point)

    def extend(self, points: Iterable[DesignPoint]) -> "DesignSpace":
        for point in points:
            self.add(point)
        return self


def tile_candidates(extent: int) -> List[int]:
    """Power-of-two tile sizes from 16 up to ``extent``, ascending.

    An extent under 16 yields only itself: ``tile_candidates(6) == [6]``.
    """
    sizes = []
    size = 16
    while size <= extent:
        sizes.append(size)
        size *= 2
    return sizes or [max(1, extent)]


def default_space(
    tiled_dims: Mapping[str, int],
    pars: Sequence[int] = (4, 8, 16, 32),
    metapipelining: Sequence[bool] = (False, True),
    max_tiles_per_dim: int = 4,
    max_points: Optional[int] = None,
    include_baseline: bool = True,
    pipelines: Sequence[str] = ("default",),
    channels: Sequence[int] = (1,),
) -> DesignSpace:
    """The natural sweep for a benchmark.

    ``tiled_dims`` maps each size symbol the benchmark tiles to its full
    extent (usually ``{name: sizes[name] for name in bench.tile_sizes}``).
    Candidate tiles are the last ``max_tiles_per_dim`` of
    :func:`tile_candidates`: the largest powers of two from 16 up to the
    extent, or the extent alone when it is under 16.  The cartesian product
    with ``pars``, the metapipelining flag and the pass-pipeline variants
    forms the space, optionally decimated to ``max_points`` with a
    deterministic stride.
    ``pipelines`` names pipeline variants
    (:func:`repro.pipeline.variants.pipeline_variants`) or ``auto:``
    orderings (:mod:`repro.rewrite.orderings`); passing more than
    one makes the transform ordering an extra search gene.  ``channels``
    likewise makes DRAM-channel provisioning a gene: each count is swept as
    ``PerformanceModel.dram_channels`` when the point is timed under the
    event backend (the analytical backend ignores it).
    """
    space = DesignSpace()
    if include_baseline:
        for par in pars:
            for variant in pipelines:
                for nch in channels:
                    space.add(
                        DesignPoint.make(
                            None, par=par, pipeline=variant, dram_channels=nch
                        )
                    )

    per_dim: List[List[Tuple[str, int]]] = []
    for name, extent in sorted(tiled_dims.items()):
        candidates = tile_candidates(extent)[-max_tiles_per_dim:]
        per_dim.append([(name, size) for size in candidates])

    for combo in itertools.product(*per_dim) if per_dim else ():
        for par in pars:
            for meta in metapipelining:
                for variant in pipelines:
                    for nch in channels:
                        space.add(
                            DesignPoint(
                                tile_sizes=tuple(sorted(combo)),
                                par=par,
                                metapipelining=meta,
                                pipeline=variant,
                                dram_channels=nch,
                            )
                        )

    if max_points is not None and len(space) > max_points:
        stride = len(space.points) / max_points
        kept = [space.points[int(i * stride)] for i in range(max_points)]
        space = DesignSpace().extend(kept)
    return space


# ---------------------------------------------------------------------------
# Cheap analytical area estimate (the pre-simulation prune)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PruneDecision:
    """Outcome of the area pre-filter for one point."""

    point: DesignPoint
    feasible: bool
    reason: str = ""
    logic: float = 0.0
    bram_bits: float = 0.0
    dsps: float = 0.0


def _tiled_footprint_words(
    shape: Tuple[int, ...],
    sizes: Mapping[str, int],
    tiles: Mapping[str, int],
) -> int:
    """Upper bound on the on-chip words one input's tile occupies.

    Each array dimension is matched to a size symbol by extent; a tiled
    symbol caps that dimension at its tile size, untiled dimensions stay
    whole (they are either small or preloaded).
    """
    words = 1
    for extent in shape:
        tiled_extent = extent
        for name in sorted(sizes):
            if sizes[name] == extent and name in tiles:
                tiled_extent = min(tiled_extent, tiles[name])
                break
        words *= max(1, tiled_extent)
    return words


def estimate_point_area(
    shapes: Mapping[str, Tuple[int, ...]],
    sizes: Mapping[str, int],
    point: DesignPoint,
    board,
    budget: float = 1.0,
) -> PruneDecision:
    """Closed-form feasibility check of a design point against the board.

    Uses the area model's per-lane coefficients for compute resources and a
    conservative tile-footprint bound for on-chip memory (double-buffered
    under metapipelining).  Returns an infeasible decision when any of
    logic, block RAM or DSPs would exceed ``budget`` × the device capacity.
    This runs in microseconds — no tiling, no hardware generation — which
    is what lets the exploration engine discard hopeless points before
    paying for compilation.
    """
    from repro.analysis.area import _LANE_DSPS, _LANE_LOGIC

    tiles = point.tiles
    bram_bits = 0.0
    for name, shape in shapes.items():
        words = _tiled_footprint_words(shape, sizes, tiles) if point.tiling else 0
        buffers = 2.0 if point.metapipelining else 1.0
        bram_bits += words * WORD_BITS * buffers

    # One vector unit plus one reduction tree worth of lanes, the dominant
    # compute cost of every benchmark's inner pattern.
    lane_factor = 2.5  # vector unit + log-depth reduction tree
    logic = point.par * _LANE_LOGIC * lane_factor + 8_000.0
    dsps = point.par * _LANE_DSPS * lane_factor

    device = board.device
    if bram_bits > device.bram_bits * budget:
        return PruneDecision(
            point,
            False,
            reason=(
                f"on-chip tiles need {bram_bits / 8 / 1024:.0f} KiB, "
                f"budget {device.bram_bits * budget / 8 / 1024:.0f} KiB"
            ),
            logic=logic,
            bram_bits=bram_bits,
            dsps=dsps,
        )
    if logic > device.logic_cells * budget:
        return PruneDecision(
            point,
            False,
            reason=f"logic estimate {logic:.0f} exceeds {device.logic_cells * budget:.0f}",
            logic=logic,
            bram_bits=bram_bits,
            dsps=dsps,
        )
    if dsps > device.dsps * budget:
        return PruneDecision(
            point,
            False,
            reason=f"DSP estimate {dsps:.0f} exceeds {device.dsps * budget:.0f}",
            logic=logic,
            bram_bits=bram_bits,
            dsps=dsps,
        )
    return PruneDecision(point, True, logic=logic, bram_bits=bram_bits, dsps=dsps)
