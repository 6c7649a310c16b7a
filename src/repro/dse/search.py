"""Pluggable exploration strategies over the design space.

PR 1's engine enumerated the whole (tile × par × metapipelining) grid and
pruned.  That cannot scale to richer spaces (performance-model knobs,
per-loop parallelism), so this module introduces *search*: a strategy
proposes batches of design points, the engine evaluates them (serially or
over a worker pool) and feeds the results back, and the strategy decides
where to look next.

Strategies are generator-based: :meth:`Strategy.search` yields lists of
candidate points and receives, via ``send``, a mapping from each proposed
point to its :class:`~repro.dse.engine.PointResult` (points cut by the
evaluation budget are simply absent).  :func:`run_search` drives one
strategy; the multi-benchmark explorer drives several concurrently,
interleaving their batches over one shared pool.

Four strategies ship:

* :class:`ExhaustiveStrategy` — the grid: propose every point at once
  (PR 1's behaviour, now expressed through the same interface);
* :class:`HillClimbStrategy` — evaluate a seed sample, then repeatedly
  expand the one-gene neighbourhoods of the current Pareto front until the
  front stops changing;
* :class:`GeneticStrategy` — a small genetic algorithm: tournament
  selection on Pareto rank, per-gene uniform crossover and single-gene
  mutation over the tile/par/metapipelining genome;
* :class:`AnnealingStrategy` — simulated annealing whose per-round batch
  budget adapts to front-hypervolume stalls: effort concentrates while
  the Pareto front is still moving and decays to a stop once it plateaus.

All strategies are deterministic under a fixed seed: randomness flows
exclusively through the ``numpy`` generator handed to ``search``, and every
collection they iterate is insertion-ordered.

:func:`hypervolume` measures front quality — the area of the
(cycles, area) region a front dominates relative to a reference point — so
``benchmarks/bench_dse.py`` can assert that the search strategies reach
≥95% of the exhaustive front's hypervolume from ≤40% of the evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Generator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.dse.space import DesignPoint, DesignSpace

__all__ = [
    "SpaceAxes",
    "Strategy",
    "ExhaustiveStrategy",
    "HillClimbStrategy",
    "GeneticStrategy",
    "AnnealingStrategy",
    "SearchDriver",
    "SearchOutcome",
    "run_search",
    "get_strategy",
    "available_strategies",
    "area_key",
    "pareto_rank",
    "hypervolume",
]

# A batch-evaluation callback: points in, results in the same order out.
Evaluator = Callable[[Sequence[DesignPoint]], List["PointResult"]]  # noqa: F821
# What a strategy generator receives for its last proposed batch.
BatchResults = Mapping[DesignPoint, "PointResult"]  # noqa: F821


def area_key(result) -> float:
    """The area scalar of the (cycles, area) objective.

    The single definition shared by Pareto ranking (``engine.pareto_front``),
    hypervolume scoring and the benchmarks: device utilization when the
    point carries one, raw logic cells otherwise.
    """
    return result.max_utilization if result.utilization else result.logic


# ---------------------------------------------------------------------------
# The gene space: discrete axes a strategy can move along
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpaceAxes:
    """The discrete gene axes spanned by a design space.

    ``tile_values`` maps each tiled size symbol to its sorted candidate
    tiles; ``pars`` and ``metas`` are the sorted parallelisation factors and
    metapipelining flags that occur in the space, ``pipelines`` the
    pass-pipeline variants and ``channels`` the DRAM-channel counts.
    ``members`` is the set of points actually in the space: every move a
    strategy proposes is snapped to it, so search never evaluates a point
    grid enumeration would not have produced (which is what makes "search
    front ⊆ grid front" testable).
    """

    tile_values: Tuple[Tuple[str, Tuple[int, ...]], ...]
    pars: Tuple[int, ...]
    metas: Tuple[bool, ...]
    members: frozenset
    pipelines: Tuple[str, ...] = ("default",)
    channels: Tuple[int, ...] = (1,)

    @staticmethod
    def from_space(space: DesignSpace) -> "SpaceAxes":
        tiles: Dict[str, set] = {}
        pars: set = set()
        metas: set = set()
        pipelines: set = set()
        channels: set = set()
        for point in space:
            pars.add(point.par)
            metas.add(point.metapipelining)
            pipelines.add(point.pipeline)
            channels.add(point.dram_channels)
            for name, size in point.tile_sizes:
                tiles.setdefault(name, set()).add(size)
        return SpaceAxes(
            tile_values=tuple(
                (name, tuple(sorted(values))) for name, values in sorted(tiles.items())
            ),
            pars=tuple(sorted(pars)),
            metas=tuple(sorted(metas)),
            members=frozenset(space),
            pipelines=tuple(sorted(pipelines)) or ("default",),
            channels=tuple(sorted(channels)) or (1,),
        )

    def neighbors(self, point: DesignPoint) -> List[DesignPoint]:
        """All in-space points one gene step away from ``point``.

        A step moves one gene to an adjacent value: a tile size to the next
        smaller/larger candidate, ``par`` to the next smaller/larger factor,
        the metapipelining flag to its other value, the pass-pipeline
        variant to any other variant in the space, or the DRAM-channel
        count to the next smaller/larger count.  The baseline (untiled)
        points additionally neighbour the fully-smallest and fully-largest
        tilings so tiled and untiled regions stay connected.
        """
        moved: List[DesignPoint] = []
        tiles = point.tiles
        variant = point.pipeline
        nch = point.dram_channels

        for name, values in self.tile_values:
            current = tiles.get(name)
            if current is None:
                continue
            index = values.index(current) if current in values else None
            if index is None:
                continue
            for step in (-1, 1):
                other = index + step
                if 0 <= other < len(values):
                    new_tiles = dict(tiles)
                    new_tiles[name] = values[other]
                    moved.append(
                        DesignPoint.make(
                            new_tiles,
                            par=point.par,
                            metapipelining=point.metapipelining,
                            pipeline=variant,
                            dram_channels=nch,
                        )
                    )

        par_index = self.pars.index(point.par) if point.par in self.pars else None
        if par_index is not None:
            for step in (-1, 1):
                other = par_index + step
                if 0 <= other < len(self.pars):
                    moved.append(
                        DesignPoint.make(
                            tiles or None,
                            par=self.pars[other],
                            metapipelining=point.metapipelining,
                            pipeline=variant,
                            dram_channels=nch,
                        )
                    )

        if len(self.metas) > 1:
            moved.append(
                DesignPoint.make(
                    tiles or None,
                    par=point.par,
                    metapipelining=not point.metapipelining,
                    pipeline=variant,
                    dram_channels=nch,
                )
            )

        for other_variant in self.pipelines:
            if other_variant != variant:
                moved.append(
                    DesignPoint.make(
                        tiles or None,
                        par=point.par,
                        metapipelining=point.metapipelining,
                        pipeline=other_variant,
                        dram_channels=nch,
                    )
                )

        ch_index = self.channels.index(nch) if nch in self.channels else None
        if ch_index is not None:
            for step in (-1, 1):
                other = ch_index + step
                if 0 <= other < len(self.channels):
                    moved.append(
                        DesignPoint.make(
                            tiles or None,
                            par=point.par,
                            metapipelining=point.metapipelining,
                            pipeline=variant,
                            dram_channels=self.channels[other],
                        )
                    )

        if not tiles and self.tile_values:
            # Baseline → the corner tilings, keeping par.
            for pick in (0, -1):
                corner = {name: values[pick] for name, values in self.tile_values}
                for meta in self.metas:
                    moved.append(
                        DesignPoint.make(
                            corner,
                            par=point.par,
                            metapipelining=meta,
                            pipeline=variant,
                            dram_channels=nch,
                        )
                    )
        elif tiles:
            # Tiled → the untiled baseline at the same par.
            moved.append(
                DesignPoint.make(
                    None, par=point.par, pipeline=variant, dram_channels=nch
                )
            )

        seen: Dict[DesignPoint, None] = {}
        for candidate in moved:
            if candidate in self.members and candidate != point:
                seen.setdefault(candidate, None)
        return list(seen)

    def mutate(self, point: DesignPoint, rng: np.random.Generator) -> DesignPoint:
        """One random in-space gene step (identity when ``point`` is isolated)."""
        options = self.neighbors(point)
        if not options:
            return point
        return options[int(rng.integers(len(options)))]

    def anchors(self) -> List[DesignPoint]:
        """Canonical extreme points worth evaluating in every initial sample.

        The Pareto front's endpoints live at gene extremes — the smallest
        and largest parallelism, the corner tilings, the untiled baseline —
        so seeding them deterministically lets a budgeted search cover the
        whole cycles/area trade-off instead of only the region its random
        sample happened to land in.
        """
        candidates: List[DesignPoint] = []
        par_extremes = [self.pars[0], self.pars[-1]] if self.pars else []
        channel_extremes = list(dict.fromkeys((self.channels[0], self.channels[-1])))
        for par in par_extremes:
            for variant in self.pipelines:
                for nch in channel_extremes:
                    candidates.append(
                        DesignPoint.make(
                            None, par=par, pipeline=variant, dram_channels=nch
                        )
                    )
                    for pick in (0, -1):
                        corner = {
                            name: values[pick] for name, values in self.tile_values
                        }
                        for meta in self.metas:
                            candidates.append(
                                DesignPoint.make(
                                    corner or None,
                                    par=par,
                                    metapipelining=meta,
                                    pipeline=variant,
                                    dram_channels=nch,
                                )
                            )
        unique: Dict[DesignPoint, None] = {}
        for candidate in candidates:
            if candidate in self.members:
                unique.setdefault(candidate, None)
        return list(unique)


# ---------------------------------------------------------------------------
# Pareto utilities shared by the strategies, the benchmark and the tests
# ---------------------------------------------------------------------------


def pareto_rank(results: Sequence) -> Dict[DesignPoint, int]:
    """Non-dominated sorting rank per point (0 = on the Pareto front).

    Repeatedly peels the (cycles, area) front; each peel gets the next
    rank.  One lexicographic sort up front, then each peel is a whole-array
    prefix-minimum sweep over the still-unranked points — the same fronts,
    in the same order, as peeling with ``pareto_front`` (which shares the
    sort key and the strict-``<`` tie rule), without re-sorting per rank.
    """
    results = list(results)
    if not results:
        return {}
    cycles = np.array([r.cycles for r in results], dtype=np.float64)
    areas = np.array([area_key(r) for r in results], dtype=np.float64)
    labels = np.array([r.label for r in results])
    # Primary cycles, then area, then label — np.lexsort keys are listed
    # least-significant first, and its stability matches sorted().
    order = np.lexsort((labels, areas, cycles))
    sorted_areas = areas[order]
    # Results sharing one DesignPoint leave together (the scalar peel
    # removed by point membership, and the rank dict is keyed per point).
    gid_of: Dict[DesignPoint, int] = {}
    gids = np.array(
        [gid_of.setdefault(r.point, len(gid_of)) for r in results], dtype=np.intp
    )
    sorted_gids = gids[order]
    gid_rank = np.full(len(gid_of), -1, dtype=np.intp)
    remaining = np.ones(len(results), dtype=bool)
    rank = 0
    while remaining.any():
        alive = np.flatnonzero(remaining)
        area_run = sorted_areas[alive]
        keep = np.empty(len(alive), dtype=bool)
        keep[0] = True
        if len(alive) > 1:
            keep[1:] = area_run[1:] < np.minimum.accumulate(area_run)[:-1]
        front_gids = sorted_gids[alive[keep]]
        gid_rank[front_gids] = rank
        remaining[alive] = ~np.isin(sorted_gids[alive], front_gids)
        rank += 1
    return {point: int(gid_rank[gid]) for point, gid in gid_of.items()}


def hypervolume(
    results: Sequence, reference: Optional[Tuple[float, float]] = None
) -> float:
    """Dominated (cycles, area) region of a result set's Pareto front.

    Both objectives are minimised; ``reference`` is the worst corner the
    volume is measured against and defaults to 5% beyond the worst evaluated
    point.  Pass the *same* reference when comparing fronts — e.g. computed
    from the exhaustive sweep — or the comparison is meaningless.
    """
    from repro.dse.engine import pareto_front

    if not results:
        return 0.0
    if reference is None:
        reference = (
            max(r.cycles for r in results) * 1.05,
            max(area_key(r) for r in results) * 1.05,
        )
    ref_cycles, ref_area = reference
    front = sorted(
        ((r.cycles, area_key(r)) for r in pareto_front(results)), key=lambda p: p[0]
    )
    cycles = np.array([c for c, _ in front], dtype=np.float64)
    areas = np.array([a for _, a in front], dtype=np.float64)
    next_cycles = np.minimum(np.append(cycles[1:], ref_cycles), ref_cycles)
    terms = np.where(
        (cycles >= ref_cycles) | (areas >= ref_area),
        0.0,
        (next_cycles - cycles) * (ref_area - areas),
    )
    # Left-to-right accumulation (adding exact 0.0 for skipped points) keeps
    # the result bit-identical to the original Python loop; np.sum's
    # pairwise reduction would not.
    volume = 0.0
    for term in terms:
        volume += float(term)
    return volume


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


class Strategy:
    """Base class of the exploration strategies.

    A strategy is a generator factory: :meth:`search` yields batches of
    candidate :class:`DesignPoint`s and receives, for each yielded batch, a
    mapping from proposed point to evaluated result.  Points the driver
    declined to evaluate (budget exhausted) are missing from the mapping;
    duplicates and already-evaluated points are served from the driver's
    memo without consuming budget.
    """

    name: str = "strategy"

    def search(
        self, space: DesignSpace, rng: np.random.Generator
    ) -> Generator[List[DesignPoint], BatchResults, None]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"


class ExhaustiveStrategy(Strategy):
    """Propose the whole grid in one batch — PR 1's sweep as a strategy."""

    name = "exhaustive"

    def search(self, space, rng):
        yield list(space)


class HillClimbStrategy(Strategy):
    """Pareto-front hill climbing with random restarts.

    Evaluates a seed sample of the space, then repeatedly proposes the
    one-gene neighbourhoods of every current Pareto-front point.  When a
    round improves nothing (or the neighbourhood closes), the climb
    *restarts* from a fresh sample of unseen points instead of stopping —
    so quality is budget-driven: a tight ``max_evaluations`` gets a quick
    local front, a generous one keeps escaping local fronts until the
    space (or the budget) is exhausted.  Seeding from the whole front
    rather than a single incumbent populates the full cycles/area
    trade-off instead of one optimum.
    """

    name = "hill-climb"

    def __init__(
        self,
        sample_fraction: float = 0.15,
        min_samples: int = 8,
        max_rounds: int = 256,
        front_width: Optional[int] = None,
        restarts: Optional[int] = None,
    ) -> None:
        self.sample_fraction = sample_fraction
        self.min_samples = min_samples
        self.max_rounds = max_rounds
        self.front_width = front_width
        self.restarts = restarts  # None = keep restarting while points remain

    def search(self, space, rng):
        from repro.dse.engine import pareto_front

        points = list(space)
        if not points:
            return
        axes = SpaceAxes.from_space(space)
        count = min(
            len(points), max(self.min_samples, int(round(self.sample_fraction * len(points))))
        )
        seen: Dict[DesignPoint, object] = {}

        def sample_unseen() -> Optional[List[DesignPoint]]:
            unseen = [p for p in points if p not in seen]
            if not unseen:
                return None
            size = min(len(unseen), count)
            picks = sorted(rng.choice(len(unseen), size=size, replace=False).tolist())
            return [unseen[i] for i in picks]

        # Seed with the gene-space extremes plus a random sample: the front's
        # endpoints live at the extremes, and a budgeted climb may never
        # wander there on its own.
        seed_batch: Dict[DesignPoint, None] = dict.fromkeys(axes.anchors())
        for point in sample_unseen() or []:
            seed_batch.setdefault(point, None)
        results = yield list(seed_batch)
        if not results:
            return
        seen.update(results)

        restarts_left = self.restarts
        for _ in range(self.max_rounds):
            front = pareto_front(list(seen.values()))
            if self.front_width is not None:
                front = front[: self.front_width]
            proposals: Dict[DesignPoint, None] = {}
            for result in front:
                for neighbor in axes.neighbors(result.point):
                    if neighbor not in seen:
                        proposals.setdefault(neighbor, None)
            if proposals:
                results = yield list(proposals)
                if not results:
                    return  # budget exhausted — nothing evaluated this round
                before = {r.point for r in front}
                seen.update(results)
                after = {r.point for r in pareto_front(list(seen.values()))}
                if not (after <= before):
                    continue  # the round improved the front — keep climbing
            # Converged (or the neighbourhood closed): restart from fresh points.
            if restarts_left is not None and restarts_left <= 0:
                return
            fresh = sample_unseen()
            if fresh is None:
                return  # space exhausted
            if restarts_left is not None:
                restarts_left -= 1
            results = yield fresh
            if not results:
                return
            seen.update(results)


class GeneticStrategy(Strategy):
    """A small genetic algorithm over the tile/par/metapipelining genome.

    Individuals are design points; fitness is Pareto rank over everything
    evaluated so far (ties broken by cycles).  Each generation breeds a new
    population by binary-tournament selection, per-gene uniform crossover
    (tile sizes, par and metapipelining recombine independently) and a
    single-gene mutation step; offspring falling outside the space are
    replaced by their first parent.  Elites — the current front — survive
    unconditionally.
    """

    name = "genetic"

    def __init__(
        self,
        population: int = 16,
        generations: int = 12,
        crossover_rate: float = 0.7,
        mutation_rate: float = 0.35,
    ) -> None:
        self.population = population
        self.generations = generations
        self.crossover_rate = crossover_rate
        self.mutation_rate = mutation_rate

    def _crossover(
        self,
        first: DesignPoint,
        second: DesignPoint,
        axes: SpaceAxes,
        rng: np.random.Generator,
    ) -> DesignPoint:
        if first.tiling and second.tiling:
            tiles = {}
            merged = dict(second.tiles)
            merged.update({k: v for k, v in first.tiles.items() if rng.random() < 0.5})
            for name in sorted(set(first.tiles) | set(second.tiles)):
                tiles[name] = merged.get(name, first.tiles.get(name, second.tiles.get(name)))
        else:
            # Baseline genomes have no tile genes: inherit one parent's whole
            # tiling (or lack of it).
            tiles = dict((first if rng.random() < 0.5 else second).tiles)
        par = first.par if rng.random() < 0.5 else second.par
        meta = first.metapipelining if rng.random() < 0.5 else second.metapipelining
        # Only draw for the pipeline gene when the parents disagree, so
        # single-variant spaces keep the exact pre-pipeline-axis RNG stream
        # (search trajectories stay reproducible across releases).
        if first.pipeline == second.pipeline:
            variant = first.pipeline
        else:
            variant = first.pipeline if rng.random() < 0.5 else second.pipeline
        # Same stream-preserving rule for the DRAM-channel gene.
        if first.dram_channels == second.dram_channels:
            nch = first.dram_channels
        else:
            nch = first.dram_channels if rng.random() < 0.5 else second.dram_channels
        child = DesignPoint.make(
            tiles or None,
            par=par,
            metapipelining=meta,
            pipeline=variant,
            dram_channels=nch,
        )
        return child if child in axes.members else first

    def _tournament(
        self,
        population: List[DesignPoint],
        ranks: Dict[DesignPoint, int],
        seen: Dict[DesignPoint, object],
        rng: np.random.Generator,
    ) -> DesignPoint:
        a, b = (population[int(i)] for i in rng.integers(len(population), size=2))
        key = lambda p: (ranks.get(p, len(population)), seen[p].cycles)
        return a if key(a) <= key(b) else b

    def search(self, space, rng):
        from repro.dse.engine import pareto_front

        points = list(space)
        if not points:
            return
        axes = SpaceAxes.from_space(space)
        size = min(self.population, len(points))
        picks = sorted(rng.choice(len(points), size=size, replace=False).tolist())
        seeded: Dict[DesignPoint, None] = dict.fromkeys(axes.anchors())
        for i in picks:
            seeded.setdefault(points[i], None)
        population = list(seeded)
        results = yield population

        seen: Dict[DesignPoint, object] = dict(results)
        population = [p for p in population if p in seen]
        for _ in range(self.generations):
            if not population:
                return
            ranks = pareto_rank([seen[p] for p in seen])
            offspring: Dict[DesignPoint, None] = {}
            attempts = 0
            while len(offspring) < size and attempts < size * 8:
                attempts += 1
                mother = self._tournament(population, ranks, seen, rng)
                father = self._tournament(population, ranks, seen, rng)
                child = mother
                if rng.random() < self.crossover_rate:
                    child = self._crossover(mother, father, axes, rng)
                if rng.random() < self.mutation_rate:
                    child = axes.mutate(child, rng)
                if child not in seen:
                    offspring.setdefault(child, None)
            if not offspring:
                return
            results = yield list(offspring)
            if not results:
                return
            seen.update(results)
            # Next generation: elites (the front) plus the best offspring.
            ranks = pareto_rank([seen[p] for p in seen])
            elites = [r.point for r in pareto_front(list(seen.values()))]
            pool = elites + [p for p in results if p not in elites]
            pool.sort(key=lambda p: (ranks.get(p, len(seen)), seen[p].cycles))
            population = pool[:size]


class AnnealingStrategy(Strategy):
    """Simulated annealing with a plateau-adaptive batch budget.

    A pool of walkers proposes mutated candidates each round — hot walkers
    take multi-gene jumps, cooling shrinks the steps to one-gene moves —
    and the walkers themselves are re-seated every round on the current
    Pareto front (padded with random evaluated points, so the pool keeps
    an exploratory tail).

    The batch budget is sized by **front-hypervolume stall detection**:
    the hypervolume of everything seen so far is tracked against a
    reference corner frozen after the seed round (a moving reference would
    make rounds incomparable).  A round that fails to grow the volume by
    ``plateau_epsilon`` (relative) is a stall — the next round's budget
    halves (never below ``min_batch``), and ``plateau_patience``
    consecutive stalls stop the search.  Any improving round restores the
    full budget.  The effect is the ISSUE's "spend the reclaimed cycles
    adaptively": evaluation effort concentrates while the front is moving
    and decays to zero once it isn't, which is how the strategy reaches
    the exhaustive front's hypervolume on fewer evaluations than a
    fixed-generation genetic run.

    Deterministic under a fixed seed: every random draw flows through the
    driver's generator, and all collections are insertion-ordered.
    """

    name = "annealing"

    def __init__(
        self,
        walkers: int = 12,
        rounds: int = 64,
        start_temperature: float = 1.0,
        cooling: float = 0.85,
        plateau_epsilon: float = 0.002,
        plateau_patience: int = 3,
        min_batch: int = 4,
    ) -> None:
        self.walkers = walkers
        self.rounds = rounds
        self.start_temperature = start_temperature
        self.cooling = cooling
        self.plateau_epsilon = plateau_epsilon
        self.plateau_patience = plateau_patience
        self.min_batch = min_batch

    def _reseat_walkers(
        self,
        seen: Dict[DesignPoint, object],
        count: int,
        rng: np.random.Generator,
    ) -> List[DesignPoint]:
        from repro.dse.engine import pareto_front

        front = [r.point for r in pareto_front(list(seen.values()))]
        walkers = front[:count]
        if len(walkers) < count:
            pool = [p for p in seen if p not in set(walkers)]
            while len(walkers) < count and pool:
                walkers.append(pool.pop(int(rng.integers(len(pool)))))
        return walkers

    def search(self, space, rng):
        points = list(space)
        if not points:
            return
        axes = SpaceAxes.from_space(space)
        count = min(self.walkers, len(points))

        # Seed round: the gene-space extremes plus a random sample.
        seeded: Dict[DesignPoint, None] = dict.fromkeys(axes.anchors())
        picks = sorted(rng.choice(len(points), size=count, replace=False).tolist())
        for index in picks:
            seeded.setdefault(points[index], None)
        results = yield list(seeded)
        if not results:
            return
        seen: Dict[DesignPoint, object] = dict(results)

        # The reference corner is frozen here: hypervolumes of later rounds
        # are only comparable against a fixed worst-case box.
        reference = (
            max(r.cycles for r in seen.values()) * 1.05,
            max(area_key(r) for r in seen.values()) * 1.05,
        )
        best_volume = hypervolume(list(seen.values()), reference)
        temperature = self.start_temperature
        budget = count
        stalls = 0

        for _ in range(self.rounds):
            walkers = self._reseat_walkers(seen, count, rng)
            heat = min(1.0, temperature / max(self.start_temperature, 1e-12))
            proposals: Dict[DesignPoint, None] = {}
            attempts = 0
            while len(proposals) < budget and attempts < budget * 8:
                walker = walkers[attempts % len(walkers)]
                attempts += 1
                candidate = axes.mutate(walker, rng)
                if rng.random() < heat:  # hot: take a second gene step
                    candidate = axes.mutate(candidate, rng)
                if candidate not in seen:
                    proposals.setdefault(candidate, None)
            if not proposals:
                # The neighbourhood closed around the walkers: draw fresh
                # unseen points so a plateau verdict is based on evidence,
                # not exhaustion.
                unseen = [p for p in points if p not in seen]
                if not unseen:
                    return
                size = min(len(unseen), budget)
                picks = sorted(
                    rng.choice(len(unseen), size=size, replace=False).tolist()
                )
                proposals = dict.fromkeys(unseen[i] for i in picks)
            results = yield list(proposals)
            if not results:
                return
            seen.update(results)

            volume = hypervolume(list(seen.values()), reference)
            if best_volume > 0:
                improved = (volume - best_volume) / best_volume > self.plateau_epsilon
            else:
                improved = volume > 0
            if improved:
                stalls = 0
                budget = count
            else:
                stalls += 1
                budget = max(self.min_batch, budget // 2)
                if stalls >= self.plateau_patience:
                    return
            best_volume = max(best_volume, volume)
            temperature *= self.cooling


_STRATEGIES: Dict[str, Callable[[], Strategy]] = {
    "exhaustive": ExhaustiveStrategy,
    "hill-climb": HillClimbStrategy,
    "genetic": GeneticStrategy,
    "annealing": AnnealingStrategy,
}


def available_strategies() -> List[str]:
    return sorted(_STRATEGIES)


def get_strategy(strategy: Union[str, Strategy, None]) -> Strategy:
    """Resolve a strategy name (or pass an instance through)."""
    if strategy is None:
        return ExhaustiveStrategy()
    if isinstance(strategy, Strategy):
        return strategy
    try:
        factory = _STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown search strategy {strategy!r}; available: {available_strategies()}"
        ) from None
    return factory()


# ---------------------------------------------------------------------------
# The single-strategy driver
# ---------------------------------------------------------------------------


@dataclass
class SearchOutcome:
    """Everything one strategy run evaluated, in evaluation order."""

    strategy: str
    evaluated: List = field(default_factory=list)
    evaluations: int = 0
    batches: int = 0
    budget: Optional[int] = None

    @property
    def front(self) -> List:
        from repro.dse.engine import pareto_front

        return pareto_front(self.evaluated)


class SearchDriver:
    """Incremental driver for one strategy generator.

    Owns the strategy↔engine protocol — batch deduplication, the
    evaluation budget, and the results-so-far reply — so that
    :func:`run_search` (one strategy, one evaluator) and the
    multi-benchmark explorer (several drivers interleaved over one pool)
    share a single implementation and cannot drift apart.

    Usage: ``start()``, then loop ``fresh_points()`` → evaluate →
    ``record(points, results)`` → ``advance()`` until ``done``.
    Deterministic for a fixed ``seed`` (all randomness flows through one
    ``numpy`` generator).

    ``on_record`` (when set) observes every successful evaluation as it is
    recorded — the hook the engine's checkpoint journal hangs off, so an
    interrupted search can resume from exactly the results its strategy
    had already consumed.  Results marked ``failed`` (quarantined by the
    supervision layer) are *not* recorded: a failed point carries no
    metrics, and feeding it to a strategy would poison the Pareto front.
    The point stays unseen, so re-proposals are served from the
    supervisor's quarantine memo instead of being re-evaluated.
    """

    def __init__(
        self,
        strategy: Union[str, Strategy, None],
        space: DesignSpace,
        seed: int = 0,
        max_evaluations: Optional[int] = None,
        on_record: Optional[Callable[[DesignPoint, object], None]] = None,
    ) -> None:
        self.strategy = get_strategy(strategy)
        self.max_evaluations = max_evaluations
        self.seen: Dict[DesignPoint, object] = {}
        self.requested: List[DesignPoint] = []
        self.batches = 0
        self.done = False
        self.on_record = on_record
        self._generator = self.strategy.search(space, np.random.default_rng(seed))

    def start(self) -> None:
        self._pull(None)

    def _pull(self, reply: Optional[Dict[DesignPoint, object]]) -> None:
        try:
            batch = next(self._generator) if reply is None else self._generator.send(reply)
            self.requested = list(dict.fromkeys(batch))
        except StopIteration:
            self.requested = []
            self.done = True

    def fresh_points(self) -> List[DesignPoint]:
        """The current batch filtered to unevaluated points, budget-trimmed."""
        fresh = [p for p in self.requested if p not in self.seen]
        if self.max_evaluations is not None:
            fresh = fresh[: max(0, self.max_evaluations - len(self.seen))]
        return fresh

    def record(self, points: Sequence[DesignPoint], results: Sequence) -> None:
        for point, result in zip(points, results):
            if getattr(result, "failed", False):
                continue
            self.seen[point] = result
            if self.on_record is not None:
                self.on_record(point, result)
        if points:
            self.batches += 1

    def advance(self) -> None:
        """Finish the round: enforce the budget, hand the strategy its
        results (every requested point ever evaluated), pull the next batch."""
        if self.done:
            return
        if self.max_evaluations is not None and len(self.seen) >= self.max_evaluations:
            self.requested = []
            self.done = True
            return
        self._pull({p: self.seen[p] for p in self.requested if p in self.seen})

    def outcome(self) -> SearchOutcome:
        return SearchOutcome(
            strategy=self.strategy.name,
            evaluated=list(self.seen.values()),
            evaluations=len(self.seen),
            batches=self.batches,
            budget=self.max_evaluations,
        )


def run_search(
    strategy: Union[str, Strategy],
    space: DesignSpace,
    evaluate: Evaluator,
    seed: int = 0,
    max_evaluations: Optional[int] = None,
) -> SearchOutcome:
    """Drive one strategy over a space with a batch evaluator.

    The driver owns deduplication and the budget: batches are filtered to
    unevaluated points and trimmed to the remaining budget before hitting
    ``evaluate``; the strategy receives results for everything in its batch
    that has ever been evaluated, so re-proposing a known point is cheap.
    Deterministic for a fixed ``seed``.
    """
    driver = SearchDriver(strategy, space, seed=seed, max_evaluations=max_evaluations)
    driver.start()
    while not driver.done:
        fresh = driver.fresh_points()
        if fresh:
            driver.record(fresh, evaluate(fresh))
        driver.advance()
    return driver.outcome()
