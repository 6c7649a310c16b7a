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

Two strategies ship:

* :class:`ExhaustiveStrategy` — the grid: propose every point at once
  (PR 1's behaviour, now expressed through the same interface);
* :class:`AnnealingStrategy` — simulated annealing whose per-round batch
  budget adapts to front-hypervolume stalls: effort concentrates while
  the Pareto front is still moving and decays to a stop once it plateaus.

All strategies are deterministic under a fixed seed: randomness flows
exclusively through the ``numpy`` generator handed to ``search``, and every
collection they iterate is insertion-ordered.

:func:`hypervolume` measures front quality — the area of the
(cycles, area) region a front dominates relative to a reference point — so
``benchmarks/bench_dse.py`` can assert that annealing reaches ≥95% of the
exhaustive front's hypervolume from ≤40% of the evaluations.
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
    "AnnealingStrategy",
    "SearchDriver",
    "SearchOutcome",
    "run_search",
    "get_strategy",
    "available_strategies",
    "area_key",
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
# Front quality, shared by annealing, the benchmark and the tests
# ---------------------------------------------------------------------------


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
    make rounds incomparable).  The temperature cools every round.  A round
    that grows the volume by no more than ``PLATEAU_EPSILON`` (relative) is
    a stall: the next round's budget halves (never below ``MIN_BATCH``), and
    ``PLATEAU_PATIENCE`` consecutive stalls stop the search.  Any improving
    round restores the full budget, so evaluation effort concentrates while
    the front is moving and decays to zero once it isn't.

    Deterministic under a fixed seed: every random draw flows through the
    driver's generator, and all collections are insertion-ordered.
    """

    name = "annealing"

    #: Walkers per round; also the seed sample's size and the full batch.
    WALKERS = 12
    #: Rounds after the seed round, at most.
    ROUNDS = 64
    #: Temperature factor per round; the temperature starts at 1.0 and is
    #: the chance that a proposal takes a second gene step.
    COOLING = 0.85
    #: A round that grows the hypervolume by no more than this (relative)
    #: is a stall.
    PLATEAU_EPSILON = 0.002
    #: Consecutive stalls that stop the search.
    PLATEAU_PATIENCE = 3
    #: Floor of the halved batch budget.
    MIN_BATCH = 4

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
        count = min(self.WALKERS, len(points))

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
        temperature = 1.0
        budget = count
        stalls = 0

        for _ in range(self.ROUNDS):
            walkers = self._reseat_walkers(seen, count, rng)
            proposals: Dict[DesignPoint, None] = {}
            attempts = 0
            while len(proposals) < budget and attempts < budget * 8:
                walker = walkers[attempts % len(walkers)]
                attempts += 1
                candidate = axes.mutate(walker, rng)
                if rng.random() < temperature:  # hot: take a second gene step
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
                improved = (volume - best_volume) / best_volume > self.PLATEAU_EPSILON
            else:
                improved = volume > 0
            if improved:
                stalls = 0
                budget = count
            else:
                stalls += 1
                budget = max(self.MIN_BATCH, budget // 2)
                if stalls >= self.PLATEAU_PATIENCE:
                    return
            best_volume = max(best_volume, volume)
            temperature *= self.COOLING


_STRATEGIES: Dict[str, Callable[[], Strategy]] = {
    "exhaustive": ExhaustiveStrategy,
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
