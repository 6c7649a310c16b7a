"""Event-driven cycle-level simulation over the Schedule IR.

Where the analytical backend composes closed-form per-stage cycle counts,
this backend *plays the schedule out*: every stage invocation becomes an
event with a begin and finish time, and three effects the closed forms can
only approximate are modelled explicitly:

* **stage overlap** — a metapipeline runs stage *i* of iteration *t*
  concurrently with stage *i+1* of iteration *t−1*; the event timeline
  resolves each stage's begin time from both its own previous iteration and
  its upstream producer instead of assuming slowest-stage steady state;
* **double-buffer stalls** — a producer stage may run at most one iteration
  ahead of its consumer (the two halves of the double buffer); when the
  producer would overrun, it stalls and the stalled cycles are accounted in
  ``stall_cycles``;
* **memory contention** — every transfer and stream shares the DRAM
  subsystem (:attr:`~repro.sim.model.PerformanceModel.dram_channels`
  channels, one by default); logically concurrent transfers mapped to the
  same channel serialize on it, and the waiting is accounted in
  ``contention_cycles``.  With several channels the interleaving policy
  (``"address"`` pins each source array to a channel, ``"round-robin"``
  rotates requests) decides who shares.

Per-invocation leaf durations reuse the analytical formulas (a transfer
still costs latency + bytes/bandwidth), so the two backends agree exactly
on unpipelined designs and diverge only through overlap, backpressure and
contention — which is precisely the discrepancy the calibration report
(:mod:`repro.schedule.compare`) measures.  A leaf's duration depends only
on the leaf, the board and the model, so a run computes it once per leaf
and replays it on every invocation.

Long loops are unrolled up to :data:`EVENT_UNROLL_LIMIT` iterations and
then extrapolated at the observed steady-state rate, keeping the event
count (and wall-clock) bounded for million-iteration baseline designs.
For metapipelines both the makespan tail and the scaled aggregate
stall / contention / compute / memory accounting are derived from the
same post-fill steady-state window — the fill-heavy warm-up iterations
extrapolate neither — and a single-iteration explicit window (pure fill)
falls back to the slowest stage's period rather than treating the fill as
steady state.  Per-node cycles stay explicit-window-only.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.schedule.costs import pipeline_cycles, stream_cycles, transfer_cycles
from repro.schedule.ir import (
    ComputeNode,
    MetapipelineSchedule,
    ParallelSchedule,
    Schedule,
    ScheduleNode,
    SequentialSchedule,
    StreamNode,
    TransferNode,
)
from repro.sim.metrics import SimulationResult
from repro.sim.model import PerformanceModel

__all__ = [
    "EventScheduleBackend",
    "EVENT_UNROLL_LIMIT",
    "INTERLEAVING_POLICIES",
    "StageProfile",
]

#: Iterations of one stage group the event simulator plays out explicitly
#: before switching to steady-state extrapolation.
EVENT_UNROLL_LIMIT = 256

#: Channel-interleaving policies the DRAM subsystem understands.
INTERLEAVING_POLICIES = ("address", "round-robin")


class _MemoryChannel:
    """One DRAM channel: transfers serialize, waiting is contention."""

    def __init__(self) -> None:
        self.free_at = 0.0
        self.busy_cycles = 0.0
        self.contention_cycles = 0.0

    def transfer(self, ready: float, duration: float) -> float:
        begin = max(ready, self.free_at)
        self.contention_cycles += begin - ready
        self.free_at = begin + duration
        self.busy_cycles += duration
        return self.free_at


class _MemorySubsystem:
    """The DRAM subsystem: one or more channels behind an interleaver.

    ``dram_channels == 1`` degenerates to the single shared channel (every
    policy maps every request to channel 0), which is what keeps the event
    backend bit-for-bit with earlier releases at the default model.  The
    ``"address"`` policy pins each source array to a channel by a stable
    hash of its name — deterministic across processes, unlike ``hash()`` —
    and ``"round-robin"`` rotates successive requests across channels.
    """

    def __init__(self, channels: int = 1, interleaving: str = "address") -> None:
        if channels < 1:
            raise SimulationError(
                f"dram_channels must be >= 1, got {channels}"
            )
        if interleaving not in INTERLEAVING_POLICIES:
            raise SimulationError(
                f"unknown dram_interleaving {interleaving!r}; "
                f"choose from {list(INTERLEAVING_POLICIES)}"
            )
        self.channels: List[_MemoryChannel] = [
            _MemoryChannel() for _ in range(channels)
        ]
        self.interleaving = interleaving
        self._cursor = 0
        # The one channel every request maps to, when there is only one.
        self._only = self.channels[0] if channels == 1 else None
        # Address interleaving's key -> channel map, hashed once per key.
        self._by_key: Dict[str, _MemoryChannel] = {}
        # Contention accrued by steady-state extrapolation: scaled tail
        # cycles belong to the subsystem, not to any one channel's timeline.
        self.extrapolated_contention = 0.0

    def _select(self, key: str) -> _MemoryChannel:
        if len(self.channels) == 1:
            return self.channels[0]
        if self.interleaving == "round-robin":
            channel = self.channels[self._cursor % len(self.channels)]
            self._cursor += 1
            return channel
        channel = self._by_key.get(key)
        if channel is None:
            digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
            channel = self.channels[int.from_bytes(digest, "big") % len(self.channels)]
            self._by_key[key] = channel
        return channel

    def transfer(self, key: str, ready: float, duration: float) -> float:
        if self._only is not None:
            return self._only.transfer(ready, duration)
        return self._select(key).transfer(ready, duration)

    @property
    def contention_cycles(self) -> float:
        return (
            sum(channel.contention_cycles for channel in self.channels)
            + self.extrapolated_contention
        )

    @property
    def busy_cycles(self) -> float:
        return sum(channel.busy_cycles for channel in self.channels)


@dataclass
class StageProfile:
    """Measured per-stage behaviour of one metapipeline group.

    Collected by :meth:`EventScheduleBackend.profile_schedule` over the
    explicitly simulated iterations: ``durations`` is each stage's mean
    begin-to-done time (inner DRAM waits included — a contention-bound
    stage *measures* slow, which is exactly what the rebalancer should
    see), ``stalls`` the booked double-buffer stall cycles per stage and
    ``waits`` the raw backpressure waits (including cascade shadows the
    stall accounting deduplicates).
    """

    stage_names: List[str] = field(default_factory=list)
    durations: List[float] = field(default_factory=list)
    stalls: List[float] = field(default_factory=list)
    waits: List[float] = field(default_factory=list)
    iterations: int = 0


class EventScheduleBackend:
    """Plays a schedule out on an event timeline with shared-resource stalls."""

    name = "event"

    def __init__(
        self,
        model: Optional[PerformanceModel] = None,
        unroll_limit: int = EVENT_UNROLL_LIMIT,
        profile: bool = False,
    ) -> None:
        self.model = model or PerformanceModel()
        self.unroll_limit = max(1, unroll_limit)
        self.profile = profile
        #: Per-metapipeline-group :class:`StageProfile`, keyed by ``id()``
        #: of the group node, filled by the last :meth:`run` when
        #: ``profile`` is on.
        self.stage_profiles: Dict[int, StageProfile] = {}

    # -- public API ----------------------------------------------------------
    def run(self, schedule: Schedule) -> SimulationResult:
        self._per_node: Dict[str, float] = {}
        # Each leaf's duration by node id: one closed form per leaf per run.
        self._durations: Dict[int, float] = {}
        self._compute_cycles = 0.0
        self._memory_cycles = 0.0
        self._buffer_stall_cycles = 0.0
        self._board = schedule.board
        self._channel = _MemorySubsystem(
            channels=self.model.dram_channels,
            interleaving=self.model.dram_interleaving,
        )
        self.stage_profiles = {}
        finish = self._run(schedule.root, 0.0)
        return SimulationResult(
            design_name=schedule.name,
            program_name=schedule.program_name,
            config_label=schedule.config_label,
            cycles=finish,
            clock_hz=schedule.board.device.clock_hz,
            main_memory_read_bytes=schedule.main_memory_read_bytes,
            main_memory_write_bytes=schedule.main_memory_write_bytes,
            per_module_cycles=dict(self._per_node),
            compute_cycles=self._compute_cycles,
            memory_cycles=self._memory_cycles,
            cycle_model=self.name,
            stall_cycles=self._buffer_stall_cycles,
            contention_cycles=self._channel.contention_cycles,
        )

    def profile_schedule(self, schedule: Schedule) -> Dict[int, StageProfile]:
        """Run the schedule and return per-metapipeline stage profiles.

        The profiles are keyed by ``id()`` of the (live) metapipeline group
        nodes of ``schedule``, so a caller holding the same tree — the
        schedule rewriter does — can look up the measured behaviour of each
        group it is about to restructure.
        """
        previous = self.profile
        self.profile = True
        try:
            self.run(schedule)
        finally:
            self.profile = previous
        return self.stage_profiles

    # -- event evaluation ----------------------------------------------------
    def _run(self, node: ScheduleNode, start: float) -> float:
        """Simulate one invocation of ``node`` beginning at ``start``.

        ``per_module_cycles`` books each node's *service* time: for
        transfer and stream leaves that is the closed-form duration alone —
        the wait for the shared DRAM channel is accounted once, in
        ``contention_cycles``, never folded into a node's busy time (the
        calibration report would otherwise double-read the same wait as
        both contention and node load).

        The three leaf kinds dispatch on their exact type first; the
        ``isinstance`` chain serves groups, the untimed leaf and subclasses.
        """
        kind = type(node)
        if kind is ComputeNode:
            return self._compute_leaf(node, start)
        if kind is TransferNode or kind is StreamNode:
            return self._memory_leaf(node, start)
        if isinstance(node, MetapipelineSchedule):
            finish = self._metapipeline(node, start)
        elif isinstance(node, ParallelSchedule):
            finish = self._unrolled(
                node, start, lambda t: self._parallel_round(node, t)
            )
        elif isinstance(node, SequentialSchedule):
            finish = self._unrolled(
                node, start, lambda t: self._sequential_round(node, t)
            )
        elif isinstance(node, (TransferNode, StreamNode)):
            return self._memory_leaf(node, start)
        elif isinstance(node, ComputeNode):
            return self._compute_leaf(node, start)
        elif kind is ScheduleNode:
            finish = start  # untimed memory leaf
        else:  # pragma: no cover - exhaustive over the Schedule IR
            raise SimulationError(f"no event rule for schedule node {node.kind}")
        self._per_node[node.name] = self._per_node.get(node.name, 0.0) + (finish - start)
        return finish

    def _compute_leaf(self, node: ComputeNode, start: float) -> float:
        """A compute unit: busy for its pipeline's duration, no shared resource."""
        duration = self._durations.get(id(node))
        if duration is None:
            duration = self._durations[id(node)] = self._pipeline_duration(node)
        self._compute_cycles += duration
        finish = start + duration
        per_node = self._per_node
        per_node[node.name] = per_node.get(node.name, 0.0) + (finish - start)
        return finish

    def _memory_leaf(self, node: ScheduleNode, start: float) -> float:
        """A transfer or stream: its service time on its DRAM channel."""
        duration = self._durations.get(id(node))
        if duration is None:
            if isinstance(node, TransferNode):
                duration = self._transfer_duration(node.bytes_per_invocation)
            else:
                duration = self._stream_duration(node)
            self._durations[id(node)] = duration
        self._memory_cycles += duration
        finish = self._channel.transfer(node.source or node.name, start, duration)
        per_node = self._per_node
        per_node[node.name] = per_node.get(node.name, 0.0) + duration
        return finish

    def _sequential_round(self, group: SequentialSchedule, start: float) -> float:
        t = start
        for stage in group.stages:
            t = self._run(stage, t)
        return t

    def _parallel_round(self, group: ParallelSchedule, start: float) -> float:
        finish = start
        for stage in group.stages:
            finish = max(finish, self._run(stage, start))
        return finish

    def _counters(self):
        return (
            self._compute_cycles,
            self._memory_cycles,
            self._buffer_stall_cycles,
            self._channel.contention_cycles,
        )

    def _extrapolate_counters(self, snapshot, scale: float) -> None:
        """Scale the aggregate accounting with a loop's extrapolated tail.

        The makespan extrapolation embeds the steady state's stalls and
        contention; without this the stall/contention/compute/memory
        columns would only cover the explicitly simulated iterations and
        misattribute the event-vs-analytical gap on long loops.  (Per-node
        ``per_module_cycles`` stay explicit-window-only.)
        """
        compute, memory, stalls, contention = snapshot
        self._compute_cycles += (self._compute_cycles - compute) * scale
        self._memory_cycles += (self._memory_cycles - memory) * scale
        self._buffer_stall_cycles += (self._buffer_stall_cycles - stalls) * scale
        self._channel.extrapolated_contention += (
            self._channel.contention_cycles - contention
        ) * scale

    def _unrolled(self, group, start: float, round_fn) -> float:
        """Run ``round_fn`` per iteration, extrapolating past the unroll cap.

        The extrapolation window excludes the first iteration whenever more
        than one ran explicitly: iteration 0 may hit cold DRAM channels
        (no earlier transfer to wait behind), so including it would skew
        ``per_iteration`` optimistic for every transfer-bearing group —
        the same warm-up exclusion the metapipeline recurrence applies.
        """
        iterations = group.iterations
        explicit = min(iterations, self.unroll_limit)
        snapshot = self._counters()
        warm_snapshot = snapshot
        warm_start = start
        t = start
        for index in range(explicit):
            if index == 1:
                warm_snapshot = self._counters()
                warm_start = t
            t = round_fn(t)
        remaining = iterations - explicit
        if remaining > 0 and explicit > 1:
            window = explicit - 1
            per_iteration = (t - warm_start) / window
            t += per_iteration * remaining
            self._extrapolate_counters(warm_snapshot, remaining / window)
        elif remaining > 0 and explicit > 0:
            per_iteration = (t - start) / explicit
            t += per_iteration * remaining
            self._extrapolate_counters(snapshot, remaining / explicit)
        return t

    def _metapipeline(self, group: MetapipelineSchedule, start: float) -> float:
        stages = group.stages
        n = len(stages)
        if n == 0 or group.iterations <= 0:
            return start
        sync = self.model.metapipeline_sync
        # stage_free[i]: when stage i's unit finished its previous iteration;
        # prev_begin[i]: when stage i *began* its previous iteration (the
        # consumer-side signal that frees one half of the double buffer);
        # prev_wait[i]: how long stage i waited on that signal last
        # iteration — the cascade-deduplication reference (see below).
        stage_free = [start] * n
        prev_begin = [start] * n
        prev_wait = [0.0] * n
        explicit = min(group.iterations, self.unroll_limit)
        # The pipeline fills over roughly the first n iterations (and the
        # backpressure pattern settles with it); the extrapolation window
        # covers only the iterations after that warm-up, so the makespan
        # tail and the scaled counters both describe the *same* steady
        # state — fill-heavy early iterations extrapolate neither.
        warmup = min(explicit - 1, n)
        window_snapshot = self._counters()
        window_finish = start
        stage_durations = [0.0] * n
        duration_sums = [0.0] * n
        stall_sums = [0.0] * n
        wait_sums = [0.0] * n
        finish = start
        for iteration in range(explicit):
            if iteration == warmup:
                window_snapshot = self._counters()
                window_finish = finish
            upstream_done = start
            begins = [start] * n
            waits = [0.0] * n
            for i, stage in enumerate(stages):
                begin = max(stage_free[i], upstream_done)
                if iteration > 0 and i + 1 < n:
                    # Double-buffer backpressure: the producer may run at
                    # most one iteration ahead of its consumer.
                    released = prev_begin[i + 1]
                    if begin < released:
                        wait = released - begin
                        waits[i] = wait
                        # The consumer's begin was itself pushed back by
                        # whatever *it* waited for last iteration; that part
                        # of this wait is the same delay echoing one stage
                        # upstream, not a new stall.  Booking only the
                        # increment keeps the aggregate a critical-path
                        # quantity: per iteration the booked stalls
                        # telescope to at most the steady-state period, so
                        # a run's stall total can never exceed
                        # (n_stages − 1) × makespan.
                        booked = max(0.0, wait - prev_wait[i + 1])
                        self._buffer_stall_cycles += booked
                        stall_sums[i] += booked
                        begin = released
                begins[i] = begin
                done = self._run(stage, begin)
                stage_durations[i] = done - begin
                duration_sums[i] += done - begin
                wait_sums[i] += waits[i]
                upstream_done = done + sync
                stage_free[i] = upstream_done
            prev_begin = begins
            prev_wait = waits
            finish = max(stage_free)
        if self.profile:
            self.stage_profiles[id(group)] = StageProfile(
                stage_names=[stage.name for stage in stages],
                durations=[total / explicit for total in duration_sums],
                stalls=stall_sums,
                waits=wait_sums,
                iterations=explicit,
            )
        remaining = group.iterations - explicit
        if remaining > 0:
            window = explicit - warmup
            if explicit > 1:
                # Steady state: every further iteration advances the
                # makespan at the rate observed over the post-warm-up
                # window (the slowest stage's period including sync, stalls
                # and contention); the aggregate counters scale at that
                # same window's accrual rate.
                per_iteration = (finish - window_finish) / window
                self._extrapolate_counters(window_snapshot, remaining / window)
            else:
                # One explicit iteration is pure pipeline fill (every stage
                # runs back to back, no overlap, no backpressure): its
                # makespan is the sum of the stages where the steady-state
                # period is the slowest stage plus the sync handshake.
                per_iteration = max(stage_durations) + sync
                self._extrapolate_counters(window_snapshot, float(remaining))
            finish += per_iteration * remaining
        return finish

    # -- leaf durations (shared closed forms, repro.schedule.costs) ----------
    def _transfer_duration(self, num_bytes: float) -> float:
        return transfer_cycles(self._board, self.model, num_bytes)

    def _stream_duration(self, stream: StreamNode) -> float:
        return stream_cycles(self._board, self.model, stream)

    def _pipeline_duration(self, unit: ComputeNode) -> float:
        return pipeline_cycles(unit)
