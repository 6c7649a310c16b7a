"""Performance-model parameters.

These constants encode the behaviour of the memory system and the pipelined
units that the cycle model uses.  They are deliberately explicit (rather than
buried in the code) because they are the calibration knobs of the
reproduction; README.md ("Deviations from the paper") records their
defaults and which runs vary them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PerformanceModel"]


@dataclass(frozen=True)
class PerformanceModel:
    """Cycle-model parameters.

    Attributes:
        baseline_stream_efficiency: fraction of peak DRAM bandwidth the
            baseline's per-pattern command streams achieve (tile load/store
            units achieve full bandwidth because they issue long contiguous
            bursts).
        tiled_stream_efficiency: bandwidth efficiency of transformer-inserted
            tile loads and stores.
        baseline_outstanding: number of outstanding DRAM command streams the
            baseline overlaps; each command stream pays
            ``latency / baseline_outstanding`` cycles of non-overlapped
            latency.
        pipeline_fill: extra cycles to fill a pipelined execution unit.
        metapipeline_sync: controller synchronisation overhead per stage per
            iteration (double-buffer swap, done/enable handshake).
        dram_channels: independent DRAM channels the event simulator
            arbitrates transfers over.  The default of 1 reproduces the
            single shared channel (bit-for-bit with earlier releases);
            larger counts let logically concurrent metapipeline transfers
            proceed in parallel instead of serializing.  The analytical
            backend ignores this knob — it never models contention.
        dram_interleaving: how transfers are mapped to channels when
            ``dram_channels > 1``: ``"address"`` pins each source array to
            one channel by a stable hash of its name (address-range
            interleaving at array granularity), ``"round-robin"`` rotates
            successive requests across channels regardless of source.
    """

    baseline_stream_efficiency: float = 0.55
    tiled_stream_efficiency: float = 0.95
    baseline_outstanding: int = 4
    pipeline_fill: int = 24
    metapipeline_sync: int = 4
    dram_channels: int = 1
    dram_interleaving: str = "address"
