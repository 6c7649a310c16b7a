"""Description of the target FPGA board (device resources + memory system).

The paper evaluates on a Maxeler Max4 MAIA board: an Altera Stratix V FPGA
next to large off-chip DRAM ("LMem") accessed through burst-oriented memory
command streams.  Three layers of the reproduction consume this description:

* :mod:`repro.analysis.area` divides a design's resource usage by the
  device's logic cells / registers / block-RAM bits / DSPs to report
  utilisation;
* :mod:`repro.hw.generation` uses the memory system's burst size to round
  tile transfers up to whole bursts and to size baseline command streams;
* :mod:`repro.schedule.costs` turns byte counts into cycles using the board's
  bytes-per-cycle bandwidth and DRAM latency.

The absolute numbers are calibrated to be plausible for the Max4 MAIA
(Stratix V GS D8, 150 MHz designs, ~38 GB/s LMem); the evaluation reports
relative quantities, so what matters is that costs scale correctly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "MemorySpec",
    "FPGADevice",
    "Board",
    "STRATIX_V_GSD8",
    "MAX4_MAIA",
    "DEFAULT_BOARD",
]

WORD_BYTES = 4


@dataclass(frozen=True)
class MemorySpec:
    """The off-chip memory system of a board.

    Attributes:
        burst_bytes: size of one DRAM burst; tile loads/stores round
            transfers up to whole bursts.
        latency_cycles: round-trip latency of a memory command stream in
            design clock cycles.
        bandwidth_bytes_per_sec: peak sequential DRAM bandwidth.
    """

    burst_bytes: int = 384
    latency_cycles: int = 128
    bandwidth_bytes_per_sec: float = 38.4e9


@dataclass(frozen=True)
class FPGADevice:
    """Resource capacities of one FPGA part.

    ``logic_cells`` is the unit the area model's logic costs are expressed
    in (ALMs for an Altera part), ``registers`` the flip-flop count,
    ``bram_bits`` the total on-chip block-RAM capacity and ``dsps`` the
    number of hard multiply-accumulate blocks.  ``clock_hz`` is the design
    clock the evaluation synthesises for.
    """

    name: str = "generic-fpga"
    logic_cells: int = 262_400
    registers: int = 1_049_600
    bram_bits: int = 52_428_800
    dsps: int = 1_963
    clock_hz: float = 150e6


@dataclass(frozen=True)
class Board:
    """A complete target: an FPGA device plus its off-chip memory system."""

    name: str = "generic-board"
    device: FPGADevice = FPGADevice()
    memory: MemorySpec = MemorySpec()

    @property
    def bytes_per_cycle(self) -> float:
        """Peak DRAM bytes transferred per design clock cycle."""
        return self.memory.bandwidth_bytes_per_sec / self.device.clock_hz

    @property
    def burst_words(self) -> int:
        """Words per DRAM burst (the unit of burst-level locality)."""
        return max(1, self.memory.burst_bytes // WORD_BYTES)

    def with_memory(self, **kwargs) -> "Board":
        """A copy of this board with modified memory parameters."""
        return replace(self, memory=replace(self.memory, **kwargs))

    def with_device(self, **kwargs) -> "Board":
        """A copy of this board with modified device capacities."""
        return replace(self, device=replace(self.device, **kwargs))


# The Stratix V GS D8 on the Max4 MAIA: ~262k ALMs, ~1M registers,
# 2567 M20K blocks (~52 Mbit), 1963 DSP blocks, 150 MHz designs.
STRATIX_V_GSD8 = FPGADevice(
    name="Stratix V GS D8",
    logic_cells=262_400,
    registers=1_049_600,
    bram_bits=2_567 * 20_480,
    dsps=1_963,
    clock_hz=150e6,
)

# Maxeler Max4 MAIA: Stratix V + 48 GB LMem DRAM, 384-byte bursts.
MAX4_MAIA = Board(
    name="Max4 MAIA",
    device=STRATIX_V_GSD8,
    memory=MemorySpec(
        burst_bytes=384,
        latency_cycles=128,
        bandwidth_bytes_per_sec=38.4e9,
    ),
)

DEFAULT_BOARD = MAX4_MAIA
