"""Static analyses over the PPL IR.

* :mod:`repro.analysis.access` — linear forms of index expressions (used by
  tile-copy insertion and by the traffic models).
* :mod:`repro.analysis.estimate` — size evaluation, scalar-op counts, and the
  one walk over input accesses with the per-occurrence traffic records that
  hardware generation and the cycle model read.
* :mod:`repro.analysis.traffic` — Figure 5c's minimum main-memory reads and
  on-chip storage, derived from the same walk, and the DRAM transfer
  inventory of a schedule.
* :mod:`repro.analysis.area` — FPGA resource model (logic / FF / BRAM)
  reproducing the resource half of Figure 7.
"""

from repro.analysis.access import LinearForm, linear_form

__all__ = ["LinearForm", "linear_form"]
