"""Cycle simulation standing in for the FPGA board — over the Schedule IR.

:func:`simulate` lowers every hardware design to an explicit metapipeline
:class:`~repro.schedule.ir.Schedule` and times it with one of two backends:

* ``cycle_model="analytical"`` — closed-form per-stage cycle counts
  composed over the schedule tree (the seed's performance model,
  bit-for-bit); microseconds per design, the DSE inner loop;
* ``cycle_model="event"`` — an event-driven timeline modelling stage
  overlap, double-buffer backpressure stalls and DRAM-channel contention;
  milliseconds per design, used to calibrate the analytical knobs (see
  :mod:`repro.schedule.compare` and ``benchmarks/bench_sim.py``).

Timing reads sizes and shapes only: a design compiled against a
shape-only workload (:meth:`~repro.apps.base.Benchmark.workload`) is
simulated without generating input data.  Functional outputs come from
the PPL interpreter (:mod:`repro.ppl.interp`), which the tests and
examples run separately on real inputs.
"""

from repro.sim.model import PerformanceModel
from repro.sim.metrics import SimulationResult, speedup
from repro.sim.engine import simulate

__all__ = ["PerformanceModel", "SimulationResult", "simulate", "speedup"]
