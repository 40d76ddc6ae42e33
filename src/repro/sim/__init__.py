"""Reduced-fidelity cycle-level simulation substrate.

The original study used Flexus (cycle-accurate, full-system SPARC simulation).
This package provides the substitution described in ``docs/architecture.md``:
a trace-driven multi-core simulator with

* trace-driven cores with a bounded outstanding-miss window (emergent
  memory-level parallelism),
* a banked NUCA LLC of set-associative banks with LRU replacement and bank
  contention,
* a directory that tracks L1 sharers and generates invalidation / forwarding
  snoops,
* bandwidth-limited DRAM channels with a fixed access latency, and
* interconnect latency supplied by the analytic topology models.

:meth:`SimulatedSystem.run` warms the LLC, derives each core's trace columns
in one numpy pass, and runs the measured window as one flat loop that always
steps the core with the earliest local clock, off a heap of per-core clocks.
:class:`SetAssociativeCache`, :class:`Directory` and :class:`MemoryChannelSim`
hold the state that loop reads and updates.

It exists to exercise the full cache/coherence/NoC code path and to validate the
analytic model's trends (Figure 3.3), not to re-derive microarchitecture.
:class:`EventQueue` is a general time-ordered event queue; the simulator does
not run on it, but the service test oracle and the benchmark's traced
``sim.engine`` layer do.
"""

from repro.sim.engine import EventQueue
from repro.sim.cache import SetAssociativeCache, CacheStats
from repro.sim.directory import Directory, DirectoryStats
from repro.sim.memctrl import MemoryChannelSim
from repro.sim.stats import SimulationStats
from repro.sim.system import SimulatedSystem, simulate_system

__all__ = [
    "EventQueue",
    "SetAssociativeCache",
    "CacheStats",
    "Directory",
    "DirectoryStats",
    "MemoryChannelSim",
    "SimulationStats",
    "SimulatedSystem",
    "simulate_system",
]
