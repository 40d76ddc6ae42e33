"""Aggregated simulation statistics."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SimulationStats:
    """Results of one simulated measurement window.

    Attributes:
        cycles: length of the measurement window in cycles (the slowest core's
            completion time, mirroring the paper's system-level IPC metric).
        instructions: total application instructions committed by all cores.
        llc_accesses: accesses that reached the LLC.
        llc_misses: accesses that missed the LLC and went to memory.
        snoops: coherence snoop messages sent to cores.
        memory_reads: line fetches issued to DRAM.
        per_core_cycles: completion time of each core.
        per_core_instructions: instructions committed by each core.
        network_latency_cycles_total: cumulative one-way network latency incurred.
    """

    cycles: float = 0.0
    instructions: int = 0
    llc_accesses: int = 0
    llc_misses: int = 0
    snoops: int = 0
    memory_reads: int = 0
    per_core_cycles: "list[float]" = field(default_factory=list)
    per_core_instructions: "list[int]" = field(default_factory=list)
    network_latency_cycles_total: float = 0.0

    @property
    def aggregate_ipc(self) -> float:
        """Aggregate application instructions per cycle (the paper's performance)."""
        if self.cycles <= 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def per_core_ipc(self) -> float:
        """Average per-core IPC."""
        if not self.per_core_cycles:
            return 0.0
        ipcs = [
            instr / cyc if cyc > 0 else 0.0
            for instr, cyc in zip(self.per_core_instructions, self.per_core_cycles)
        ]
        return sum(ipcs) / len(ipcs)

    @property
    def snoop_fraction(self) -> float:
        """Fraction of LLC accesses that triggered a snoop to a core (Figure 4.3)."""
        if self.llc_accesses == 0:
            return 0.0
        return self.snoops / self.llc_accesses

    @property
    def llc_mpki(self) -> float:
        """LLC (off-chip) misses per kilo-instruction."""
        if self.instructions == 0:
            return 0.0
        return self.llc_misses / self.instructions * 1000.0

    @property
    def network_latency_avg(self) -> float:
        """Average one-way network latency per LLC access (zero when idle)."""
        if self.llc_accesses == 0:
            return 0.0
        return self.network_latency_cycles_total / self.llc_accesses
