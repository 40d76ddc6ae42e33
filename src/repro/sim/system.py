"""System assembly: cores + NUCA LLC + directory + memory channels.

:class:`SimulatedSystem` wires together the simulation components for one pod (or
one whole-die coherence domain), runs the synthetic traces, and reports the same
aggregate statistics the paper extracts from Flexus: aggregate IPC, LLC miss
rates, snoop fractions, and memory traffic.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from repro.caches.nuca import NucaLLC
from repro.cores.models import core_model
from repro.memory.dram import channel_for_standard
from repro.perfmodel.analytic import SystemConfig, require_count
from repro.sim.cache import SetAssociativeCache
from repro.sim.core import TraceDrivenCore
from repro.sim.directory import Directory
from repro.sim.memctrl import MemoryChannelSim
from repro.sim.stats import SimulationStats
from repro.workloads.profile import WorkloadProfile
from repro.workloads.traces import SyntheticTraceGenerator


class SimulatedSystem:
    """A simulated pod: cores sharing a banked LLC behind an interconnect.

    Args:
        workload: workload profile driving the synthetic traces.
        config: system configuration (cores, core type, LLC, interconnect, node).
        memory_channels: number of DRAM channels; defaults to one per eight cores.
        seed: RNG seed for trace generation.
    """

    #: LLC bank service time (cycles a bank is occupied per access).
    BANK_SERVICE_CYCLES = 2.0

    def __init__(
        self,
        workload: WorkloadProfile,
        config: SystemConfig,
        memory_channels: "int | None" = None,
        seed: int = 1,
    ):
        if memory_channels is not None and memory_channels < 1:
            raise ValueError(f"memory_channels must be >= 1, got {memory_channels}")
        self.workload = workload
        self.config = config
        self.seed = seed
        self.node = config.node
        self.core = core_model(config.core_type)

        llc = config.llc()
        self.num_banks = llc.num_banks
        bank_bytes = int(llc.bank_capacity_mb * 1024 * 1024)
        self.banks = [
            SetAssociativeCache(bank_bytes, llc.associativity, llc.line_bytes, name=f"llc{b}")
            for b in range(self.num_banks)
        ]
        self._bank_next_free = [0.0] * self.num_banks
        self.bank_latency = llc.bank_access_latency_cycles
        self.network_latency = config.resolved_interconnect().latency_cycles(
            config.floorplan(), self.node
        )
        self.directory = Directory(line_bytes=llc.line_bytes)

        if memory_channels is None:
            memory_channels = max(1, config.cores // 8)
        dram = channel_for_standard(self.node.memory_standard)
        self.channels = [
            MemoryChannelSim(dram, self.node, llc.line_bytes) for _ in range(memory_channels)
        ]

        self.stats = SimulationStats()
        self._line_bytes = llc.line_bytes

    # ----------------------------------------------------------------- routing
    def _bank_for(self, address: int) -> int:
        return (address // self._line_bytes) % self.num_banks

    def _bank_local_address(self, address: int) -> int:
        """Address as seen by the selected bank (bank-interleaving bits stripped).

        Without stripping the interleaving bits, every line routed to bank ``b``
        would also index the same subset of the bank's sets, wasting most of the
        bank's capacity.
        """
        line = address // self._line_bytes
        return (line // self.num_banks) * self._line_bytes + (address % self._line_bytes)

    def _channel_for(self, address: int) -> int:
        # Interleave channels on the line bits above the bank-select bits; using
        # the same low bits as _bank_for would tie channel choice to bank choice
        # (e.g. with channels dividing banks, each bank's lines would all land
        # on one channel), serializing that bank's misses behind one channel.
        line = address // self._line_bytes
        return (line // self.num_banks) % len(self.channels)

    # ------------------------------------------------------------ LLC servicing
    def llc_request(
        self, core_id: int, address: int, is_write: bool, is_instruction: bool, now: float
    ) -> float:
        """Service one L1 miss; returns the total latency seen by the core."""
        self.stats.llc_accesses += 1
        self.stats.network_latency_cycles_total += self.network_latency

        bank_id = self._bank_for(address)
        bank = self.banks[bank_id]
        local_address = self._bank_local_address(address)

        # Bank contention: the access occupies the bank for a fixed service time.
        start = max(now + self.network_latency, self._bank_next_free[bank_id])
        self._bank_next_free[bank_id] = start + self.BANK_SERVICE_CYCLES
        queue_delay = start - (now + self.network_latency)

        snoops = self.directory.access(core_id, address, is_write)
        self.stats.snoops += snoops
        snoop_delay = snoops * self.network_latency if snoops and is_write else 0.0

        hit = bank.access(local_address, is_write)
        latency = self.network_latency + queue_delay + self.bank_latency + snoop_delay
        if not hit:
            self.stats.llc_misses += 1
            self.stats.memory_reads += 1
            channel = self.channels[self._channel_for(address)]
            completion = channel.request(start + self.bank_latency)
            latency = (completion - now) + self.network_latency  # response traversal
            evicted = bank.fill(local_address, dirty=is_write)
            if evicted is not None:
                self.directory.evict(evicted)
        return latency

    # ----------------------------------------------------------------- warmup
    def warm_caches(self, generator: SyntheticTraceGenerator) -> None:
        """Pre-fill the LLC with the warm working set (the paper's warmed checkpoints).

        The measurement methodology of Sections 3.3 and 4.3.4 launches simulations
        from checkpoints with warmed caches; without warmup a short measurement
        window would see compulsory misses for the entire instruction footprint and
        secondary working set.  Regions are installed in criticality order
        (instructions, shared OS data, hot shared lines, secondary working set)
        until 95% of the LLC's lines have been filled, so smaller LLCs naturally
        hold less of the capturable content.

        The result equals one clean :meth:`SetAssociativeCache.fill` per line
        in that order.  A region's lines in one bank are one contiguous range
        of the bank's local lines, so each bank takes one
        :meth:`SetAssociativeCache.fill_ranges` call with at most four
        ``(first line, count)`` ranges.  That call splits the bank's sets
        into at most nine runs of identical contents, counts their evictions
        and resident lines by run width, and keeps one template per run; a
        set is built from its template only when the measured window first
        reads it, so the sets the window never touches are never built.
        """
        total_lines = sum(bank.num_sets * bank.associativity for bank in self.banks)
        remaining = int(total_lines * 0.95)
        regions = []  # (first line, line count)
        for region_name in ("instructions", "shared_small", "shared_hot", "capturable"):
            if remaining <= 0:
                break
            region = generator.regions[region_name]
            count = min(remaining, max(1, region.size_bytes // self._line_bytes))
            regions.append((region.base // self._line_bytes, count))
            remaining -= count
        if not regions:
            return
        for bank_id, bank in enumerate(self.banks):
            # A region's lines in this bank are every num_banks-th line from
            # its first line ``l`` with ``l % num_banks == bank_id``; they are
            # consecutive local lines from ``l // num_banks``.
            ranges = []
            for first, count in regions:
                skip = (bank_id - first) % self.num_banks
                ranges.append(
                    ((first + skip) // self.num_banks, len(range(skip, count, self.num_banks)))
                )
            bank.fill_ranges(ranges)

    # -------------------------------------------------------------------- run
    def run(self, instructions_per_core: int = 20_000, warmup: bool = True) -> SimulationStats:
        """Generate traces, run every core, and aggregate the statistics."""
        require_count("instructions_per_core", instructions_per_core, 1)
        generator = SyntheticTraceGenerator(
            self.workload,
            cores=self.config.cores,
            seed=self.seed,
            core_type=self.core.name,
        )
        if warmup:
            self.warm_caches(generator)
        cores = [
            TraceDrivenCore(
                core_id=c,
                core_model=self.core,
                workload=self.workload,
                trace=generator.events_for_core(c, instructions_per_core),
                llc_request=self.llc_request,
            )
            for c in range(self.config.cores)
        ]
        # Interleave the cores in global time order: always advance the core with
        # the earliest local clock, so shared bank/channel contention state sees
        # requests in (approximately) the order concurrent hardware would.
        heap: "list[tuple[float, int]]" = [(0.0, c) for c in range(len(cores))]
        heapq.heapify(heap)
        while heap:
            _, core_id = heapq.heappop(heap)
            new_clock = cores[core_id].step()
            if new_clock is not None:
                heapq.heappush(heap, (new_clock, core_id))
        for core in cores:
            self.stats.per_core_cycles.append(core.stats.cycles)
            self.stats.per_core_instructions.append(core.stats.instructions)
            self.stats.instructions += core.stats.instructions
        self.stats.cycles = max(self.stats.per_core_cycles) if self.stats.per_core_cycles else 0.0
        return self.stats


def simulate_system(
    workload: WorkloadProfile,
    config: SystemConfig,
    instructions_per_core: int = 20_000,
    seed: int = 1,
    memory_channels: "int | None" = None,
) -> SimulationStats:
    """Convenience wrapper: build a :class:`SimulatedSystem`, run it, return stats."""
    system = SimulatedSystem(workload, config, memory_channels=memory_channels, seed=seed)
    return system.run(instructions_per_core)
