"""System assembly: cores + NUCA LLC + directory + memory channels.

:class:`SimulatedSystem` wires together the simulation components for one pod (or
one whole-die coherence domain), runs the synthetic traces, and reports the same
aggregate statistics the paper extracts from Flexus: aggregate IPC, LLC miss
rates, snoop fractions, and memory traffic.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.cores.models import core_model
from repro.memory.dram import channel_for_standard
from repro.perfmodel.analytic import Pod, require_count
from repro.sim.cache import SetAssociativeCache
from repro.sim.directory import Directory
from repro.sim.memctrl import MemoryChannelSim
from repro.sim.stats import SimulationStats
from repro.workloads.profile import WorkloadProfile
from repro.workloads.traces import SyntheticTraceGenerator, Trace


class SimulatedSystem:
    """A simulated pod: cores sharing a banked LLC behind an interconnect.

    Args:
        workload: workload profile driving the synthetic traces.
        config: the simulated pod (cores, core type, LLC, interconnect, node).
        memory_channels: number of DRAM channels; defaults to one per eight cores.
        seed: RNG seed for trace generation.
    """

    #: LLC bank service time (cycles a bank is occupied per access).
    BANK_SERVICE_CYCLES = 2.0

    def __init__(
        self,
        workload: WorkloadProfile,
        config: Pod,
        memory_channels: "int | None" = None,
        seed: int = 1,
    ):
        if memory_channels is not None:
            require_count("memory_channels", memory_channels, 1)
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
        traces = [
            generator.events_for_core(c, instructions_per_core) for c in range(self.config.cores)
        ]
        for cycles, instructions in self._run_window(traces):
            self.stats.per_core_cycles.append(cycles)
            self.stats.per_core_instructions.append(instructions)
            self.stats.instructions += instructions
        self.stats.cycles = max(self.stats.per_core_cycles) if self.stats.per_core_cycles else 0.0
        return self.stats

    def _window_events(self, trace: Trace, base_cpi: float) -> "list[tuple]":
        """One trace's events as the window reads them, derived in one numpy pass.

        Event ``i`` is ``(gap * base_cpi, is_instruction, is_write, bank, set,
        tag, channel, directory line)``; an instruction fetch is never a write.
        """
        addresses = np.array(trace.addresses, dtype=np.int64)
        fetch = np.array(trace.is_instruction, dtype=bool)
        index, tag = self.banks[0]._index_and_tag(self._bank_local_address(addresses))
        return list(
            zip(
                (np.array(trace.gaps, dtype=np.int64) * base_cpi).tolist(),
                trace.is_instruction,
                (np.array(trace.is_write, dtype=bool) & ~fetch).tolist(),
                self._bank_for(addresses).tolist(),
                index.tolist(),
                tag.tolist(),
                self._channel_for(addresses).tolist(),
                self.directory._line(addresses).tolist(),
            )
        )

    def _run_window(self, traces: "list[Trace]") -> "list[tuple[float, int]]":
        """Run core ``c`` on ``traces[c]``; returns each core's ``(cycles, instructions)``.

        The cores share the LLC banks, the directory and the DRAM channels.
        The scheduler always advances the core with the earliest local clock
        (ties to the lower core id), so shared bank and channel state sees
        requests in (approximately) the order concurrent hardware would.  A
        core retires each event's instruction gap at the workload's base
        CPI, then sends the event to the LLC.  An instruction fetch stalls
        the core for the whole latency; a data reference stalls only while
        the core's outstanding-miss window is full, so memory-level
        parallelism emerges from the window.  Every access walks, in order:
        the bank (contention for ``BANK_SERVICE_CYCLES``), the directory
        (invalidations on a write, a forward on a read of a line another
        core modified), the bank's LRU set, and on a miss the DRAM channel,
        the fill and its eviction.  It is one loop with its state in locals
        and writes the counters back once.
        """
        base_cpi = self.workload.behavior(self.core.name).base_cpi
        max_outstanding = max(1, self.core.max_outstanding_misses)
        events = [self._window_events(trace, base_cpi) for trace in traces]

        network = self.network_latency
        bank_latency = self.bank_latency
        bank_service = self.BANK_SERVICE_CYCLES
        bank_free = self._bank_next_free
        bank_sets = [bank._sets for bank in self.banks]
        num_sets, ways = self.banks[0].num_sets, self.banks[0].associativity
        line_bytes = self._line_bytes
        sharers, owners = self.directory._sharers, self.directory._owner
        channel_free = [channel._next_free for channel in self.channels]
        channel_service = [channel.service_cycles for channel in self.channels]
        channel_latency = [channel.access_latency_cycles for channel in self.channels]
        channel_requests = [0] * len(self.channels)
        bank_hits = [0] * self.num_banks
        bank_misses = [0] * self.num_banks
        bank_evictions = [0] * self.num_banks
        bank_writebacks = [0] * self.num_banks
        snoops = invalidations = forwards = 0

        positions = [0] * len(traces)
        outstanding: "list[list[float]]" = [[] for _ in traces]
        cycles = [0.0] * len(traces)
        # A core leaves the heap when its trace is done, not one step later:
        # its drain touches nothing shared.
        heap = [(0.0, c) for c, core_events in enumerate(events) if core_events]
        while heap:
            clock, c = heapq.heappop(heap)
            # Step core c until another core's (clock, id) is the earliest.
            next_clock, next_core = heap[0] if heap else (math.inf, 0)
            core_events, i, out = events[c], positions[c], outstanding[c]
            while True:
                gap_cycles, fetch, write, b, s, tag, ch, line = core_events[i]
                i += 1
                now = clock + gap_cycles
                if not fetch:
                    # Retire the completed data requests; a full window stalls
                    # the core until its oldest miss returns.
                    out = [t for t in out if t > now]
                    if len(out) >= max_outstanding:
                        now = min(out)
                        out = [t for t in out if t > now]

                # Bank contention: max(arrival, bank free), ties to the arrival.
                arrival = now + network
                free = bank_free[b]
                start = free if free > arrival else arrival
                bank_free[b] = start + bank_service

                # Directory: a write invalidates every other sharer and takes
                # ownership; a read of a line another core owns forwards it.
                snoop_delay = 0.0
                held = sharers.get(line)
                if write:
                    others = len(held) - (c in held) if held else 0
                    if others:
                        snoops += others
                        invalidations += others
                        snoop_delay = others * network
                    sharers[line] = {c}
                    owners[line] = c
                else:
                    owner = owners.get(line)
                    if owner is not None and owner != c:
                        snoops += 1
                        forwards += 1
                        del owners[line]
                    if held is None:
                        sharers[line] = {c}
                    else:
                        held.add(c)

                # The bank's LRU set: a hit moves the tag to the MRU end.
                cache_set = bank_sets[b][s]
                dirty = cache_set.pop(tag, None)
                if dirty is not None:
                    cache_set[tag] = dirty or write
                    bank_hits[b] += 1
                    latency = network + (start - arrival) + bank_latency + snoop_delay
                else:
                    bank_misses[b] += 1
                    issue = start + bank_latency
                    if issue < 0:  # only a trace with negative gaps gets here
                        raise ValueError(f"DRAM request time must be >= 0, got {issue}")
                    free = channel_free[ch]
                    channel_start = free if free > issue else issue
                    channel_free[ch] = channel_start + channel_service[ch]
                    channel_requests[ch] += 1
                    completion = channel_start + channel_service[ch] + channel_latency[ch]
                    latency = (completion - now) + network  # response traversal
                    if len(cache_set) >= ways:
                        victim = next(iter(cache_set))
                        bank_evictions[b] += 1
                        if cache_set.pop(victim):
                            bank_writebacks[b] += 1
                        # The directory is keyed by global line address, but
                        # this drops the victim's bank-local address, so the
                        # victim's own entry stays (and an unrelated line's
                        # entry may go).  Kept as is: correcting it is a
                        # modelling change that moves the pinned digests.
                        evicted = (victim * num_sets + s) * line_bytes
                        sharers.pop(evicted, None)
                        owners.pop(evicted, None)
                    cache_set[tag] = write

                if fetch:
                    clock = now + latency
                else:
                    out.append(now + latency)
                    clock = now
                if i == len(core_events):
                    # Drain the outstanding data requests, then finish.
                    if out:
                        clock = max(clock, max(out))
                    cycles[c] = clock
                    break
                if clock > next_clock or (clock == next_clock and c > next_core):
                    positions[c], outstanding[c] = i, out
                    heapq.heappush(heap, (clock, c))
                    break

        accesses = sum(map(len, events))
        self.stats.llc_accesses += accesses
        self.stats.network_latency_cycles_total = _added(
            self.stats.network_latency_cycles_total, network, accesses
        )
        self.stats.snoops += snoops
        self.stats.llc_misses += sum(bank_misses)
        self.stats.memory_reads += sum(bank_misses)
        self.directory.stats.lookups += accesses
        self.directory.stats.invalidation_snoops += invalidations
        self.directory.stats.forward_snoops += forwards
        for bank, hits, misses, evictions, writebacks in zip(
            self.banks, bank_hits, bank_misses, bank_evictions, bank_writebacks
        ):
            bank.stats.accesses += hits + misses
            bank.stats.hits += hits
            bank.stats.misses += misses
            bank.stats.evictions += evictions
            bank.stats.writebacks += writebacks
        for channel, free, requests in zip(self.channels, channel_free, channel_requests):
            channel._next_free = free
            channel.requests += requests
            channel.busy_cycles = _added(channel.busy_cycles, channel.service_cycles, requests)
        return [(cycles[c], sum(trace.gaps)) for c, trace in enumerate(traces)]


def _added(total: float, step: float, times: int) -> float:
    """``total`` after adding ``step`` to it ``times`` times, one addition at a
    time, as a per-access counter does (not ``total + step * times``, which
    rounds once)."""
    for _ in range(times):
        total += step
    return total


def simulate_system(
    workload: WorkloadProfile,
    config: Pod,
    instructions_per_core: int = 20_000,
    seed: int = 1,
    memory_channels: "int | None" = None,
) -> SimulationStats:
    """Convenience wrapper: build a :class:`SimulatedSystem`, run it, return stats."""
    system = SimulatedSystem(workload, config, memory_channels=memory_channels, seed=seed)
    return system.run(instructions_per_core)
