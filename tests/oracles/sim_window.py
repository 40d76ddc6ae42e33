"""Per-access measured window: the oracle for ``SimulatedSystem.run``.

Each core is a :class:`TraceDrivenCore` object that the scheduler steps one
trace event at a time, off a heap of ``(clock, core id)``.  Every event that
reaches the LLC walks :func:`llc_request`, which calls :func:`directory_access`,
:func:`cache_access`, :func:`channel_request` and ``SetAssociativeCache.fill``
in turn.  The package runs the same window as one flat loop over columns
derived in one numpy pass per trace; the tests hold the two to identical
statistics, bank contents, directory state and channel counters.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

from repro.cores.models import CoreModel
from repro.perfmodel.analytic import require_count
from repro.workloads.profile import WorkloadProfile
from repro.workloads.traces import SyntheticTraceGenerator, Trace

#: Signature of the system callback servicing an LLC request:
#: (core_id, address, is_write, is_instruction, issue_time) -> completion latency.
LlcRequestFn = Callable[[int, int, bool, bool, float], float]


# ------------------------------------------------------------------ LLC bank
def cache_access(cache, address: int, is_write: bool = False) -> bool:
    """Access ``cache``; returns True on a hit.

    Misses do *not* allocate -- call ``fill`` when the refill arrives so the
    timing model controls allocation order.
    """
    cache.stats.accesses += 1
    index, tag = cache._index_and_tag(address)
    cache_set = cache._sets[index]
    dirty = cache_set.pop(tag, None)
    if dirty is None:
        cache.stats.misses += 1
        return False
    cache_set[tag] = dirty or is_write
    cache.stats.hits += 1
    return True


# ----------------------------------------------------------------- directory
def directory_access(directory, core_id: int, address: int, is_write: bool) -> int:
    """Record an LLC access by ``core_id`` and return the number of snoops sent."""
    line = directory._line(address)
    directory.stats.lookups += 1
    sharers = directory._sharers.setdefault(line, set())
    owner = directory._owner.get(line)
    snoops = 0

    if is_write:
        # Invalidate every other sharer; the writer becomes the owner.
        others = sharers - {core_id}
        if others:
            snoops += len(others)
            directory.stats.invalidation_snoops += len(others)
        sharers.clear()
        sharers.add(core_id)
        directory._owner[line] = core_id
    else:
        # A read of a line owned (modified) by another core forwards from its L1.
        if owner is not None and owner != core_id:
            snoops += 1
            directory.stats.forward_snoops += 1
            directory._owner.pop(line, None)
        sharers.add(core_id)
    return snoops


def directory_evict(directory, address: int) -> None:
    """Drop directory state for a line evicted from the LLC (inclusive LLC)."""
    line = directory._line(address)
    directory._sharers.pop(line, None)
    directory._owner.pop(line, None)


# ------------------------------------------------------------------- channel
def channel_request(channel, now: float) -> float:
    """Issue a line fetch on ``channel`` at time ``now``; returns the completion time."""
    if now < 0:
        raise ValueError("now must be non-negative")
    start = max(now, channel._next_free)
    channel._next_free = start + channel.service_cycles
    channel.requests += 1
    channel.busy_cycles += channel.service_cycles
    return start + channel.service_cycles + channel.access_latency_cycles


# ----------------------------------------------------------------------- LLC
def llc_request(
    system, core_id: int, address: int, is_write: bool, is_instruction: bool, now: float
) -> float:
    """Service one L1 miss on ``system``; returns the total latency seen by the core."""
    system.stats.llc_accesses += 1
    system.stats.network_latency_cycles_total += system.network_latency

    bank_id = system._bank_for(address)
    bank = system.banks[bank_id]
    local_address = system._bank_local_address(address)

    # Bank contention: the access occupies the bank for a fixed service time.
    start = max(now + system.network_latency, system._bank_next_free[bank_id])
    system._bank_next_free[bank_id] = start + system.BANK_SERVICE_CYCLES
    queue_delay = start - (now + system.network_latency)

    snoops = directory_access(system.directory, core_id, address, is_write)
    system.stats.snoops += snoops
    snoop_delay = snoops * system.network_latency if snoops and is_write else 0.0

    hit = cache_access(bank, local_address, is_write)
    latency = system.network_latency + queue_delay + system.bank_latency + snoop_delay
    if not hit:
        system.stats.llc_misses += 1
        system.stats.memory_reads += 1
        channel = system.channels[system._channel_for(address)]
        completion = channel_request(channel, start + system.bank_latency)
        latency = (completion - now) + system.network_latency  # response traversal
        evicted = bank.fill(local_address, dirty=is_write)
        if evicted is not None:
            # The bank-local victim address, as the package passes it.
            directory_evict(system.directory, evicted)
    return latency


# ---------------------------------------------------------------------- core
@dataclass
class CoreStats:
    """Per-core execution counters."""

    instructions: int = 0
    cycles: float = 0.0
    llc_requests: int = 0
    fetch_stall_cycles: float = 0.0
    data_stall_cycles: float = 0.0


class TraceDrivenCore:
    """One simulated core executing a pre-generated reference trace.

    Between references the core retires instructions at the workload's base
    CPI.  Instruction fetches stall the core for the full LLC latency; data
    references are tracked in a bounded outstanding-miss window.
    """

    def __init__(
        self,
        core_id: int,
        core_model: CoreModel,
        workload: WorkloadProfile,
        trace: Trace,
        llc_request: LlcRequestFn,
    ):
        self.core_id = core_id
        self.core_model = core_model
        self.workload = workload
        self.trace = trace
        self.llc_request = llc_request
        self.base_cpi = workload.behavior(core_model.name).base_cpi
        self.max_outstanding = max(1, core_model.max_outstanding_misses)
        self.stats = CoreStats()
        #: Completion times of data requests currently in flight.
        self._outstanding: "list[float]" = []
        self._clock: float = 0.0
        self._next_event: int = 0

    def run(self) -> CoreStats:
        """Execute the whole trace (single-core convenience; see :meth:`step`)."""
        while self.step() is not None:
            pass
        return self.stats

    @property
    def done(self) -> bool:
        """Whether the core has consumed its whole trace."""
        return self._next_event >= len(self.trace) and not self._outstanding

    def step(self) -> "float | None":
        """Process the next trace event; returns the new clock, or None when done."""
        if self._next_event >= len(self.trace):
            # Drain outstanding data requests, then finish.
            if self._outstanding:
                drain_until = max(self._outstanding)
                if drain_until > self._clock:
                    self.stats.data_stall_cycles += drain_until - self._clock
                    self._clock = drain_until
                self._outstanding.clear()
            self.stats.cycles = self._clock
            return None
        index = self._next_event
        self._next_event = index + 1
        trace = self.trace
        gap = trace.gaps[index]
        address = trace.addresses[index]

        # Retire the instructions between the previous reference and this one.
        clock = self._clock + gap * self.base_cpi
        self.stats.instructions += gap

        self.stats.llc_requests += 1
        if trace.is_instruction[index]:
            # L1-I misses stall the front end until the line returns.
            latency = self.llc_request(self.core_id, address, False, True, clock)
            clock += latency
            self.stats.fetch_stall_cycles += latency
        else:
            clock = self._issue_data_request(address, trace.is_write[index], clock)

        self._clock = clock
        self.stats.cycles = clock
        return clock

    def _issue_data_request(self, address: int, is_write: bool, clock: float) -> float:
        """Issue a data reference, stalling only when the miss window is full."""
        # Retire completed requests.
        self._outstanding = [t for t in self._outstanding if t > clock]
        if len(self._outstanding) >= self.max_outstanding:
            # The window is full: stall until the oldest outstanding miss returns.
            earliest = min(self._outstanding)
            self.stats.data_stall_cycles += earliest - clock
            clock = earliest
            self._outstanding = [t for t in self._outstanding if t > clock]
        latency = self.llc_request(self.core_id, address, is_write, False, clock)
        self._outstanding.append(clock + latency)
        return clock

    @property
    def ipc(self) -> float:
        """Application IPC of this core over its execution window."""
        if self.stats.cycles <= 0:
            return 0.0
        return self.stats.instructions / self.stats.cycles


# -------------------------------------------------------------------- system
def run_window(system, traces: "list[Trace]") -> "list[TraceDrivenCore]":
    """Step one :class:`TraceDrivenCore` per trace on ``system`` to completion.

    Always advances the core with the earliest local clock (ties to the lower
    core id), so shared bank and channel state sees requests in global time
    order.  Returns the finished cores.
    """

    def request(core_id, address, is_write, is_instruction, now):
        return llc_request(system, core_id, address, is_write, is_instruction, now)

    cores = [
        TraceDrivenCore(c, system.core, system.workload, trace, request)
        for c, trace in enumerate(traces)
    ]
    heap: "list[tuple[float, int]]" = [(0.0, c) for c in range(len(cores))]
    heapq.heapify(heap)
    while heap:
        _, core_id = heapq.heappop(heap)
        new_clock = cores[core_id].step()
        if new_clock is not None:
            heapq.heappush(heap, (new_clock, core_id))
    return cores


def run_per_access(system, instructions_per_core: int = 20_000, warmup: bool = True):
    """What ``system.run(instructions_per_core, warmup)`` does, one access at a time."""
    require_count("instructions_per_core", instructions_per_core, 1)
    generator = SyntheticTraceGenerator(
        system.workload, cores=system.config.cores, seed=system.seed, core_type=system.core.name
    )
    if warmup:
        system.warm_caches(generator)
    traces = [
        generator.events_for_core(c, instructions_per_core) for c in range(system.config.cores)
    ]
    for core in run_window(system, traces):
        system.stats.per_core_cycles.append(core.stats.cycles)
        system.stats.per_core_instructions.append(core.stats.instructions)
        system.stats.instructions += core.stats.instructions
    stats = system.stats
    stats.cycles = max(stats.per_core_cycles) if stats.per_core_cycles else 0.0
    return stats
