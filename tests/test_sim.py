"""Tests for the cycle-level simulation substrate."""

import pytest
from hypothesis import given, settings, strategies as st
from oracles.sim_warmup import warm_caches_per_line
from oracles.sim_window import (
    TraceDrivenCore,
    cache_access,
    channel_request,
    directory_access,
    directory_evict,
    run_per_access,
    run_window,
)

from repro.cores.models import OOO
from repro.perfmodel.analytic import Pod, estimate
from repro.sim.cache import SetAssociativeCache
from repro.sim.directory import Directory
from repro.sim.engine import EventQueue
from repro.sim.memctrl import MemoryChannelSim
from repro.sim.system import SimulatedSystem, simulate_system
from repro.technology.node import NODE_40NM
from repro.workloads import get_workload
from repro.workloads.suite import default_suite
from repro.workloads.traces import SyntheticTraceGenerator, Trace, TraceEvent


def _lru_state(cache):
    """Every set's ``(tag, dirty)`` pairs, LRU first, in set-index order."""
    return [list(cache._sets[index].items()) for index in range(cache.num_sets)]


def _bank_states(system):
    return [(_lru_state(bank), bank.stats) for bank in system.banks]


def _holds(cache, address):
    """Whether the line holding ``address`` is resident; builds its set, no stats."""
    index, tag = cache._index_and_tag(address)
    return tag in cache._sets[index]


def _sharers(directory, address):
    """The cores the directory records as sharing ``address``."""
    return directory._sharers.get(directory._line(address), set())


class TestSimulationStats:
    def test_network_latency_avg(self):
        from repro.sim.stats import SimulationStats

        stats = SimulationStats(llc_accesses=4, network_latency_cycles_total=36.0)
        assert stats.network_latency_avg == 9.0

    def test_network_latency_avg_guards_zero_accesses(self):
        from repro.sim.stats import SimulationStats

        assert SimulationStats().network_latency_avg == 0.0


class TestEventQueue:
    def test_events_run_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(5, lambda: order.append("b"))
        queue.schedule(1, lambda: order.append("a"))
        queue.schedule(9, lambda: order.append("c"))
        queue.run()
        assert order == ["a", "b", "c"]
        assert queue.now == 9
        assert queue.processed == 3

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(2, lambda: order.append(1))
        queue.schedule(2, lambda: order.append(2))
        queue.run()
        assert order == [1, 2]

    def test_run_until(self):
        queue = EventQueue()
        hits = []
        for t in (1, 2, 10):
            queue.schedule(t, lambda t=t: hits.append(t))
        queue.run(until=5)
        assert hits == [1, 2]
        assert queue.pending == 1

    def test_invalid_schedule(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.schedule(-1, lambda: None)
        queue.schedule(5, lambda: None)
        queue.run()
        with pytest.raises(ValueError):
            queue.schedule_at(1, lambda: None)

    def test_run_until_advances_on_empty_heap(self):
        """Regression: ``run(until=...)`` must advance ``now`` even when no
        event is pending past (or before) the horizon."""
        queue = EventQueue()
        assert queue.run(until=10) == 10
        assert queue.now == 10
        # A later schedule_at inside the simulated window is not "in the past".
        queue.schedule_at(12, lambda: None)
        queue.run()
        assert queue.now == 12

    def test_run_until_advances_when_events_drain_early(self):
        queue = EventQueue()
        queue.schedule(3, lambda: None)
        assert queue.run(until=10) == 10
        assert queue.processed == 1

    def test_run_until_does_not_rewind(self):
        queue = EventQueue()
        queue.schedule(8, lambda: None)
        queue.run()
        assert queue.run(until=5) == 8

    def test_max_events_budget_does_not_jump_to_until(self):
        queue = EventQueue()
        for t in (1, 2, 3):
            queue.schedule(t, lambda: None)
        assert queue.run(until=10, max_events=2) == 2
        assert queue.pending == 1


@st.composite
def _disjoint_ranges(draw, max_first=20, max_count=40):
    """Up to four disjoint ``(first line, count)`` ranges, some empty, in any order."""
    pieces = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=max_first),
                st.integers(min_value=0, max_value=max_count),
            ),
            max_size=4,
        )
    )
    ranges, first = [], 0
    for gap, count in pieces:
        first += gap
        ranges.append((first, count))
        first += count
    return draw(st.permutations(ranges))


def _fill_loop(cache, ranges):
    """One ``fill`` per line of each ``(first, count)`` range, in order."""
    for first, count in ranges:
        for line in range(first, first + count):
            cache.fill(line * cache.line_bytes)


class TestSetAssociativeCache:
    def test_hit_after_fill(self):
        cache = SetAssociativeCache(capacity_bytes=4096, associativity=2)
        assert not cache_access(cache, 0x100)
        cache.fill(0x100)
        assert cache_access(cache, 0x100)
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_lru_eviction(self):
        cache = SetAssociativeCache(capacity_bytes=2 * 64, associativity=2)
        # Single set with two ways: filling a third distinct line evicts the LRU.
        cache.fill(0)
        cache.fill(64 * cache.num_sets)  # same set, different tag
        cache_access(cache, 0)  # touch line 0 -> the other line becomes LRU
        evicted = cache.fill(2 * 64 * cache.num_sets)
        assert evicted == 64 * cache.num_sets
        assert cache_access(cache, 0)

    def test_writeback_counted_for_dirty_victims(self):
        cache = SetAssociativeCache(capacity_bytes=2 * 64, associativity=2)
        cache.fill(0, dirty=True)
        cache.fill(64 * cache.num_sets)
        cache.fill(2 * 64 * cache.num_sets)
        assert cache.stats.writebacks == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(capacity_bytes=0)
        with pytest.raises(ValueError):
            SetAssociativeCache(capacity_bytes=1024, associativity=0)
        with pytest.raises(ValueError):
            SetAssociativeCache(capacity_bytes=1024, line_bytes=48)

    def test_rejects_capacity_below_one_set(self):
        # 16 ways x 64 B need 1,024 bytes; 192 bytes used to hold a whole set.
        with pytest.raises(ValueError, match="capacity_bytes") as caught:
            SetAssociativeCache(capacity_bytes=192, associativity=16)
        assert "\n" not in str(caught.value)
        assert SetAssociativeCache(capacity_bytes=1024, associativity=16).num_sets == 1

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=200))
    def test_resident_lines_never_exceed_capacity(self, addresses):
        cache = SetAssociativeCache(capacity_bytes=8192, associativity=4)
        capacity_lines = 8192 // 64
        for address in addresses:
            if not cache_access(cache, address):
                cache.fill(address)
            assert cache.resident_lines <= capacity_lines

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=100))
    def test_second_access_always_hits_small_footprint(self, addresses):
        # With a footprint smaller than the cache, re-accessing any line hits.
        cache = SetAssociativeCache(capacity_bytes=1 << 20, associativity=16)
        for address in addresses:
            if not cache_access(cache, address):
                cache.fill(address)
        for address in addresses:
            assert cache_access(cache, address)

    def test_access_write_marks_line_dirty(self):
        cache = SetAssociativeCache(capacity_bytes=2 * 64, associativity=2)
        cache.fill(0)
        assert cache_access(cache, 0, is_write=True)
        assert cache_access(cache, 0)  # a later read keeps the line dirty
        cache.fill(64 * cache.num_sets)
        cache.fill(2 * 64 * cache.num_sets)
        assert cache.stats.writebacks == 1

    def test_fill_ranges_keeps_last_ways_and_counts_evictions(self):
        cache = SetAssociativeCache(capacity_bytes=2 * 64, associativity=2)
        cache.fill_ranges([(0, 4)])
        assert _lru_state(cache) == [[(2, False), (3, False)]]
        assert cache.stats.evictions == 2 and cache.stats.writebacks == 0
        assert cache.stats.accesses == 0

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        prior=st.lists(
            st.tuples(
                st.sampled_from(("fill", "fill_dirty", "read", "write")),
                st.integers(min_value=0, max_value=63),
            ),
            max_size=60,
        ),
        ranges=_disjoint_ranges(),
    )
    def test_fill_ranges_equals_fill_loop(self, prior, ranges):
        # From any prior state (fills, hits, dirty writes), a range install
        # leaves the same LRU order, dirty bits and statistics as one fill
        # per line, range by range.
        bulk, loop = (
            SetAssociativeCache(capacity_bytes=8 * 2 * 64, associativity=2) for _ in range(2)
        )
        for cache in (bulk, loop):
            for op, line in prior:
                address = line * 64
                if op == "fill":
                    cache.fill(address)
                elif op == "fill_dirty":
                    cache.fill(address, dirty=True)
                else:
                    cache_access(cache, address, is_write=op == "write")
        bulk.fill_ranges(ranges)
        _fill_loop(loop, ranges)
        assert _lru_state(bulk) == _lru_state(loop)
        assert bulk.stats == loop.stats

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        num_sets=st.sampled_from((1, 3, 8, 64)),
        ranges=_disjoint_ranges(max_first=600, max_count=300),
    )
    def test_at_most_two_templates_per_range_plus_one(self, num_sets, ranges):
        # Each non-empty range splits the sets at most twice (its phase and
        # phase + remainder), so R ranges leave at most 2R + 1 runs.  Ranges
        # here may wrap the sets several times.
        bulk, loop = (
            SetAssociativeCache(capacity_bytes=num_sets * 4 * 64, associativity=4)
            for _ in range(2)
        )
        bulk.fill_ranges(ranges)
        nonempty = sum(1 for _, count in ranges if count)
        assert len(bulk._sets.templates) <= 2 * nonempty + 1
        assert len(bulk._sets) == 0
        _fill_loop(loop, ranges)
        assert bulk.resident_lines == loop.resident_lines
        assert _lru_state(bulk) == _lru_state(loop)
        assert bulk.stats == loop.stats

    @pytest.mark.parametrize(
        "ranges, named",
        [
            ([(0, 10), (20, 5), (8, 4)], "(0, 10) and (8, 4)"),  # partial overlap
            ([(30, 2), (0, 40)], "(0, 40) and (30, 2)"),  # nested
            ([(5, 3), (5, 3)], "(5, 3) and (5, 3)"),  # the same range twice
            ([(0, 4), (9, -2)], "(9, -2)"),  # a negative count
        ],
    )
    def test_overlapping_ranges_rejected_before_any_change(self, ranges, named):
        rejected, untouched = (
            SetAssociativeCache(capacity_bytes=8 * 2 * 64, associativity=2) for _ in range(2)
        )
        for cache in (rejected, untouched):
            cache.fill(3 * 64, dirty=True)
            cache_access(cache, 3 * 64)
            cache.fill_ranges([(16, 20)])  # leaves sets pending
        with pytest.raises(ValueError, match="fill_ranges") as caught:
            rejected.fill_ranges(ranges)
        assert named in str(caught.value) and "\n" not in str(caught.value)
        assert len(rejected._sets) == len(untouched._sets)
        assert rejected._sets.pending_lines == untouched._sets.pending_lines
        assert rejected.stats == untouched.stats
        assert _lru_state(rejected) == _lru_state(untouched)


def _apply(cache, ops):
    """Run ``(op, line)`` pairs on ``cache``; returns what each call returned."""
    results = []
    for op, line in ops:
        address = line * 64 + 3
        if op == "read":
            results.append(cache_access(cache, address))
        elif op == "write":
            results.append(cache_access(cache, address, is_write=True))
        elif op == "fill":
            results.append(cache.fill(address))
        elif op == "fill_dirty":
            results.append(cache.fill(address, dirty=True))
        else:
            results.append(_holds(cache, address))
    return results


_CACHE_OPS = st.lists(
    st.tuples(
        st.sampled_from(("read", "write", "fill", "fill_dirty", "holds")),
        st.integers(min_value=0, max_value=63),
    ),
    max_size=60,
)


class TestDeferredInstall:
    """``fill_ranges`` defers building a set until something reads it."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        prior=_CACHE_OPS,
        ranges=_disjoint_ranges(),
        after=_CACHE_OPS,
    )
    def test_operations_after_fill_ranges_equal_fill_loop(self, prior, ranges, after):
        # Sets left pending by the range install are built from their run's
        # template by whichever of access, fill or a test read reaches them
        # first; every call must return, and leave, what it would after a
        # fill loop.
        bulk, loop = (
            SetAssociativeCache(capacity_bytes=8 * 2 * 64, associativity=2) for _ in range(2)
        )
        assert _apply(bulk, prior) == _apply(loop, prior)
        bulk.fill_ranges(ranges)
        _fill_loop(loop, ranges)
        assert bulk.resident_lines == loop.resident_lines
        assert bulk.stats == loop.stats
        assert _apply(bulk, after) == _apply(loop, after)
        assert bulk.resident_lines == loop.resident_lines
        assert _lru_state(bulk) == _lru_state(loop)
        assert bulk.stats == loop.stats

    @pytest.mark.parametrize("workload", default_suite(), ids=lambda w: w.name)
    def test_counts_match_oracle_before_any_set_is_built(self, workload):
        config = Pod(cores=8, llc_capacity_mb=8)
        bulk, oracle = (SimulatedSystem(workload, config, seed=7) for _ in range(2))
        generator = SyntheticTraceGenerator(workload, cores=8, seed=7, core_type=bulk.core.name)
        bulk.warm_caches(generator)
        warm_caches_per_line(oracle, generator)
        for bank, expected in zip(bulk.banks, oracle.banks):
            assert bank.resident_lines == expected.resident_lines
            assert bank.stats == expected.stats
            assert len(bank._sets) == 0

    def test_warm_caches_builds_no_set(self):
        # The catalog-default Figure 3.3 system: 2 cores, mesh, 4 MB LLC.
        workload = get_workload("Data Serving")
        system = SimulatedSystem(workload, Pod(cores=2, interconnect="mesh"), seed=7)
        generator = SyntheticTraceGenerator(workload, cores=2, seed=7, core_type=system.core.name)
        system.warm_caches(generator)
        for bank in system.banks:
            assert len(bank._sets) == 0
            assert bank._sets.pending_lines == bank.resident_lines > 0
        # Reading one warmed line builds its set and no other.
        first = generator.regions["instructions"].base
        bank = system.banks[system._bank_for(first)]
        resident = bank.resident_lines
        assert _holds(bank, system._bank_local_address(first))
        assert len(bank._sets) == 1 and bank.resident_lines == resident

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        first=_disjoint_ranges(),
        touched=_CACHE_OPS,
        second=_disjoint_ranges(),
    )
    def test_second_fill_ranges_onto_pending_sets_equals_fill_loop(self, first, touched, second):
        # The second install builds the first one's pending sets, replays
        # every occupied set (some dirty after the touches) through fill and
        # templates the rest; the two installs' ranges may overlap each other.
        bulk, loop = (
            SetAssociativeCache(capacity_bytes=8 * 2 * 64, associativity=2) for _ in range(2)
        )
        bulk.fill_ranges(first)
        _fill_loop(loop, first)
        assert _apply(bulk, touched) == _apply(loop, touched)
        bulk.fill_ranges(second)
        _fill_loop(loop, second)
        assert bulk.resident_lines == loop.resident_lines
        assert _lru_state(bulk) == _lru_state(loop)
        assert bulk.stats == loop.stats


class TestWarmCaches:
    """The bulk warm-up against the per-line oracle in ``tests/oracles``."""

    # (16, 8) is Figure 4.3's catalog point.
    @pytest.mark.parametrize("cores, llc_mb", [(1, 1), (2, 4), (8, 8), (16, 8), (32, 0.25)])
    @pytest.mark.parametrize("workload", default_suite(), ids=lambda w: w.name)
    def test_matches_per_line_oracle(self, workload, cores, llc_mb):
        config = Pod(cores=cores, llc_capacity_mb=llc_mb)
        bulk, oracle = (SimulatedSystem(workload, config, seed=7) for _ in range(2))
        generator = SyntheticTraceGenerator(workload, cores=cores, seed=7, core_type=bulk.core.name)
        bulk.warm_caches(generator)
        warm_caches_per_line(oracle, generator)
        assert _bank_states(bulk) == _bank_states(oracle)

    @pytest.mark.parametrize("cores, llc_mb", [(2, 4), (16, 8), (32, 0.25)])
    def test_at_most_two_templates_per_region_plus_one_per_bank(self, cores, llc_mb):
        # Each warmed region is one range per bank, so a bank warmed from R
        # regions holds at most 2R + 1 runs of identical sets.
        workload = get_workload("SAT Solver")
        system = SimulatedSystem(workload, Pod(cores=cores, llc_capacity_mb=llc_mb))
        generator = SyntheticTraceGenerator(workload, cores=cores, seed=1, core_type=system.core.name)
        system.warm_caches(generator)
        for bank in system.banks:
            assert 1 <= len(bank._sets.templates) <= 2 * 4 + 1

    def test_warm_up_that_evicts_matches_oracle(self):
        # Set conflicts between regions make this warm-up evict lines.
        workload = get_workload("SAT Solver")
        config = Pod(cores=8, llc_capacity_mb=8)
        bulk, oracle = (SimulatedSystem(workload, config, seed=7) for _ in range(2))
        generator = SyntheticTraceGenerator(workload, cores=8, seed=7, core_type=bulk.core.name)
        bulk.warm_caches(generator)
        warm_caches_per_line(oracle, generator)
        assert sum(bank.stats.evictions for bank in bulk.banks) == 1638
        assert _bank_states(bulk) == _bank_states(oracle)

    @pytest.mark.parametrize("cores, llc_mb", [(2, 4), (32, 0.25)])
    def test_second_run_warms_occupied_banks_like_oracle(self, monkeypatch, cores, llc_mb):
        # A second run() warms banks the first run left occupied (some lines
        # dirty), so every set replays through fill.
        workload = get_workload("Data Serving")
        config = Pod(cores=cores, llc_capacity_mb=llc_mb)
        bulk = SimulatedSystem(workload, config, seed=5)
        for _ in range(2):
            bulk.run(1500)
        monkeypatch.setattr(SimulatedSystem, "warm_caches", warm_caches_per_line)
        oracle = SimulatedSystem(workload, config, seed=5)
        for _ in range(2):
            oracle.run(1500)
        assert bulk.stats == oracle.stats
        assert _bank_states(bulk) == _bank_states(oracle)
        assert any(bank.stats.writebacks for bank in bulk.banks)


class TestDirectory:
    """The per-access directory updates of the window oracle."""

    def test_read_sharing_no_snoops(self):
        directory = Directory()
        assert directory_access(directory, 0, 0x100, is_write=False) == 0
        assert directory_access(directory, 1, 0x100, is_write=False) == 0
        assert _sharers(directory, 0x100) == {0, 1}

    def test_write_invalidates_sharers(self):
        directory = Directory()
        directory_access(directory, 0, 0x100, is_write=False)
        directory_access(directory, 1, 0x100, is_write=False)
        snoops = directory_access(directory, 2, 0x100, is_write=True)
        assert snoops == 2
        assert _sharers(directory, 0x100) == {2}

    def test_read_of_modified_line_forwards(self):
        directory = Directory()
        directory_access(directory, 0, 0x200, is_write=True)
        assert directory_access(directory, 1, 0x200, is_write=False) == 1
        assert directory.stats.forward_snoops == 1

    def test_own_data_no_snoop(self):
        directory = Directory()
        directory_access(directory, 0, 0x300, is_write=True)
        assert directory_access(directory, 0, 0x300, is_write=True) == 0
        assert directory_access(directory, 0, 0x300, is_write=False) == 0

    def test_evict_clears_state(self):
        directory = Directory()
        directory_access(directory, 0, 0x100, is_write=True)
        directory_evict(directory, 0x100)
        assert _sharers(directory, 0x100) == set()

    def test_snoop_fraction_statistic(self):
        directory = Directory()
        directory_access(directory, 0, 0, is_write=False)
        directory_access(directory, 1, 0, is_write=True)
        assert directory.stats.lookups == 2
        assert 0 < directory.stats.snoop_fraction <= 1.0


class TestMemoryChannel:
    def test_fixed_latency_when_idle(self):
        channel = MemoryChannelSim(node=NODE_40NM)
        completion = channel_request(channel, 0.0)
        assert completion == pytest.approx(channel.service_cycles + 90.0)

    def test_back_to_back_requests_queue(self):
        channel = MemoryChannelSim(node=NODE_40NM)
        first = channel_request(channel, 0.0)
        second = channel_request(channel, 0.0)
        assert second > first
        assert channel.requests == 2
        assert channel.utilization(100.0) > 0

    def test_invalid_time(self):
        with pytest.raises(ValueError):
            channel_request(MemoryChannelSim(node=NODE_40NM), -1.0)


class TestTraceDrivenCore:
    """The per-access core of the window oracle (``tests/oracles/sim_window.py``)."""

    def _trace(self):
        return Trace.from_events([
            TraceEvent(instruction_gap=10, address=0x1000, is_instruction=True, is_write=False, shared=False),
            TraceEvent(instruction_gap=10, address=0x2000, is_instruction=False, is_write=False, shared=False),
            TraceEvent(instruction_gap=10, address=0x3000, is_instruction=False, is_write=True, shared=False),
        ])

    def test_instruction_fetches_stall_fully(self):
        latencies = []
        def llc_request(core_id, address, is_write, is_instruction, now):
            latencies.append((is_instruction, now))
            return 50.0
        core = TraceDrivenCore(0, OOO, get_workload("Web Search"), self._trace(), llc_request)
        stats = core.run()
        assert stats.instructions == 30
        assert stats.fetch_stall_cycles == pytest.approx(50.0)
        assert stats.cycles > 30 * 0.4  # at least the base-CPI time passed
        assert core.done

    def test_data_requests_overlap_within_window(self):
        def llc_request(core_id, address, is_write, is_instruction, now):
            return 100.0
        trace = Trace.from_events(
            TraceEvent(instruction_gap=1, address=0x1000 * (i + 1), is_instruction=False, is_write=False, shared=False)
            for i in range(4)
        )
        core = TraceDrivenCore(0, OOO, get_workload("Web Search"), trace, llc_request)
        stats = core.run()
        # Four overlapping 100-cycle misses must not serialize into 400 cycles.
        assert stats.cycles < 250.0

    def test_ipc_property(self):
        core = TraceDrivenCore(0, OOO, get_workload("Web Search"), self._trace(), lambda *a: 10.0)
        core.run()
        assert 0 < core.ipc < OOO.issue_width


def _window_state(system):
    """Everything the measured window reads or writes, LRU order included.

    Each bank gives its stats, every built set as ``(index, [(tag, dirty),
    ...])`` LRU first, and its count of lines still pending.  Two systems
    compared here start from the same warm-up, so a set built on neither
    side is the same on both.
    """
    return (
        system.stats,
        [
            (
                bank.stats,
                sorted((index, list(lines.items())) for index, lines in bank._sets.items()),
                bank._sets.pending_lines,
            )
            for bank in system.banks
        ],
        system._bank_next_free,
        system.directory.stats,
        system.directory._sharers,
        system.directory._owner,
        [(channel._next_free, channel.requests, channel.busy_cycles) for channel in system.channels],
    )


_SUITE = list(default_suite())


class TestWindowKernel:
    """``SimulatedSystem.run``'s flat window against the per-access oracle.

    The oracle (``tests/oracles/sim_window.py``) steps one object per core
    and walks the LLC request, directory, bank and channel calls once per
    access.  Every comparison is exact: statistics, per-core cycles and
    instructions, bank sets in LRU order with dirty bits, directory sharers
    and owners, and channel counters.
    """

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        workload=st.sampled_from(_SUITE),
        cores=st.sampled_from((1, 2, 4, 16)),
        interconnect=st.sampled_from(("mesh", "crossbar")),
        llc_mb=st.sampled_from((1.0, 4.0)),
        channels=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=1, max_value=9),
        warmup=st.booleans(),
    )
    def test_matches_per_access_oracle(
        self, workload, cores, interconnect, llc_mb, channels, seed, warmup
    ):
        config = Pod(cores=cores, llc_capacity_mb=llc_mb, interconnect=interconnect)
        kernel, oracle = (
            SimulatedSystem(workload, config, memory_channels=channels, seed=seed)
            for _ in range(2)
        )
        kernel.run(2000, warmup=warmup)
        run_per_access(oracle, 2000, warmup=warmup)
        assert _window_state(kernel) == _window_state(oracle)

    @pytest.mark.parametrize("cores_index", range(4), ids=lambda i: f"{(1, 2, 4, 16)[i]}cores")
    @pytest.mark.parametrize("position", range(7), ids=lambda p: _SUITE[p].name)
    def test_every_workload_and_core_count(self, position, cores_index):
        # The LLC size, interconnect and channel count rotate with the case,
        # so every core count meets every value of each.
        case = position + cores_index
        config = Pod(
            cores=(1, 2, 4, 16)[cores_index],
            llc_capacity_mb=(1.0, 4.0)[case % 2],
            interconnect=("mesh", "crossbar")[case // 2 % 2],
        )
        kernel, oracle = (
            SimulatedSystem(_SUITE[position], config, memory_channels=1 + case % 3, seed=3)
            for _ in range(2)
        )
        kernel.run(1000)
        run_per_access(oracle, 1000)
        assert _window_state(kernel) == _window_state(oracle)

    @pytest.mark.parametrize("workload", default_suite(), ids=lambda w: w.name)
    def test_figure_4_3_catalog_size(self, workload):
        # Figure 4.3's catalog point: 16 cores, 8 MB, crossbar, 6,000
        # instructions per core, seed 11, two channels.
        config = Pod(cores=16, llc_capacity_mb=8.0, interconnect="crossbar")
        kernel, oracle = (SimulatedSystem(workload, config, seed=11) for _ in range(2))
        kernel.run(6000)
        run_per_access(oracle, 6000)
        assert _window_state(kernel) == _window_state(oracle)

    def test_second_run_on_the_same_system(self):
        # The second run starts from the first one's banks, directory,
        # bank and channel clocks, and adds to its statistics.
        workload = get_workload("Data Serving")
        config = Pod(cores=4, llc_capacity_mb=1.0)
        kernel, oracle = (
            SimulatedSystem(workload, config, memory_channels=2, seed=5) for _ in range(2)
        )
        for _ in range(2):
            kernel.run(2000)
            run_per_access(oracle, 2000)
            assert _window_state(kernel) == _window_state(oracle)
        assert len(kernel.stats.per_core_cycles) == 8

    def test_hand_trace_fills_the_miss_window(self):
        # Back-to-back misses (no instructions between them) fill the
        # outstanding-miss window: the core stalls until its oldest miss
        # returns and issues the next one at exactly that time.
        workload = get_workload("Web Search")
        config = Pod(cores=2, llc_capacity_mb=1.0)
        kernel, oracle = (SimulatedSystem(workload, config, seed=1) for _ in range(2))
        traces = [
            Trace.from_events(
                TraceEvent(
                    instruction_gap=0, address=(core * 64 + i) * 4096, is_instruction=False,
                    is_write=False, shared=False,
                )
                for i in range(40)
            )
            for core in range(2)
        ]
        kernel_cores = kernel._run_window(traces)
        oracle_cores = run_window(oracle, traces)
        assert kernel_cores == [(core.stats.cycles, core.stats.instructions) for core in oracle_cores]
        assert all(core.stats.data_stall_cycles > 0 for core in oracle_cores)
        assert _window_state(kernel) == _window_state(oracle)

    def test_hand_trace_evicts_lines_the_directory_tracks(self):
        # Two cores write and read 20 lines of one set of a one-bank LLC
        # from a cold start: the fills evict lines the directory holds
        # state for, and each eviction drops that state.
        workload = get_workload("Web Search")
        config = Pod(cores=2, llc_capacity_mb=1.0)
        kernel, oracle = (SimulatedSystem(workload, config, seed=1) for _ in range(2))
        assert kernel.num_banks == 1
        stride = kernel.banks[0].num_sets * 64
        events = [
            TraceEvent(
                instruction_gap=3, address=i * stride, is_instruction=False,
                is_write=i % 3 == 0, shared=False,
            )
            for i in range(20)
        ]
        traces = [Trace.from_events(events), Trace.from_events(events[::-1])]
        assert kernel._run_window(traces) == [
            (core.stats.cycles, core.stats.instructions) for core in run_window(oracle, traces)
        ]
        assert kernel.banks[0].stats.evictions > 0
        assert _window_state(kernel) == _window_state(oracle)


class TestSimulatedSystem:
    def test_end_to_end_stats(self):
        workload = get_workload("Web Search")
        config = Pod(cores=4, core_type="ooo", llc_capacity_mb=4, interconnect="crossbar")
        stats = simulate_system(workload, config, instructions_per_core=4000, seed=3)
        assert stats.instructions >= 4 * 4000 * 0.9
        assert stats.aggregate_ipc > 0.5
        assert 0 <= stats.snoop_fraction < 0.2
        assert stats.llc_accesses > 0
        assert stats.llc_misses <= stats.llc_accesses
        assert len(stats.per_core_cycles) == 4

    def test_deterministic_given_seed(self):
        workload = get_workload("Data Serving")
        config = Pod(cores=2, core_type="ooo", llc_capacity_mb=2)
        a = simulate_system(workload, config, instructions_per_core=3000, seed=5)
        b = simulate_system(workload, config, instructions_per_core=3000, seed=5)
        assert a.aggregate_ipc == pytest.approx(b.aggregate_ipc)
        assert a.llc_misses == b.llc_misses

    def test_warmup_reduces_misses(self):
        workload = get_workload("Web Search")
        config = Pod(cores=4, core_type="ooo", llc_capacity_mb=4)
        cold = SimulatedSystem(workload, config, seed=3).run(4000, warmup=False)
        warm = SimulatedSystem(workload, config, seed=3).run(4000, warmup=True)
        assert warm.llc_misses / warm.llc_accesses < cold.llc_misses / cold.llc_accesses

    def test_smaller_llc_misses_more(self):
        workload = get_workload("Web Search")
        small = simulate_system(workload, Pod(cores=4, llc_capacity_mb=1), 4000, seed=3)
        large = simulate_system(workload, Pod(cores=4, llc_capacity_mb=8), 4000, seed=3)
        assert small.llc_mpki > large.llc_mpki

    def test_mesh_slower_than_crossbar_at_many_cores(self):
        workload = get_workload("Web Frontend")
        mesh = simulate_system(
            workload, Pod(cores=16, llc_capacity_mb=4, interconnect="mesh"), 3000, seed=3
        )
        crossbar = simulate_system(
            workload, Pod(cores=16, llc_capacity_mb=4, interconnect="crossbar"), 3000, seed=3
        )
        assert crossbar.aggregate_ipc > mesh.aggregate_ipc

    def test_model_tracks_simulation_within_band(self):
        # Figure 3.3: the analytic model follows the simulator's trends; the
        # reduced-fidelity reproduction keeps the two within ~40 %.
        workload = get_workload("Data Serving")
        config = Pod(cores=8, core_type="ooo", llc_capacity_mb=4)
        simulated = simulate_system(workload, config, instructions_per_core=5000, seed=7)
        predicted = estimate(workload, config)
        ratio = predicted.aggregate_ipc / simulated.aggregate_ipc
        assert 0.6 < ratio < 1.4

    @pytest.mark.parametrize("instructions", [0, -3, 1.5, True])
    def test_invalid_run_length(self, instructions):
        workload = get_workload("Web Search")
        config = Pod(cores=2, llc_capacity_mb=2)
        with pytest.raises(ValueError, match="instructions_per_core must be an integer >= 1"):
            SimulatedSystem(workload, config).run(instructions)

    @pytest.mark.parametrize("channels", [0, -1, 1.5, float("nan"), True])
    def test_rejects_memory_channels_that_are_not_counts(self, channels):
        # memory_channels=0 used to build the system and then die with a
        # ZeroDivisionError in _channel_for on the first LLC miss; 1.5 and NaN
        # died in range() with a TypeError, and True built one channel.
        workload = get_workload("Web Search")
        config = Pod(cores=2, llc_capacity_mb=2)
        with pytest.raises(ValueError, match="memory_channels must be an integer >= 1") as caught:
            simulate_system(workload, config, 1000, memory_channels=channels)
        assert "\n" not in str(caught.value)

    def test_channel_interleaving_decorrelated_from_banks(self):
        # Regression: channel selection used the same low line-address bits as
        # bank selection, so every line of a given bank hit one channel.  Lines
        # mapping to any single bank must now spread across all channels.
        workload = get_workload("Web Search")
        config = Pod(cores=16, core_type="ooo", llc_capacity_mb=4, interconnect="crossbar")
        system = SimulatedSystem(workload, config, memory_channels=2, seed=3)
        assert len(system.channels) == 2 and system.num_banks % 2 == 0
        for bank in range(system.num_banks):
            lines = [line for line in range(512) if system._bank_for(line * 64) == bank]
            channels = {system._channel_for(line * 64) for line in lines}
            assert channels == set(range(len(system.channels)))

    def test_memory_traffic_spreads_across_channels(self):
        # End to end: a cold run's DRAM requests must land on every channel.
        workload = get_workload("Web Search")
        config = Pod(cores=16, core_type="ooo", llc_capacity_mb=1, interconnect="crossbar")
        system = SimulatedSystem(workload, config, memory_channels=2, seed=3)
        system.run(2000, warmup=False)
        assert all(channel.requests > 0 for channel in system.channels)
