"""Kernel/reference equivalence: the SoA kernel must match the per-packet graph
walk in ``tests/oracles/noc_reference.py`` bit for bit -- per-packet latencies
and every derived statistic -- on all three topologies and across link
widths."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.noc_reference import ReferenceNocNetwork, evaluate_reference, rows_batch
from repro.faults.events import LinkFault
from repro.faults.noc import apply_link_faults
from repro.noc import fastpath
from repro.noc.fastpath import (
    CLASS_CODES,
    MessageClass,
    PacketBatch,
    compile_topology,
    process_batch,
    sequential_sum,
)
from repro.noc.network import NocConfig, NocNetwork
from repro.noc.simulation import PodNocStudy
from repro.noc.topology import (
    TOPOLOGY_BUILDERS,
    build_flattened_butterfly,
    build_mesh,
    build_nocout,
)
from repro.noc.traffic import bilateral_injection_rate, generate_bilateral_batch
from repro.workloads import WorkloadSuite, get_workload

TOPOLOGY_BUILDERS = {
    "mesh": build_mesh,
    "fbfly": build_flattened_butterfly,
    "nocout": build_nocout,
}
DURATION = 1_200
ACTIVE_CORES = 32
COLUMNS = ("injection_time", "source", "destination", "class_code", "flits", "packet_id")


def _traffic(topology, duration_cycles, active_cores=None, seed=3):
    """Web Search's bilateral traffic over ``topology`` at 0.5 IPC per core."""
    workload = get_workload("Web Search")
    return generate_bilateral_batch(
        core_nodes=topology.core_nodes,
        llc_nodes=topology.llc_nodes,
        injection_rate=bilateral_injection_rate(workload, per_core_ipc=0.5),
        snoop_fraction=workload.snoop_fraction,
        seed=seed,
        duration_cycles=duration_cycles,
        active_cores=active_cores,
    )


@pytest.mark.parametrize("topology_name", ["mesh", "fbfly", "nocout"])
@pytest.mark.parametrize("link_width_bits", [128, 32])
class TestFastpathEquivalence:
    def test_exact_equality_against_reference(self, topology_name, link_width_bits):
        """Arrival times, hops, and all derived stats are exactly equal."""
        build = TOPOLOGY_BUILDERS[topology_name]
        config = NocConfig(link_width_bits=link_width_bits)

        reference = ReferenceNocNetwork(build(64), config)
        fast = NocNetwork(build(64), config)
        batch = _traffic(fast.topology, DURATION, ACTIVE_CORES)
        want = reference.run_batch(batch)
        got = fast.run_batch(batch)

        assert got.arrival_time.tobytes() == want.arrival_time.tobytes()
        assert got.hops.tolist() == want.hops.tolist()
        assert fast.average_latency() == reference.average_latency()
        assert fast.average_latency_by_class() == reference.average_latency_by_class()
        assert fast.average_hops() == reference.average_hops()
        assert fast.total_flit_hops() == reference.total_flit_hops()
        assert fast.max_link_utilization(DURATION) == reference.max_link_utilization(
            DURATION
        )

    def test_row_by_row_batches_match_one_batch(self, topology_name, link_width_bits):
        """One-row batches in delivery order equal one batch, bit for bit:
        link state and the seeded running sums carry across calls."""
        build = TOPOLOGY_BUILDERS[topology_name]
        config = NocConfig(link_width_bits=link_width_bits)

        whole = NocNetwork(build(64), config)
        batch = _traffic(whole.topology, DURATION, ACTIVE_CORES)
        result = whole.run_batch(batch)

        by_row = NocNetwork(build(64), config)
        for index in result.order.tolist():
            row = by_row.run_batch(
                PacketBatch(**{name: getattr(batch, name)[index : index + 1] for name in COLUMNS})
            )
            assert row.arrival_time[0] == result.arrival_time[index]
            assert row.hops[0] == result.hops[index]
        assert by_row.average_latency() == whole.average_latency()
        assert by_row.average_latency_by_class() == whole.average_latency_by_class()
        assert by_row.average_hops() == whole.average_hops()
        assert by_row.total_flit_hops() == whole.total_flit_hops()
        assert by_row.max_link_utilization(DURATION) == whole.max_link_utilization(DURATION)


class TestPodStudyEquivalence:
    def test_full_study_results_identical(self):
        """`PodNocStudy` rows exactly equal the per-packet reference walk."""
        suite = WorkloadSuite((get_workload("Web Search"), get_workload("Data Serving")))
        study = PodNocStudy(duration_cycles=1_000, suite=suite, seed=2)
        assert study.evaluate() == evaluate_reference(study)


class TestPacketBatch:
    def test_generate_batch_is_deterministic(self):
        mesh = build_mesh(64)
        a = _traffic(mesh, DURATION, ACTIVE_CORES, seed=7)
        b = _traffic(mesh, DURATION, ACTIVE_CORES, seed=7)
        for column in COLUMNS:
            assert np.array_equal(getattr(a, column), getattr(b, column))

    def test_different_seeds_differ(self):
        mesh = build_mesh(64)
        a = _traffic(mesh, DURATION, ACTIVE_CORES, seed=7)
        b = _traffic(mesh, DURATION, ACTIVE_CORES, seed=8)
        assert not np.array_equal(a.injection_time, b.injection_time)

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError, match="mismatched length"):
            PacketBatch(
                injection_time=np.zeros(3),
                source=np.zeros(2, dtype=np.int64),
                destination=np.zeros(3, dtype=np.int64),
                class_code=np.zeros(3, dtype=np.int64),
                flits=np.zeros(3, dtype=np.int64),
                packet_id=np.arange(3),
            )


class TestSequentialSum:
    def test_matches_python_sum_bitwise(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(0, 20_000, 10_001)
        running = 0.0
        for value in values.tolist():
            running += value
        assert sequential_sum(values) == running

    def test_empty_is_zero(self):
        assert sequential_sum(np.array([])) == 0.0


class TestMixedUsage:
    def test_multi_batch_stats_stay_bit_identical(self):
        """Running sums seeded across batches keep exact equality with the
        reference walk's per-packet accumulation (regression: a per-batch
        subtotal added in one float op diverged in the last ulps)."""
        config = NocConfig()
        fast = NocNetwork(build_mesh(64), config)
        reference = ReferenceNocNetwork(build_mesh(64), config)
        for seed in (3, 4, 5):
            batch = _traffic(fast.topology, 600, ACTIVE_CORES, seed=seed)
            fast.run_batch(batch)
            reference.run_batch(batch)
        assert fast.average_latency() == reference.average_latency()
        assert fast.average_latency_by_class() == reference.average_latency_by_class()
        assert fast.total_flit_hops() == reference.total_flit_hops()

    def test_later_batch_sees_link_state(self):
        """Contention persists across run_batch calls."""
        mesh = build_mesh(16)
        network = NocNetwork(mesh)
        packet = rows_batch((0, 3, MessageClass.RESPONSE, 0.0))
        first = network.run_batch(packet)
        second = network.run_batch(packet)
        zero_load = mesh.zero_load_latency(0, 3, flits=int(first.flits[0]))
        assert first.latency[0] == zero_load
        assert second.latency[0] > zero_load


DETERMINISTIC = settings(derandomize=True, max_examples=40, deadline=None)


def _faulted_mesh():
    """A 4x4 mesh with one link down: weighted shortest-path routes whose
    channel dependency graph is cyclic once every pair is compiled."""
    faulted = apply_link_faults(build_mesh(16), (LinkFault(link=(5, 6), severity="down"),))
    nodes = faulted.num_nodes
    compile_topology(faulted).compile_pairs(np.arange(nodes * nodes))
    return faulted


#: One shared instance each, so compiled routes grow across examples the way
#: they do across sweep points.
EQUIVALENCE_TOPOLOGIES = {
    "mesh": build_mesh(16),
    "fbfly": build_flattened_butterfly(16),
    "nocout": build_nocout(64),
    "mesh+faults": _faulted_mesh(),
    # Hop 0 adds the pipeline straight to the injection time: with a zero
    # pipeline a -0.0 injection must come out as the reference's sum does.
    "mesh+pipeline0": build_mesh(16, router_pipeline_cycles=0),
}


@st.composite
def packet_batches(draw, num_nodes, first_id=0):
    """Small batches dense enough to contend: tied injection times (0.0 and
    -0.0 among them), zero-hop packets, explicit and config-sized flits,
    shuffled packet ids."""
    node = st.integers(min_value=0, max_value=num_nodes - 1)
    time = st.sampled_from([0.0, -0.0, 1.0, 2.5, 7.25]) | st.floats(min_value=0.0, max_value=40.0)
    packet = st.tuples(
        node,
        node,
        st.sampled_from([False, False, False, True]),  # zero-hop (source == destination)
        time,
        st.integers(min_value=0, max_value=2),
        # 0: sized by the network config; 40,000 does not fit in int16.
        st.sampled_from([0, 0, 0, 1, 3, 9, 9, 40_000]),
    )
    rows = draw(st.lists(packet, max_size=60))
    ids = draw(st.permutations(range(first_id, first_id + len(rows))))
    return PacketBatch(
        injection_time=np.array([row[3] for row in rows], dtype=np.float64),
        source=np.array([row[0] for row in rows], dtype=np.int64),
        destination=np.array([row[0] if row[2] else row[1] for row in rows], dtype=np.int64),
        class_code=np.array([row[4] for row in rows], dtype=np.int64),
        flits=np.array([row[5] for row in rows], dtype=np.int64),
        packet_id=np.array(ids, dtype=np.int64),
    )


def _copy(batch):
    return PacketBatch(*(getattr(batch, column).copy() for column in COLUMNS))


class TestWavefrontEquivalence:
    """``run_batch`` against the reference walk on random contended batches:
    the wavefront on the three builders (and a zero-pipeline mesh), the hop
    loop on the faulted mesh."""

    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_TOPOLOGIES))
    @pytest.mark.parametrize("link_width_bits", [128, 16])
    @DETERMINISTIC
    @given(data=st.data())
    def test_batches_match_reference(self, name, link_width_bits, data):
        topology = EQUIVALENCE_TOPOLOGIES[name]
        nodes = topology.num_nodes
        first = data.draw(packet_batches(nodes))
        second = data.draw(packet_batches(nodes, first_id=len(first)))
        warmup = data.draw(st.booleans())
        config = NocConfig(link_width_bits=link_width_bits)
        fast = NocNetwork(topology, config)
        reference = ReferenceNocNetwork(topology, config)
        for network in (fast, reference):
            if warmup:  # non-zero next-free times before the first batch
                network.run_batch(rows_batch((0, nodes - 1, MessageClass.RESPONSE, 1.0)))
        for batch in (first, second):
            got = fast.run_batch(batch)
            want = reference.run_batch(batch)
            # Bytes, not floats: ``-0.0 == 0.0`` would hide a signed-zero drift.
            assert got.arrival_time.tobytes() == want.arrival_time.tobytes()
            assert got.hops.tolist() == want.hops.tolist()
            assert got.flits.tolist() == want.flits.tolist()
            assert got.order.tolist() == want.order.tolist()
        assert fast.average_latency() == reference.average_latency()
        assert fast.average_latency_by_class() == reference.average_latency_by_class()
        assert fast.average_hops() == reference.average_hops()
        assert fast.total_flit_hops() == reference.total_flit_hops()
        assert fast.max_link_utilization(50.0) == reference.max_link_utilization(50.0)

    @pytest.mark.parametrize("far", [(0, 1), (4, 5)])
    def test_far_apart_times_in_one_level(self, far):
        """Two level-0 links of the 4x4 mesh, one busy at 1e17 cycles and one
        with a queue near 0: lifting the link segments apart by the time span
        rounds the running-max guess of the busy-period heads (each packet
        arrives a cycle before the previous one's 5 flits end), so only the
        consistency rounds make the queue come out right."""
        near = (4, 5) if far == (0, 1) else (0, 1)
        rows = [(far, 1e17), (near, 0.5), (near, 4.5), (near, 8.0)]
        batch = PacketBatch(
            injection_time=np.array([t for _, t in rows]),
            source=np.array([link[0] for link, _ in rows]),
            destination=np.array([link[1] for link, _ in rows]),
            class_code=np.full(len(rows), CLASS_CODES[MessageClass.RESPONSE]),
            flits=np.zeros(len(rows), dtype=np.int64),
            packet_id=np.arange(len(rows)),
        )
        got = NocNetwork(build_mesh(16)).run_batch(batch)
        want = ReferenceNocNetwork(build_mesh(16)).run_batch(batch)
        assert got.arrival_time.tobytes() == want.arrival_time.tobytes()

    @DETERMINISTIC
    @given(data=st.data())
    def test_batch_columns_unchanged_and_runs_repeat(self, data):
        """Batches are shared between networks (``_cached_traffic_batch``), so
        ``run_batch`` must not write to them; two fresh networks agree."""
        name = data.draw(st.sampled_from(sorted(EQUIVALENCE_TOPOLOGIES)))
        topology = EQUIVALENCE_TOPOLOGIES[name]
        batch = data.draw(packet_batches(topology.num_nodes))
        pristine = _copy(batch)
        one = NocNetwork(topology).run_batch(batch)
        two = NocNetwork(topology).run_batch(batch)
        for column in COLUMNS:
            assert np.array_equal(getattr(batch, column), getattr(pristine, column)), column
        assert one.arrival_time.tobytes() == two.arrival_time.tobytes()
        assert one.hops.tolist() == two.hops.tolist()


class TestCycleTables:
    def test_tables_widen_only_for_values_past_int16(self):
        """Regression: a 100,000x degraded link overflowed the int16 latency
        table; healthy topologies keep their int16 tables."""
        healthy = compile_topology(build_mesh(16))
        assert healthy.link_latency.dtype == np.int16
        assert healthy.link_pipeline.dtype == healthy.route_tail.dtype == np.int16
        slow = apply_link_faults(build_mesh(16), (LinkFault(link=(5, 6), latency_factor=1e5),))
        latencies = [slow.link(a, b).latency_cycles for a, b in slow.links()]
        assert max(latencies) > np.iinfo(np.int16).max
        assert compile_topology(slow).link_latency.tolist() == latencies


class TestKernelDispatch:
    """The wavefront serves every acyclic CDG; only a cyclic one takes the loop."""

    @staticmethod
    def _spy_kernels(monkeypatch):
        """Record the name of every kernel ``process_batch`` calls."""
        used = []
        for name in ("_wavefront", "_hop_loop"):
            kernel = getattr(fastpath, name)

            def spy(*args, _kernel=kernel, _name=name):
                used.append(_name)
                return _kernel(*args)

            monkeypatch.setattr(fastpath, name, spy)
        return used

    def _kernels_used(self, monkeypatch, topology):
        used = self._spy_kernels(monkeypatch)
        NocNetwork(topology).run_batch(_traffic(topology, 400))
        return used

    @pytest.mark.parametrize("name", ["mesh", "fbfly", "nocout"])
    def test_builders_take_the_wavefront(self, monkeypatch, name):
        topology = TOPOLOGY_BUILDERS[name](64)
        assert self._kernels_used(monkeypatch, topology) == ["_wavefront"]
        compiled = compile_topology(topology)
        assert compiled.acyclic
        assert compiled.num_levels == {"mesh": 14, "fbfly": 2, "nocout": 9}[name]

    def test_faulted_mesh_takes_the_loop(self, monkeypatch):
        topology = _faulted_mesh()
        assert not compile_topology(topology).acyclic
        assert self._kernels_used(monkeypatch, topology) == ["_hop_loop"]

    def test_loop_reads_tables_grown_across_batches(self, monkeypatch):
        """A fresh faulted mesh compiled batch by batch: the first batch's
        routes (sources 0-6) leave the CDG acyclic, so the wavefront runs;
        the second adds 7 -> 0, whose route 7-6-2-1-0 closes the cycle
        2->3->7->6->2 with routes 2 -> 15, 3 -> 14 and 6 -> 3 of the first
        batch, so the hop loop runs over route offsets that both
        ``compile_pairs`` calls appended."""
        topology = apply_link_faults(build_mesh(16), (LinkFault(link=(5, 6), severity="down"),))
        compiled = compile_topology(topology)
        rng = np.random.default_rng(11)

        def batch(sources, lead, first_id, size=300):
            """Random rows from ``sources``, after one row per ``lead`` pair."""
            source = rng.choice(sources, size=size)
            destination = rng.integers(16, size=size)
            source[: len(lead)], destination[: len(lead)] = zip(*lead)
            return PacketBatch(
                # A coarse time grid, so packets tie and contend.
                injection_time=rng.integers(0, 40, size=size) * 0.5,
                source=source.astype(np.int64),
                destination=destination.astype(np.int64),
                class_code=rng.integers(3, size=size),
                flits=rng.choice([0, 0, 1, 3], size=size).astype(np.int64),
                packet_id=first_id + rng.permutation(size).astype(np.int64),
            )

        first = batch(np.arange(7), [(2, 15), (3, 14), (6, 3)], first_id=0)
        second = batch(np.arange(16), [(7, 0)], first_id=len(first))
        used = self._spy_kernels(monkeypatch)
        fast = NocNetwork(topology)
        reference = ReferenceNocNetwork(topology)

        got = fast.run_batch(first)
        assert used == ["_wavefront"] and compiled.acyclic
        first_hops = len(compiled.hop_link)
        assert compiled.route_length[7 * 16 + 0] == -1
        want = reference.run_batch(first)
        assert got.arrival_time.tobytes() == want.arrival_time.tobytes()

        got = fast.run_batch(second)
        assert used == ["_wavefront", "_hop_loop"] and not compiled.acyclic
        offsets = compiled.route_offset[second.source * 16 + second.destination]
        assert offsets.min() < first_hops <= compiled.route_offset[7 * 16 + 0]
        want = reference.run_batch(second)
        assert got.arrival_time.tobytes() == want.arrival_time.tobytes()
        assert got.hops.tolist() == want.hops.tolist()
        assert fast.average_latency() == reference.average_latency()
        assert fast.average_latency_by_class() == reference.average_latency_by_class()
        assert fast.total_flit_hops() == reference.total_flit_hops()
        assert fast.max_link_utilization(20.0) == reference.max_link_utilization(20.0)


class TestNodeRange:
    @pytest.mark.parametrize("column", ["source", "destination"])
    @pytest.mark.parametrize("node", [64, -1])
    def test_out_of_range_node_rejected(self, column, node):
        """Regression: 0 -> 64 on a 64-node mesh decoded as pair (1, 0) and
        was delivered over a wrong one-hop route."""
        batch = rows_batch((0, 5, MessageClass.DATA_REQUEST, 0.0))
        getattr(batch, column)[0] = node
        network = NocNetwork(build_mesh(64))
        with pytest.raises(ValueError, match=rf"{column}.*0\.\.63"):
            network.run_batch(batch)

    @pytest.mark.parametrize(
        "column, value, message",
        [
            # Regression: -1 indexed the flit table from the end and ran as
            # a 5-flit response counted in no class; 3 died in an IndexError.
            ("class_code", -1, r"'class_code' holds class codes outside 0\.\.2"),
            ("class_code", 3, r"'class_code' holds class codes outside 0\.\.2"),
            # Regression: a negative flit count was sized by the config like 0.
            ("flits", -1, r"'flits' holds negative flit counts"),
        ],
    )
    def test_bad_class_code_or_flits_rejected(self, column, value, message):
        batch = rows_batch(
            (0, 5, MessageClass.DATA_REQUEST, 0.0), (5, 0, MessageClass.RESPONSE, 4.0)
        )
        getattr(batch, column)[1] = value
        network = NocNetwork(build_mesh(64))
        with pytest.raises(ValueError, match=f"^PacketBatch column {message}$"):
            network.run_batch(batch)
        assert network.average_latency_by_class() == {}
        assert network.total_flit_hops() == 0

    @pytest.mark.parametrize("column", ["source", "destination", "class_code", "flits"])
    def test_non_integer_column_rejected(self, column):
        """A float id would be truncated by the kernel's integer casts."""
        batch = rows_batch((0, 5, MessageClass.DATA_REQUEST, 0.0))
        batch = PacketBatch(
            **{name: getattr(batch, name) for name in COLUMNS if name != column},
            **{column: getattr(batch, column) + 0.5},
        )
        with pytest.raises(ValueError, match=f"^PacketBatch column '{column}' holds float64, not"):
            NocNetwork(build_mesh(64)).run_batch(batch)


class TestNarrowColumns:
    def test_pair_keys_past_int16(self):
        """On a 256-node mesh the pair key 255 * 256 + 255 = 65,535 overflows
        int16: int16 node ids must give the arrivals int64 ones do."""
        mesh = build_mesh(256)
        narrow = generate_bilateral_batch(
            core_nodes=list(range(256)),
            llc_nodes=[0, 200, 255],
            injection_rate=0.01,
            snoop_fraction=0.1,
            seed=5,
            duration_cycles=400,
        )
        assert narrow.source.dtype == narrow.destination.dtype == np.int16
        keys = narrow.source.astype(np.int64) * 256 + narrow.destination
        assert keys.max() == 255 * 256 + 255
        wide = PacketBatch(narrow.injection_time, *(
            getattr(narrow, column).astype(np.int64) for column in COLUMNS[1:]
        ))
        got = NocNetwork(mesh).run_batch(narrow)
        want = NocNetwork(mesh).run_batch(wide)
        assert got.arrival_time.tobytes() == want.arrival_time.tobytes()
        assert got.hops.tolist() == want.hops.tolist()


def _noc_pod_batch(topology):
    """The largest traffic batch of the benchmark's seed-0 ``noc_pod`` run
    (Figure 4.6 at 12k cycles, study seed 1): Data Serving on all 64 cores."""
    workload = get_workload("Data Serving")
    return generate_bilateral_batch(
        core_nodes=topology.core_nodes,
        llc_nodes=topology.llc_nodes,
        injection_rate=bilateral_injection_rate(workload, per_core_ipc=0.5),
        snoop_fraction=workload.snoop_fraction,
        seed=1,
        duration_cycles=12_000,
        active_cores=64,
    )


class TestBatchMemory:
    """Deterministic memory guards, no timing: an int64 column or per-hop
    temporary coming back fails them."""

    def test_generated_batch_bytes_per_packet(self):
        batch = _noc_pod_batch(build_mesh(64))
        assert len(batch) == 46_428
        nbytes = sum(getattr(batch, column).nbytes for column in COLUMNS)
        assert nbytes == 18 * len(batch)  # 48 with int64 columns

    @pytest.mark.parametrize("name", ["mesh", "fbfly", "nocout"])
    def test_process_batch_peak_bytes_per_packet(self, name):
        """The traced peak of one ``process_batch`` call.  Measured with
        numpy 2.4: 75.6 B/packet on the mesh (5.2 hops a packet), 75.3 on
        the flattened butterfly and 84.5 on NOC-Out; 189, 137 and 160 with
        the int64 temporaries.  The bound leaves 18-33% headroom; one int64
        array per hop would add 42 B/packet on the mesh."""
        topology = TOPOLOGY_BUILDERS[name](64)
        batch = _noc_pod_batch(topology)
        compiled = compile_topology(topology)
        config = NocConfig()
        links = compiled.num_links
        # Compile the routes first: their tables persist with the topology.
        process_batch(compiled, batch, config, [0.0] * links, [0] * links)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            process_batch(compiled, batch, config, [0.0] * links, [0] * links)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 100 * len(batch)


class TestSnoopVictims:
    def test_victims_match_rng_choice_replay(self):
        """Victim draws consume the stream exactly as ``rng.choice(cores)``."""
        cores, llcs = list(range(64)), list(range(64, 72))
        batch = generate_bilateral_batch(
            core_nodes=cores,
            llc_nodes=llcs,
            injection_rate=0.05,
            snoop_fraction=0.3,
            seed=4,
            duration_cycles=500,
            active_cores=24,
        )
        rng = np.random.default_rng((4, 0xABCD, 500))
        active = cores[:24]
        expected = []
        for _ in active:
            count = int(rng.poisson(0.05 * 500))
            rng.uniform(0, 500, size=count)
            rng.choice(llcs, size=count)
            snoops = int((rng.random(count) < 0.3).sum())
            expected.extend(int(rng.choice(active)) for _ in range(snoops))
        snooped = batch.destination[batch.class_code == CLASS_CODES[MessageClass.SNOOP_REQUEST]]
        assert len(expected) > 20
        assert snooped.tolist() == expected
