"""Kernel/reference equivalence: the SoA kernel must match the per-packet graph
walk in ``tests/oracles/noc_reference.py`` bit for bit -- per-packet latencies
and every derived statistic -- on all three topologies and across link
widths."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.noc_reference import ReferenceNocNetwork, evaluate_reference
from repro.faults.events import LinkFault
from repro.faults.noc import apply_link_faults
from repro.noc import fastpath
from repro.noc.fastpath import CLASS_CODES, PacketBatch, compile_topology, sequential_sum
from repro.noc.network import NocConfig, NocNetwork
from repro.noc.packet import MessageClass, Packet
from repro.noc.simulation import PodNocStudy
from repro.noc.topology import (
    TOPOLOGY_BUILDERS,
    build_flattened_butterfly,
    build_mesh,
    build_nocout,
)
from repro.noc.traffic import BilateralTrafficGenerator, generate_bilateral_batch
from repro.workloads import WorkloadSuite, get_workload

TOPOLOGY_BUILDERS = {
    "mesh": build_mesh,
    "fbfly": build_flattened_butterfly,
    "nocout": build_nocout,
}
DURATION = 1_200
ACTIVE_CORES = 32


def _traffic(topology, seed=3):
    generator = BilateralTrafficGenerator(
        topology, get_workload("Web Search"), per_core_ipc=0.5, seed=seed
    )
    return generator


@pytest.mark.parametrize("topology_name", ["mesh", "fbfly", "nocout"])
@pytest.mark.parametrize("link_width_bits", [128, 32])
class TestFastpathEquivalence:
    def test_exact_equality_against_reference(self, topology_name, link_width_bits):
        """Arrival times, hops, and all derived stats are exactly equal."""
        build = TOPOLOGY_BUILDERS[topology_name]
        config = NocConfig(link_width_bits=link_width_bits)

        reference = ReferenceNocNetwork(build(64), config)
        packets = _traffic(reference.topology).generate(DURATION, ACTIVE_CORES)
        reference.run(packets)
        reference_arrivals = {p.packet_id: p.arrival_time for p in reference.delivered}
        reference_hops = {p.packet_id: p.hops for p in reference.delivered}

        fast = NocNetwork(build(64), config)
        batch = _traffic(fast.topology).generate_batch(DURATION, ACTIVE_CORES)
        result = fast.run_batch(batch)
        fast_arrivals = dict(
            zip(batch.packet_id.tolist(), result.arrival_time.tolist())
        )
        fast_hops = dict(zip(batch.packet_id.tolist(), result.hops.tolist()))

        assert fast_arrivals == reference_arrivals  # exact float equality
        assert fast_hops == reference_hops
        assert fast.average_latency() == reference.average_latency()
        assert fast.average_latency_by_class() == reference.average_latency_by_class()
        assert fast.average_hops() == reference.average_hops()
        assert fast.total_flit_hops() == reference.total_flit_hops()
        assert fast.max_link_utilization(DURATION) == reference.max_link_utilization(
            DURATION
        )

    def test_send_matches_batch_kernel(self, topology_name, link_width_bits):
        """Per-packet ``send`` equals the batch kernel."""
        build = TOPOLOGY_BUILDERS[topology_name]
        config = NocConfig(link_width_bits=link_width_bits)

        batch_network = NocNetwork(build(64), config)
        batch = _traffic(batch_network.topology).generate_batch(DURATION, ACTIVE_CORES)
        result = batch_network.run_batch(batch)

        send_network = NocNetwork(build(64), config)
        packets = _traffic(send_network.topology).generate(DURATION, ACTIVE_CORES)
        send_network.run(packets)

        by_id = {p.packet_id: p for p in send_network.delivered}
        for pid, arrival in zip(batch.packet_id.tolist(), result.arrival_time.tolist()):
            assert by_id[pid].arrival_time == arrival
        assert send_network.average_latency() == batch_network.average_latency()
        assert send_network.total_flit_hops() == batch_network.total_flit_hops()


class TestPodStudyEquivalence:
    def test_full_study_results_identical(self):
        """`PodNocStudy` rows exactly equal the object-traffic reference walk."""
        suite = WorkloadSuite((get_workload("Web Search"), get_workload("Data Serving")))
        study = PodNocStudy(duration_cycles=1_000, suite=suite, seed=2)
        assert study.evaluate() == evaluate_reference(study)


class TestPacketBatch:
    def test_generate_batch_is_deterministic(self):
        mesh = build_mesh(64)
        a = _traffic(mesh, seed=7).generate_batch(DURATION, ACTIVE_CORES)
        b = _traffic(mesh, seed=7).generate_batch(DURATION, ACTIVE_CORES)
        for column in ("injection_time", "source", "destination", "class_code", "flits", "packet_id"):
            assert np.array_equal(getattr(a, column), getattr(b, column))

    def test_different_seeds_differ(self):
        mesh = build_mesh(64)
        a = _traffic(mesh, seed=7).generate_batch(DURATION, ACTIVE_CORES)
        b = _traffic(mesh, seed=8).generate_batch(DURATION, ACTIVE_CORES)
        assert not np.array_equal(a.injection_time, b.injection_time)

    def test_object_adapter_roundtrip(self):
        """generate() == generate_batch().to_packets(), field for field."""
        mesh = build_mesh(64)
        batch = _traffic(mesh).generate_batch(DURATION, ACTIVE_CORES)
        packets = _traffic(mesh).generate(DURATION, ACTIVE_CORES)
        assert len(batch) == len(packets)
        for packet, (src, dst, t, pid) in zip(
            packets,
            zip(
                batch.source.tolist(),
                batch.destination.tolist(),
                batch.injection_time.tolist(),
                batch.packet_id.tolist(),
            ),
        ):
            assert (packet.source, packet.destination) == (src, dst)
            assert packet.injection_time == t
            assert packet.packet_id == pid
            assert isinstance(packet.source, int)

        rebuilt = PacketBatch.from_packets(packets)
        assert np.array_equal(rebuilt.injection_time, batch.injection_time)
        assert np.array_equal(rebuilt.class_code, batch.class_code)

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
            batch = _traffic(fast.topology, seed=seed).generate_batch(600, ACTIVE_CORES)
            fast.run_batch(batch)
            reference.run(
                _traffic(reference.topology, seed=seed).generate(600, ACTIVE_CORES)
            )
        assert fast.average_latency() == reference.average_latency()
        assert fast.average_latency_by_class() == reference.average_latency_by_class()
        assert fast.total_flit_hops() == reference.total_flit_hops()

    def test_send_after_batch_sees_link_state(self):
        """Contention persists across run_batch and send."""
        mesh = build_mesh(16)
        network = NocNetwork(mesh)
        first = Packet(0, 3, MessageClass.RESPONSE, injection_time=0.0, packet_id=0)
        second = Packet(0, 3, MessageClass.RESPONSE, injection_time=0.0, packet_id=1)
        network.run_batch(PacketBatch.from_packets([first]))
        network.send(second)
        assert second.latency > mesh.zero_load_latency(0, 3, flits=second.flits)


COLUMNS = ("injection_time", "source", "destination", "class_code", "flits", "packet_id")
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
                network.send(
                    Packet(0, nodes - 1, MessageClass.RESPONSE, injection_time=1.0, packet_id=-1)
                )
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


class TestKernelDispatch:
    """The wavefront serves every acyclic CDG; only a cyclic one takes the loop."""

    def _kernels_used(self, monkeypatch, topology):
        used = []
        for name in ("_wavefront", "_hop_loop"):
            kernel = getattr(fastpath, name)

            def spy(*args, _kernel=kernel, _name=name):
                used.append(_name)
                return _kernel(*args)

            monkeypatch.setattr(fastpath, name, spy)
        batch = BilateralTrafficGenerator(
            topology, get_workload("Web Search"), per_core_ipc=0.5, seed=3
        ).generate_batch(400)
        NocNetwork(topology).run_batch(batch)
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


class TestNodeRange:
    @pytest.mark.parametrize("column", ["source", "destination"])
    @pytest.mark.parametrize("node", [64, -1])
    def test_out_of_range_node_rejected(self, column, node):
        """Regression: 0 -> 64 on a 64-node mesh decoded as pair (1, 0) and
        was delivered over a wrong one-hop route."""
        packet = Packet(0, 5, MessageClass.DATA_REQUEST, injection_time=0.0, packet_id=0)
        setattr(packet, column, node)
        network = NocNetwork(build_mesh(64))
        with pytest.raises(ValueError, match=rf"{column}.*0\.\.63"):
            network.run_batch(PacketBatch.from_packets([packet]))


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
