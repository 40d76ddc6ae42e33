"""Tests for the packet-level NoC simulator and its area/power models."""

import statistics

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles.noc_reference import rows_batch
from oracles.noc_routes import shortest_route, weighted_digraph

from repro.noc.fastpath import CLASS_CODES, MessageClass, PacketBatch
from repro.noc.metrics import NocAreaModel
from repro.noc.network import NocConfig, NocNetwork
from repro.noc.simulation import PodNocStudy
from repro.noc.topology import NocTopology, build_flattened_butterfly, build_mesh, build_nocout
from repro.noc.traffic import bilateral_injection_rate, generate_bilateral_batch
from repro.workloads import WorkloadSuite, get_workload


class TestTopologies:
    def test_mesh_structure(self):
        mesh = build_mesh(cores=64)
        assert len(mesh.core_nodes) == 64
        assert mesh.num_nodes == 64
        # Interior routers have 4 neighbours, corners 2.
        degrees = [len(neighbours) for neighbours in mesh.successors.values()]
        assert max(degrees) == 4 and min(degrees) == 2

    def test_mesh_xy_routing_hop_count(self):
        mesh = build_mesh(cores=64)
        path = mesh.route(0, 63)  # corner to corner of an 8x8 grid
        assert len(path) - 1 == 14
        assert path[0] == 0 and path[-1] == 63

    def test_mesh_zero_load_latency_three_cycles_per_hop(self):
        mesh = build_mesh(cores=64)
        # One hop = router (2) + link (1) = 3 cycles, plus destination pipeline.
        latency = mesh.zero_load_latency(0, 1, flits=1)
        assert latency == pytest.approx(3 + 2)

    def test_fbfly_two_hop_routing(self):
        fbfly = build_flattened_butterfly(cores=64)
        for source, destination in ((0, 63), (5, 58), (7, 56)):
            assert len(fbfly.route(source, destination)) - 1 <= 2

    def test_fbfly_lower_average_hops_than_mesh(self):
        assert build_flattened_butterfly(64).average_hop_count() < build_mesh(64).average_hop_count()

    def test_nocout_structure(self):
        nocout = build_nocout(cores=64, llc_tiles=8)
        assert len(nocout.core_nodes) == 64
        assert len(nocout.llc_nodes) == 8
        assert set(nocout.core_nodes).isdisjoint(nocout.llc_nodes)

    def test_nocout_core_traffic_goes_through_llc(self):
        nocout = build_nocout(cores=64, llc_tiles=8)
        # Core-to-core routes must pass through the LLC region (no direct links).
        path = nocout.route(nocout.core_nodes[0], nocout.core_nodes[1])
        assert any(node in nocout.llc_nodes for node in path[1:-1]) or len(path) == 2

    def test_nocout_requires_divisible_cores(self):
        with pytest.raises(ValueError):
            build_nocout(cores=60, llc_tiles=8)

    @pytest.mark.parametrize("cores,llc_tiles", [(64, 8), (32, 8), (16, 4), (64, 4), (8, 8)])
    def test_nocout_tree_route_is_the_weighted_shortest_path(self, cores, llc_tiles):
        """The closed-form tree route against networkx on every ordered pair."""
        nocout = build_nocout(cores=cores, llc_tiles=llc_tiles)
        graph = weighted_digraph(nocout)
        for source in nocout.successors:
            for destination in nocout.successors:
                assert nocout.route(source, destination) == shortest_route(
                    graph, source, destination
                ), (source, destination)

    def test_topology_without_routes_is_rejected(self):
        mesh = build_mesh(cores=16)
        with pytest.raises(ValueError, match="routing"):
            NocTopology(
                name="mesh",
                successors=mesh.successors,
                core_nodes=mesh.core_nodes,
                llc_nodes=mesh.llc_nodes,
                router_pipeline_cycles=mesh.router_pipeline_cycles,
                positions=mesh.positions,
                routing=None,
            )

    @given(st.sampled_from([16, 32, 64]))
    def test_routes_are_connected_paths(self, cores):
        mesh = build_mesh(cores=cores)
        path = mesh.route(0, cores - 1)
        for a, b in zip(path[:-1], path[1:]):
            assert b in mesh.successors[a]


def _web_search_traffic(topology, duration_cycles, seed=2):
    workload = get_workload("Web Search")
    return generate_bilateral_batch(
        core_nodes=topology.core_nodes,
        llc_nodes=topology.llc_nodes,
        injection_rate=bilateral_injection_rate(workload, per_core_ipc=0.5),
        snoop_fraction=workload.snoop_fraction,
        seed=seed,
        duration_cycles=duration_cycles,
    )


class TestNocNetwork:
    def test_zero_load_single_packet(self):
        mesh = build_mesh(cores=16)
        network = NocNetwork(mesh)
        result = network.run_batch(rows_batch((0, 15, MessageClass.DATA_REQUEST, 0.0)))
        assert result.arrival_time[0] == pytest.approx(mesh.zero_load_latency(0, 15, flits=1))
        assert result.latency[0] > 0
        assert network.average_hops() == len(mesh.route(0, 15)) - 1

    def test_contention_delays_second_packet(self):
        mesh = build_mesh(cores=16)
        network = NocNetwork(mesh)
        result = network.run_batch(
            rows_batch((0, 3, MessageClass.RESPONSE, 0.0), (0, 3, MessageClass.RESPONSE, 0.0))
        )
        assert result.latency[1] > result.latency[0]

    def test_response_longer_than_request(self):
        config = NocConfig(link_width_bits=128)
        assert config.flits_for(MessageClass.RESPONSE) > config.flits_for(MessageClass.DATA_REQUEST)
        narrow = NocConfig(link_width_bits=32)
        assert narrow.flits_for(MessageClass.RESPONSE) > config.flits_for(MessageClass.RESPONSE)

    def test_stats_before_any_delivery_are_zero(self):
        network = NocNetwork(build_mesh(cores=16))
        network.run_batch(rows_batch())
        assert network.average_latency() == 0.0
        assert network.average_hops() == 0.0
        assert network.average_latency_by_class() == {}
        assert network.total_flit_hops() == 0

    def test_delivery_order_is_injection_time(self):
        mesh = build_mesh(cores=16)
        network = NocNetwork(mesh)
        result = network.run_batch(
            rows_batch((0, 5, MessageClass.DATA_REQUEST, 10.0), (1, 5, MessageClass.DATA_REQUEST, 0.0))
        )
        assert result.order.tolist() == [1, 0]
        assert len(result) == 2
        assert network.total_flit_hops() > 0


class TestTraffic:
    def test_bilateral_traffic_shape(self):
        mesh = build_mesh(cores=16)
        batch = _web_search_traffic(mesh, 2000)
        requests = batch.class_code == CLASS_CODES[MessageClass.DATA_REQUEST]
        responses = batch.class_code == CLASS_CODES[MessageClass.RESPONSE]
        snoops = batch.class_code == CLASS_CODES[MessageClass.SNOOP_REQUEST]
        assert requests.sum() == responses.sum() > 0
        assert snoops.sum() <= requests.sum() * 0.1
        assert requests.sum() + responses.sum() + snoops.sum() == len(batch)
        # Requests originate at cores and target LLC nodes.
        assert set(batch.source[requests].tolist()) <= set(mesh.core_nodes)
        assert set(batch.destination[requests].tolist()) <= set(mesh.llc_nodes)

    def test_injection_rate_tracks_workload(self):
        heavy = bilateral_injection_rate(get_workload("Data Serving"), per_core_ipc=0.5)
        light = bilateral_injection_rate(get_workload("SAT Solver"), per_core_ipc=0.5)
        assert heavy > light

    def test_invalid_arguments(self):
        mesh = build_mesh(cores=16)
        with pytest.raises(ValueError, match="^per_core_ipc"):
            bilateral_injection_rate(get_workload("Web Search"), per_core_ipc=0)
        with pytest.raises(ValueError, match="^duration_cycles"):
            _web_search_traffic(mesh, 0)


class TestAreaAndPower:
    def test_figure_4_7_area_ordering(self):
        model = NocAreaModel()
        mesh = model.breakdown(build_mesh(64)).total_mm2
        fbfly = model.breakdown(build_flattened_butterfly(64)).total_mm2
        nocout = model.breakdown(build_nocout(64)).total_mm2
        # Paper: NOC-Out ~2.5 mm^2, mesh ~3.5 mm^2, flattened butterfly ~23 mm^2.
        assert nocout < mesh < fbfly
        assert fbfly > 6 * nocout
        assert 1.5 < nocout < 4.5
        assert 2.0 < mesh < 6.0

    def test_breakdown_components_positive(self):
        breakdown = NocAreaModel().breakdown(build_mesh(64))
        as_dict = breakdown.as_dict()
        assert all(v > 0 for k, v in as_dict.items())
        assert as_dict["total"] == pytest.approx(
            as_dict["links"] + as_dict["buffers"] + as_dict["crossbars"]
        )

    def test_width_for_area_budget(self):
        model = NocAreaModel()
        nocout_area = model.breakdown(build_nocout(64)).total_mm2
        width = model.width_for_area_budget(build_flattened_butterfly(64), nocout_area)
        assert width < 128
        with pytest.raises(ValueError):
            model.width_for_area_budget(build_mesh(64), 0.0)


class TestPodNocStudy:
    @pytest.fixture(scope="class")
    def study(self):
        suite = WorkloadSuite((get_workload("Web Search"), get_workload("Media Streaming")))
        return PodNocStudy(duration_cycles=1500, suite=suite, seed=2)

    def test_figure_4_6_shape(self, study):
        normalized = study.normalized_performance(study.evaluate())
        fbfly = statistics.geometric_mean(list(normalized["fbfly"].values()))
        nocout = statistics.geometric_mean(list(normalized["nocout"].values()))
        # Paper: both beat the mesh by ~20%, and NOC-Out matches the fbfly.
        assert fbfly > 1.05
        assert nocout > 1.05
        assert abs(fbfly - nocout) < 0.25

    def test_media_streaming_uses_16_cores(self, study):
        assert study.active_cores_for(get_workload("Media Streaming")) == 16
        assert study.active_cores_for(get_workload("Web Search")) == 32

    def test_area_normalized_widths(self, study):
        widths = study.area_normalized_widths()
        assert widths["nocout"] == 128
        assert widths["fbfly"] < 128

    def test_figure_4_8_fbfly_collapses(self, study):
        widths = study.area_normalized_widths()
        fixed = study.normalized_performance(study.evaluate(link_width_bits_by_topology=widths))
        full = study.normalized_performance(study.evaluate())
        fbfly_fixed = statistics.geometric_mean(list(fixed["fbfly"].values()))
        fbfly_full = statistics.geometric_mean(list(full["fbfly"].values()))
        assert fbfly_fixed < fbfly_full
