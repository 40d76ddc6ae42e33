"""Tests for the TCO models and the datacenter study (Chapter 5)."""

import pytest

from repro.core.designs import build_conventional, build_scale_out, build_single_pod, build_tiled
from repro.core.pod import Pod
from repro.core.chip import ScaleOutChip
from repro.tco.datacenter import DatacenterDesign
from repro.tco.model import TcoModel
from repro.tco.params import DEFAULT_TCO_PARAMETERS, TcoParameters
from repro.tco.pricing import ChipPricingModel, KNOWN_MARKET_PRICES
from repro.tco.server import ServerConfig, ServerDesign
from repro.technology.node import NODE_40NM
from repro.workloads import WorkloadSuite, get_workload


@pytest.fixture(scope="module")
def small_suite():
    return WorkloadSuite((get_workload("Web Search"), get_workload("Data Serving")))


@pytest.fixture(scope="module")
def chips(small_suite):
    return {
        "conventional": build_conventional(NODE_40NM, suite=small_suite),
        "scale_out_ooo": build_scale_out("ooo", NODE_40NM, suite=small_suite),
        "single_pod_ooo": build_single_pod("ooo", NODE_40NM, suite=small_suite),
        "tiled_ooo": build_tiled("ooo", NODE_40NM, suite=small_suite),
    }


class TestTcoParameters:
    def test_table_5_2_defaults(self):
        p = DEFAULT_TCO_PARAMETERS
        assert p.infrastructure_cost_per_m2 == 3000.0
        assert p.cooling_power_equipment_cost_per_w == 12.5
        assert p.pue == pytest.approx(1.3)
        assert p.spue == pytest.approx(1.3)
        assert p.dram_cost_per_gb == 25.0
        assert p.rack_units == 42
        assert p.rack_area_m2 == pytest.approx(0.6 * 2.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            TcoParameters(rack_power_limit_w=0)
        with pytest.raises(ValueError):
            TcoParameters(pue=0.8)


class TestPricing:
    def test_known_price_used_for_conventional(self):
        pricing = ChipPricingModel()
        assert pricing.price("Conventional", 276.0) == KNOWN_MARKET_PRICES["Conventional"]

    def test_large_die_costs_modestly_more(self):
        # Section 5.2.2: doubling the die adds only ~15% (about $50) at 200K units.
        pricing = ChipPricingModel()
        small = pricing.price("1Pod (OoO)", 140.0)
        large = pricing.price("Scale-Out (OoO)", 260.0)
        assert large > small
        assert (large - small) / small < 0.35

    def test_price_falls_with_volume(self):
        pricing = ChipPricingModel()
        volumes = (40_000, 100_000, 200_000, 500_000, 1_000_000)
        prices = [pricing.estimate("Scale-Out (OoO)", 260.0, v).unit_price for v in volumes]
        assert all(a >= b for a, b in zip(prices[:-1], prices[1:]))

    def test_price_in_paper_band_at_200k(self):
        pricing = ChipPricingModel()
        assert 250.0 < pricing.price("Scale-Out (OoO)", 260.0) < 550.0
        assert 200.0 < pricing.price("1Pod (OoO)", 150.0) < 450.0

    def test_yield_and_dies_per_wafer(self):
        pricing = ChipPricingModel()
        assert pricing.die_yield(100.0) > pricing.die_yield(300.0)
        assert pricing.dies_per_wafer(100.0) > pricing.dies_per_wafer(300.0)
        with pytest.raises(ValueError):
            pricing.dies_per_wafer(0.0)
        with pytest.raises(ValueError):
            pricing.estimate("x", 100.0, volume_units=0)


class TestServerDesign:
    def _server(self, chip, performance=20.0, memory_gb=64):
        return ServerDesign(
            chip=chip, chip_performance=performance, config=ServerConfig(memory_gb=memory_gb)
        )

    def test_low_power_chips_get_more_sockets(self, chips):
        low_power = self._server(chips["single_pod_ooo"])
        high_power = self._server(chips["conventional"])
        assert low_power.sockets >= high_power.sockets
        assert high_power.sockets >= 1

    def test_more_memory_means_fewer_processor_watts(self, chips):
        small = self._server(chips["scale_out_ooo"], memory_gb=32)
        large = self._server(chips["scale_out_ooo"], memory_gb=128)
        assert large.non_processor_power_w > small.non_processor_power_w
        assert large.sockets <= small.sockets

    def test_server_power_includes_spue(self, chips):
        server = self._server(chips["scale_out_ooo"])
        it_power = server.non_processor_power_w + server.sockets * chips["scale_out_ooo"].power_w
        assert server.server_power_w == pytest.approx(it_power * 1.3)

    def test_servers_per_rack_bounded(self, chips):
        server = self._server(chips["conventional"])
        assert 1 <= server.servers_per_rack() <= 42

    def test_hardware_cost_components(self, chips):
        server = self._server(chips["scale_out_ooo"])
        cost = server.hardware_cost(processor_price=370.0)
        assert cost > 64 * 25 + 330 + 2 * 180

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServerConfig(memory_gb=0)


class TestTcoModel:
    def test_breakdown_positive_and_sums(self, chips):
        server = ServerDesign(chip=chips["scale_out_ooo"], chip_performance=20.0)
        breakdown = TcoModel().monthly_tco(server, num_servers=1000, num_racks=30, processor_price=370.0)
        as_dict = breakdown.as_dict()
        assert all(v > 0 for v in as_dict.values())
        assert as_dict["total"] == pytest.approx(
            breakdown.infrastructure + breakdown.hardware + breakdown.power + breakdown.maintenance
        )

    def test_hardware_and_power_dominate(self, chips):
        # Section 5.1: server acquisition and power are the two largest categories.
        server = ServerDesign(chip=chips["scale_out_ooo"], chip_performance=20.0)
        b = TcoModel().monthly_tco(server, num_servers=5000, num_racks=150, processor_price=370.0)
        assert b.hardware > b.maintenance
        assert b.hardware + b.power > b.infrastructure

    def test_invalid_counts(self, chips):
        server = ServerDesign(chip=chips["scale_out_ooo"], chip_performance=20.0)
        with pytest.raises(ValueError):
            TcoModel().monthly_tco(server, 0, 1, 100.0)


class TestDatacenter:
    def test_evaluate_fields(self, chips, small_suite):
        result = DatacenterDesign(suite=small_suite).evaluate(chips["scale_out_ooo"])
        assert result.racks > 100
        assert result.servers == result.racks * result.servers_per_rack
        assert result.performance > 0
        assert result.monthly_tco > 0
        assert result.performance_per_tco > 0
        assert result.performance_per_watt > 0
        assert result.total_power_w <= 20_000_000 * 1.35

    def test_figure_5_1_scale_out_beats_conventional(self, chips, small_suite):
        datacenter = DatacenterDesign(suite=small_suite)
        comparison = datacenter.compare(
            [chips["conventional"], chips["tiled_ooo"], chips["scale_out_ooo"]]
        )
        assert comparison["Scale-Out (OoO)"]["performance"] > 2.5
        assert comparison["Tiled (OoO)"]["performance"] > 1.5
        assert comparison["Conventional"]["performance"] == pytest.approx(1.0)

    def test_figure_5_2_tco_differences_modest(self, chips, small_suite):
        # Chapter 5: TCO differences across designs are far smaller than
        # performance differences.
        datacenter = DatacenterDesign(suite=small_suite)
        comparison = datacenter.compare([chips["conventional"], chips["scale_out_ooo"]])
        assert 0.6 < comparison["Scale-Out (OoO)"]["tco"] < 1.4

    def test_figure_5_3_memory_capacity_trend(self, chips, small_suite):
        # More memory per server lowers performance/TCO (Section 5.3.2).
        datacenter = DatacenterDesign(suite=small_suite)
        small = datacenter.evaluate(chips["scale_out_ooo"], memory_gb=32)
        large = datacenter.evaluate(chips["scale_out_ooo"], memory_gb=128)
        assert small.performance_per_tco > large.performance_per_tco

    def test_figure_5_5_price_sensitivity_smaller_for_big_chips(self, chips, small_suite):
        # Small dies need more sockets per server, so their TCO reacts more to price.
        datacenter = DatacenterDesign(suite=small_suite)
        small_chip = chips["single_pod_ooo"]
        big_chip = chips["scale_out_ooo"]
        def sensitivity(chip):
            cheap = datacenter.evaluate(chip, processor_price=200.0).performance_per_tco
            pricey = datacenter.evaluate(chip, processor_price=800.0).performance_per_tco
            return cheap / pricey
        assert sensitivity(small_chip) >= sensitivity(big_chip) * 0.95
