"""Tests for the technology substrate: nodes, SRAM model, wires, components."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.technology.cacti import SramModel
from repro.technology.components import ComponentCatalog
from repro.technology.node import (
    NODE_20NM,
    NODE_32NM,
    NODE_40NM,
    ChipConstraints,
    get_node,
    scale_area,
    scale_power,
)
from repro.technology.wires import WireModel


class TestTechnologyNode:
    def test_known_nodes_lookup(self):
        assert get_node("40nm") is NODE_40NM
        assert get_node(32) is NODE_32NM
        assert get_node("20nm") is NODE_20NM

    def test_unknown_node_raises(self):
        with pytest.raises(KeyError, match="available: 90nm, .*7nm"):
            get_node("5nm")

    def test_baseline_constraints_match_paper(self):
        assert NODE_40NM.constraints.max_power_w == pytest.approx(95.0)
        assert NODE_40NM.constraints.max_memory_channels == 6
        assert 250.0 <= NODE_40NM.constraints.max_area_mm2 <= 280.0

    def test_memory_standard_per_node(self):
        assert NODE_40NM.memory_standard == "DDR3"
        assert NODE_20NM.memory_standard == "DDR4"

    def test_cycles_for_ns(self):
        assert NODE_40NM.cycles_for_ns(45.0) == pytest.approx(90.0)

    def test_wire_delay_cycles_monotonic(self):
        assert NODE_40NM.wire_delay_cycles(2.0) > NODE_40NM.wire_delay_cycles(1.0)
        assert NODE_40NM.wire_delay_cycles(0.0) == 0.0

    def test_wire_delay_negative_rejected(self):
        with pytest.raises(ValueError):
            NODE_40NM.wire_delay_cycles(-1.0)

    def test_area_scaling_perfect_for_logic(self):
        assert scale_area(100.0, NODE_20NM) == pytest.approx(25.0)
        assert scale_area(100.0, NODE_40NM) == pytest.approx(100.0)

    def test_analog_area_does_not_scale(self):
        assert scale_area(12.0, NODE_20NM, analog=True) == pytest.approx(12.0)

    def test_power_scaling(self):
        assert scale_power(10.0, NODE_20NM) < 10.0
        assert scale_power(10.0, NODE_20NM, analog=True) == pytest.approx(10.0)

    def test_constraints_validation(self):
        with pytest.raises(ValueError):
            ChipConstraints(max_area_mm2=-1, max_power_w=95, max_memory_channels=6)
        with pytest.raises(ValueError):
            ChipConstraints(max_area_mm2=280, max_power_w=0, max_memory_channels=6)
        with pytest.raises(ValueError):
            ChipConstraints(max_area_mm2=280, max_power_w=95, max_memory_channels=0)


class TestSramModel:
    def test_area_matches_paper_per_mb(self):
        model = SramModel(NODE_40NM)
        # Table 2.1: 5 mm^2 per MB at 40nm (within the peripheral overhead).
        assert model.area_mm2(1.0) == pytest.approx(5.75, rel=0.2)
        assert model.area_mm2(8.0) == pytest.approx(8 * 5.0, rel=0.15)

    def test_power_matches_paper_per_mb(self):
        model = SramModel(NODE_40NM)
        assert model.power_w(4.0) == pytest.approx(4.0, rel=0.05)

    def test_latency_grows_with_capacity(self):
        model = SramModel(NODE_40NM)
        latencies = [model.access_latency_cycles(c) for c in (0.5, 1, 4, 16, 64)]
        assert latencies == sorted(latencies)
        assert latencies[0] >= 1

    def test_area_scales_with_node(self):
        assert SramModel(NODE_20NM).area_mm2(4.0) < SramModel(NODE_40NM).area_mm2(4.0)

    def test_invalid_inputs(self):
        model = SramModel(NODE_40NM)
        with pytest.raises(ValueError):
            model.area_mm2(0)
        with pytest.raises(ValueError):
            model.power_w(-1)
        with pytest.raises(ValueError):
            SramModel(NODE_40NM, associativity=0)
        with pytest.raises(ValueError):
            SramModel(NODE_40NM, line_bytes=48)

    @given(st.floats(min_value=0.25, max_value=64.0))
    def test_estimate_fields_consistent(self, capacity):
        estimate = SramModel(NODE_40NM).estimate(capacity)
        assert estimate.capacity_mb == capacity
        assert estimate.area_mm2 > 0
        assert estimate.access_latency_cycles >= 1
        assert estimate.leakage_w > 0

    @given(st.floats(min_value=0.25, max_value=32.0), st.floats(min_value=1.05, max_value=4.0))
    def test_bigger_caches_are_bigger_and_slower(self, capacity, factor):
        model = SramModel(NODE_40NM)
        assert model.area_mm2(capacity * factor) > model.area_mm2(capacity)
        assert model.access_latency_cycles(capacity * factor) >= model.access_latency_cycles(capacity)


class TestWireModel:
    def test_paper_wire_delay(self):
        wires = WireModel(NODE_32NM)
        # 125 ps/mm at 2 GHz -> 4 mm in one cycle.
        assert wires.reach_per_cycle_mm() == pytest.approx(4.0)

    def test_repeater_area_scales(self):
        wires = WireModel(NODE_32NM)
        assert wires.repeater_area_mm2(2.0, 128) == pytest.approx(
            2 * wires.repeater_area_mm2(1.0, 128)
        )

    def test_invalid_inputs(self):
        wires = WireModel(NODE_40NM)
        with pytest.raises(ValueError):
            wires.repeater_area_mm2(1.0, -5)


class TestComponentCatalog:
    def test_table_2_1_values_at_40nm(self):
        catalog = ComponentCatalog(NODE_40NM)
        assert catalog.conventional_core.area_mm2 == pytest.approx(25.0)
        assert catalog.conventional_core.power_w == pytest.approx(11.0)
        assert catalog.ooo_core.area_mm2 == pytest.approx(4.5)
        assert catalog.inorder_core.area_mm2 == pytest.approx(1.3)
        assert catalog.llc_per_mb.area_mm2 == pytest.approx(5.0)
        assert catalog.memory_interface.area_mm2 == pytest.approx(12.0)
        assert catalog.memory_interface.power_w == pytest.approx(5.7)
        assert catalog.soc_misc.area_mm2 == pytest.approx(42.0)

    def test_core_lookup_aliases(self):
        catalog = ComponentCatalog(NODE_40NM)
        assert catalog.core("conv") is catalog.conventional_core
        assert catalog.core("out-of-order") is catalog.ooo_core
        assert catalog.core("IO") is catalog.inorder_core
        with pytest.raises(KeyError):
            catalog.core("gpu")

    def test_llc_area_and_power_linear(self):
        catalog = ComponentCatalog(NODE_40NM)
        assert catalog.llc_area_mm2(8.0) == pytest.approx(40.0)
        assert catalog.llc_power_w(8.0) == pytest.approx(8.0)
        with pytest.raises(ValueError):
            catalog.llc_area_mm2(-1)

    def test_memory_interfaces(self):
        catalog = ComponentCatalog(NODE_40NM)
        assert catalog.memory_interface_area_mm2(3) == pytest.approx(36.0)
        assert catalog.memory_interface_power_w(3) == pytest.approx(17.1)

    def test_cores_shrink_at_20nm_but_interfaces_do_not(self):
        catalog = ComponentCatalog(NODE_20NM)
        assert catalog.ooo_core.area_mm2 == pytest.approx(4.5 * 0.25)
        assert catalog.memory_interface.area_mm2 == pytest.approx(12.0)

    def test_ddr4_selected_at_20nm(self):
        assert ComponentCatalog(NODE_20NM).memory_interface.name == "ddr4_interface"
