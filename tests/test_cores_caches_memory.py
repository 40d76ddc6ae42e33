"""Tests for core models, cache models, and the memory system."""

import pytest
from hypothesis import given, strategies as st

from repro.caches.bank import CacheBank
from repro.caches.nuca import NucaLLC
from repro.cores.models import CONVENTIONAL, CORE_TYPES, INORDER, OOO, core_model
from repro.memory.dram import DDR3_1667, DDR4_2133, DramChannel, channel_for_standard
from repro.memory.provisioning import channels_required, demand_gbps
from repro.technology.node import NODE_20NM, NODE_40NM
from repro.workloads import default_suite, get_workload


class TestCoreModels:
    def test_three_core_types(self):
        assert set(CORE_TYPES) == {"conventional", "ooo", "inorder"}

    def test_table_2_2_structure(self):
        assert CONVENTIONAL.issue_width == 4
        assert CONVENTIONAL.rob_entries == 128
        assert CONVENTIONAL.l1i_kb == 64
        assert OOO.issue_width == 3
        assert OOO.rob_entries == 60
        assert OOO.lsq_entries == 16
        assert INORDER.issue_width == 2
        assert not INORDER.out_of_order

    def test_areas_match_component_catalog(self):
        assert CONVENTIONAL.area_mm2(NODE_40NM) == pytest.approx(25.0)
        assert OOO.area_mm2(NODE_40NM) == pytest.approx(4.5)
        assert INORDER.area_mm2(NODE_40NM) == pytest.approx(1.3)
        assert OOO.power_w(NODE_40NM) == pytest.approx(1.0)

    def test_core_model_lookup(self):
        assert core_model("OoO") is OOO
        assert core_model("in-order") is INORDER
        assert core_model(CONVENTIONAL) is CONVENTIONAL
        with pytest.raises(KeyError):
            core_model("atom")

    def test_outstanding_misses_reflect_microarchitecture(self):
        assert OOO.max_outstanding_misses > INORDER.max_outstanding_misses
        assert CONVENTIONAL.max_outstanding_misses >= OOO.max_outstanding_misses


class TestCacheBank:
    def test_geometry(self):
        bank = CacheBank(capacity_mb=1.0)
        assert bank.num_lines == 1024 * 1024 // 64
        assert bank.num_sets == bank.num_lines // 16

    def test_latency_and_area_grow_with_capacity(self):
        small, big = CacheBank(0.5), CacheBank(8.0)
        assert big.access_latency_cycles >= small.access_latency_cycles
        assert big.area_mm2 > small.area_mm2
        assert big.power_w > small.power_w

    def test_validation(self):
        with pytest.raises(ValueError):
            CacheBank(capacity_mb=0)
        with pytest.raises(ValueError):
            CacheBank(capacity_mb=1, associativity=0)


class TestNucaLLC:
    def test_dancehall_banking_rule(self):
        assert NucaLLC.banks_for_cores(16) == 4
        assert NucaLLC.banks_for_cores(3) == 1

    def test_area_is_sum_of_banks(self):
        llc = NucaLLC(total_capacity_mb=8.0, num_banks=8)
        assert llc.area_mm2 == pytest.approx(8 * llc.bank().area_mm2)

    def test_contention_model(self):
        llc = NucaLLC(total_capacity_mb=4.0, num_banks=4)
        assert llc.queueing_delay_cycles(0.0) == 0.0
        assert llc.queueing_delay_cycles(4.0) > llc.queueing_delay_cycles(0.5)
        assert llc.bank_utilization(100.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            NucaLLC(total_capacity_mb=0, num_banks=1)
        with pytest.raises(ValueError):
            NucaLLC(total_capacity_mb=1, num_banks=0)
        with pytest.raises(ValueError):
            NucaLLC.banks_for_cores(0)

    @given(st.integers(min_value=1, max_value=512))
    def test_banks_never_exceed_cores(self, cores):
        assert 1 <= NucaLLC.banks_for_cores(cores) <= cores


class TestDram:
    def test_paper_channel_parameters(self):
        assert DDR3_1667.peak_bandwidth_gbps == pytest.approx(12.8)
        assert DDR3_1667.useful_bandwidth_gbps == pytest.approx(9.0, rel=0.01)
        assert DDR3_1667.power_w == pytest.approx(5.7)
        assert DDR4_2133.peak_bandwidth_gbps == pytest.approx(2 * 12.8)

    def test_access_latency_45ns(self):
        assert DDR3_1667.access_latency_cycles(NODE_40NM) == 90

    def test_channel_for_standard(self):
        assert channel_for_standard("DDR3") is DDR3_1667
        assert channel_for_standard("ddr4-2133") is DDR4_2133
        with pytest.raises(KeyError):
            channel_for_standard("HBM")

    def test_queueing_grows_with_demand(self):
        low = DDR3_1667.queueing_delay_cycles(1.0, NODE_40NM)
        high = DDR3_1667.queueing_delay_cycles(8.5, NODE_40NM)
        assert high > low >= 0

    def test_validation(self):
        with pytest.raises(ValueError):
            DramChannel(peak_bandwidth_gbps=0)
        with pytest.raises(ValueError):
            DramChannel(peak_bandwidth_gbps=10, effective_utilization=1.5)


class TestProvisioning:
    def test_channels_required(self):
        assert channels_required(0.0, DDR3_1667) == 1
        assert channels_required(8.9, DDR3_1667) == 1
        assert channels_required(9.1, DDR3_1667) == 2
        assert channels_required(44.0, DDR3_1667) == 5
        with pytest.raises(ValueError):
            channels_required(-1.0, DDR3_1667)

    def test_demand_scales_with_cores_and_ipc(self):
        workload = get_workload("Web Search")
        base = demand_gbps(workload, 16, 4.0, 0.8, NODE_40NM)
        # Twice the cores demand at least twice the bandwidth (capacity sharing
        # adds a little more on top).
        doubled = demand_gbps(workload, 32, 4.0, 0.8, NODE_40NM)
        assert 2 * base <= doubled <= 2.6 * base
        assert demand_gbps(workload, 16, 4.0, 1.6, NODE_40NM) == pytest.approx(2 * base)

    def test_pod_level_demand_in_paper_range(self):
        # The paper reports ~9.4 GB/s for a 16-core OoO pod with a 4 MB LLC; the
        # reproduction should land within a factor of ~2 of that figure.
        worst = max(demand_gbps(w, 16, 4.0, 0.8, NODE_40NM) for w in default_suite())
        assert 5.0 < worst < 25.0
