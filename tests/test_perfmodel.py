"""Tests for the analytic performance model and performance density."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.perfmodel import (
    AnalyticPerformanceModel,
    AreaBudget,
    PerformanceEstimate,
    Pod,
    performance_density,
)
from repro.perfmodel.amat import CpiBreakdown, LlcAccessLatency
from repro.technology.node import NODE_20NM, NODE_40NM
from repro.workloads import default_suite, get_workload


@pytest.fixture(scope="module")
def model():
    return AnalyticPerformanceModel()


class TestCpiBreakdown:
    def test_total_and_ipc(self):
        cpi = CpiBreakdown(base=0.5, instruction_fetch=0.2, data_llc=0.2, memory=0.1)
        assert cpi.total == pytest.approx(1.0)
        assert cpi.ipc == pytest.approx(1.0)
        assert set(cpi.as_dict()) == {"base", "instruction_fetch", "data_llc", "memory", "total", "ipc"}

    def test_llc_latency_total(self):
        latency = LlcAccessLatency(bank_cycles=4, network_cycles=5, contention_cycles=1)
        assert latency.total_cycles == 10


class TestPodInputs:
    def test_default_banking_rules(self):
        assert Pod(cores=16, interconnect="crossbar").resolved_banks() == 4
        assert Pod(cores=16, interconnect="mesh").resolved_banks() == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            Pod(cores=0)
        with pytest.raises(ValueError):
            Pod(cores=1, llc_capacity_mb=0)
        with pytest.raises(ValueError):
            Pod(cores=1, effective_capacity_factor=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0, "4", None])
    @pytest.mark.parametrize(
        "field", ["llc_capacity_mb", "effective_capacity_factor", "offchip_traffic_factor"]
    )
    def test_rejects_non_finite_or_non_positive(self, field, value):
        # NaN passed the old ``<= 0`` checks: a NaN factor gave a NaN IPC and a
        # NaN or infinite capacity failed deep inside the LLC model.
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite") as caught:
            Pod(cores=2, **{field: value})
        assert "\n" not in str(caught.value)

    def test_effective_capacity(self):
        config = Pod(cores=4, llc_capacity_mb=8, effective_capacity_factor=0.5)
        assert config.effective_llc_capacity_mb == pytest.approx(4.0)


class TestEstimates:
    def test_estimate_fields(self, model):
        workload = get_workload("Web Search")
        config = Pod(cores=16, core_type="ooo", llc_capacity_mb=4)
        estimate = model.estimate(workload, config)
        assert isinstance(estimate, PerformanceEstimate)
        assert estimate.per_core_ipc > 0
        assert estimate.aggregate_ipc == pytest.approx(16 * estimate.per_core_ipc)
        assert estimate.offchip_bandwidth_gbps > 0
        assert estimate.llc_mpki > 0

    @pytest.mark.parametrize("workload_name", [w.name for w in default_suite()])
    def test_figure_2_1_ipc_ranges(self, model, workload_name):
        # Figure 2.1: only Media Streaming commits below 1 IPC on the aggressive
        # core; every workload commits at most ~2 IPC.
        workload = get_workload(workload_name)
        config = Pod(cores=4, core_type="conventional", llc_capacity_mb=4, interconnect="ideal")
        ipc = model.estimate(workload, config).per_core_ipc
        assert 0.5 < ipc < 2.0
        if workload_name == "Media Streaming":
            assert ipc < 1.0

    def test_figure_2_2_llc_sweep_shape(self, model):
        # Performance improves towards 4-16 MB and does not improve at 32 MB.
        suite = default_suite()
        def perf(llc):
            cfg = Pod(cores=4, core_type="ooo", llc_capacity_mb=llc, interconnect="crossbar")
            estimates = model.suite_estimates(cfg, suite).values()
            return sum(e.aggregate_ipc for e in estimates) / len(estimates)
        p1, p8, p32 = perf(1), perf(8), perf(32)
        assert p8 > p1
        assert p32 <= p8 * 1.02

    def test_figure_2_3_interconnect_gap_grows(self, model):
        suite = default_suite()
        def per_core(cores, interconnect):
            cfg = Pod(cores=cores, core_type="ooo", llc_capacity_mb=4, interconnect=interconnect)
            return model.average_per_core_ipc(cfg, suite)
        gap_small = per_core(16, "ideal") / per_core(16, "mesh")
        gap_large = per_core(256, "ideal") / per_core(256, "mesh")
        assert gap_large > gap_small
        assert gap_large > 1.1
        # Ideal-interconnect sharing degradation stays mild (Figure 2.3a).
        assert per_core(256, "ideal") > 0.7 * per_core(2, "ideal")

    def test_smaller_cache_means_more_offchip_traffic(self, model):
        workload = get_workload("MapReduce-C")
        small = model.estimate(workload, Pod(cores=16, llc_capacity_mb=1))
        large = model.estimate(workload, Pod(cores=16, llc_capacity_mb=16))
        assert small.offchip_bandwidth_gbps > large.offchip_bandwidth_gbps

    def test_instruction_replication_helps_mesh_designs(self, model):
        workload = get_workload("Web Frontend")
        base = Pod(cores=64, core_type="ooo", llc_capacity_mb=8, interconnect="mesh")
        with_ir = Pod(
            cores=64, core_type="ooo", llc_capacity_mb=8, interconnect="mesh",
            instruction_replication=True, effective_capacity_factor=0.85, offchip_traffic_factor=1.2,
        )
        assert model.estimate(workload, with_ir).per_core_ipc > model.estimate(workload, base).per_core_ipc

    def test_inorder_slower_than_ooo_slower_than_conventional(self, model):
        workload = get_workload("Data Serving")
        def ipc(core):
            return model.estimate(workload, Pod(cores=8, core_type=core, llc_capacity_mb=4)).per_core_ipc
        assert ipc("conventional") > ipc("ooo") > ipc("inorder")

    def test_suite_helpers(self, model):
        config = Pod(cores=8, core_type="ooo", llc_capacity_mb=4)
        estimates = model.suite_estimates(config)
        assert len(estimates) == 7
        assert model.worst_case_bandwidth_gbps(config) == pytest.approx(
            max(e.offchip_bandwidth_gbps for e in estimates.values())
        )

    @settings(max_examples=25, deadline=None)
    @given(
        cores=st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
        llc=st.sampled_from([1.0, 2.0, 4.0, 8.0, 16.0]),
        core_type=st.sampled_from(["conventional", "ooo", "inorder"]),
        interconnect=st.sampled_from(["ideal", "crossbar", "mesh"]),
    )
    def test_estimates_always_physical(self, cores, llc, core_type, interconnect):
        model = AnalyticPerformanceModel()
        workload = get_workload("Web Search")
        config = Pod(cores=cores, core_type=core_type, llc_capacity_mb=llc, interconnect=interconnect)
        estimate = model.estimate(workload, config)
        assert 0 < estimate.per_core_ipc <= 4.0
        assert estimate.cpi.total > 0
        assert estimate.llc_latency.total_cycles >= 4.0

    def test_memory_latency_uses_node_standard(self):
        workload = get_workload("Web Search")
        model = AnalyticPerformanceModel()
        cfg40 = Pod(cores=8, llc_capacity_mb=4, node=NODE_40NM)
        cfg20 = Pod(cores=8, llc_capacity_mb=4, node=NODE_20NM)
        # Both should produce sensible estimates; 20nm uses DDR4 timing.
        assert model.estimate(workload, cfg40).per_core_ipc > 0
        assert model.estimate(workload, cfg20).per_core_ipc > 0


class TestPerformanceDensity:
    def test_basic(self):
        assert performance_density(25.0, 250.0) == pytest.approx(0.1)
        assert performance_density(25.0, 250.0, num_dies=2) == pytest.approx(0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            performance_density(1.0, 0.0)
        with pytest.raises(ValueError):
            performance_density(-1.0, 10.0)
        with pytest.raises(ValueError):
            performance_density(1.0, 10.0, num_dies=0)

    def test_area_budget_arithmetic(self):
        a = AreaBudget(cores_mm2=10, llc_mm2=5)
        b = AreaBudget(interconnect_mm2=1, soc_misc_mm2=42)
        total = a + b
        assert total.total_mm2 == pytest.approx(58.0)
        assert a.scaled(2).cores_mm2 == pytest.approx(20.0)
        with pytest.raises(ValueError):
            AreaBudget(cores_mm2=-1)
        with pytest.raises(ValueError):
            a.scaled(-1)
