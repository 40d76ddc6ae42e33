"""Tests for the Pod and ScaleOutChip abstractions."""

import pytest

from repro.core.chip import ScaleOutChip
from repro.core.pod import Pod
from repro.perfmodel.analytic import AnalyticPerformanceModel
from repro.technology.node import NODE_40NM
from repro.workloads.suite import WorkloadSuite
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def model():
    return AnalyticPerformanceModel()


@pytest.fixture(scope="module")
def small_suite():
    return WorkloadSuite((get_workload("Web Search"), get_workload("Data Serving")))


class TestPod:
    def test_paper_ooo_pod_physicals(self):
        # Section 3.4.2: a 16-core / 4 MB OoO pod occupies ~92 mm^2 and draws ~20 W.
        pod = Pod(cores=16, core_type="ooo", llc_capacity_mb=4, interconnect="crossbar")
        assert pod.area_mm2 == pytest.approx(92.0, rel=0.05)
        assert pod.power_w == pytest.approx(20.0, rel=0.15)

    def test_paper_inorder_pod_physicals(self):
        # Section 3.4.3: a 32-core / 2 MB in-order pod occupies ~52 mm^2, ~17 W.
        pod = Pod(cores=32, core_type="inorder", llc_capacity_mb=2, interconnect="crossbar")
        assert pod.area_mm2 == pytest.approx(52.0, rel=0.06)
        assert pod.power_w == pytest.approx(17.0, rel=0.2)

    def test_area_budget_components(self):
        pod = Pod(cores=8, core_type="ooo", llc_capacity_mb=2)
        budget = pod.area_budget()
        assert budget.cores_mm2 == pytest.approx(8 * 4.5)
        assert budget.llc_mm2 == pytest.approx(10.0)
        assert budget.interconnect_mm2 > 0
        assert budget.total_mm2 == pytest.approx(pod.area_mm2)

    def test_performance_and_density(self, model, small_suite):
        pod = Pod(cores=16, core_type="ooo", llc_capacity_mb=4)
        perf = pod.performance(model, small_suite)
        assert perf > 8.0  # 16 cores at well under 1 IPC each would be broken
        assert pod.performance_density(model, small_suite) == pytest.approx(perf / pod.area_mm2)

    def test_bandwidth_demand_positive(self, model, small_suite):
        pod = Pod(cores=16, core_type="ooo", llc_capacity_mb=4)
        assert pod.bandwidth_demand_gbps(model, small_suite) > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Pod(cores=0)
        with pytest.raises(ValueError):
            Pod(cores=4, llc_capacity_mb=0)
        with pytest.raises(KeyError):
            Pod(cores=4, core_type="gpu")
        with pytest.raises(KeyError):
            Pod(cores=4, interconnect="torus")

    def test_scaled_multiplies_cores_and_llc(self):
        pod = Pod(cores=16, core_type="ooo", llc_capacity_mb=4)
        scaled = pod.scaled(2, 2.0)
        assert scaled.cores == 32 and scaled.llc_capacity_mb == 8.0

    def test_describe_mentions_key_parameters(self):
        pod = Pod(cores=16, core_type="ooo", llc_capacity_mb=4)
        text = pod.describe()
        assert "16" in text and "4" in text and "crossbar" in text


class TestScaleOutChip:
    def _pod(self) -> Pod:
        return Pod(cores=16, core_type="ooo", llc_capacity_mb=4, interconnect="crossbar")

    def test_totals(self):
        chip = ScaleOutChip(name="test", pod=self._pod(), num_pods=2, memory_channels=3)
        assert chip.total_cores == 32
        assert chip.total_llc_mb == 8.0
        assert chip.node is NODE_40NM

    def test_area_includes_interfaces_and_soc(self):
        chip = ScaleOutChip(name="test", pod=self._pod(), num_pods=2, memory_channels=3)
        assert chip.die_area_mm2 == pytest.approx(2 * self._pod().area_mm2 + 36.0 + 42.0, rel=0.01)

    def test_power_includes_interfaces_and_soc(self):
        chip = ScaleOutChip(name="test", pod=self._pod(), num_pods=2, memory_channels=3)
        expected = 2 * self._pod().power_w + 3 * 5.7 + 5.0
        assert chip.power_w == pytest.approx(expected, rel=0.01)

    def test_performance_scales_linearly_with_pods(self, model, small_suite):
        one = ScaleOutChip(name="one", pod=self._pod(), num_pods=1, memory_channels=2)
        two = ScaleOutChip(name="two", pod=self._pod(), num_pods=2, memory_channels=3)
        assert two.performance(model, small_suite) == pytest.approx(
            2 * one.performance(model, small_suite)
        )

    def test_cached_pod_performance_used(self, small_suite):
        chip = ScaleOutChip(name="c", pod=self._pod(), num_pods=2, memory_channels=3, pod_performance=10.0)
        assert chip.performance() == pytest.approx(20.0)

    def test_constraint_checks(self):
        chip = ScaleOutChip(name="c", pod=self._pod(), num_pods=2, memory_channels=3)
        assert chip.satisfies()
        huge = ScaleOutChip(name="huge", pod=self._pod(), num_pods=10, memory_channels=6)
        assert not huge.satisfies()
        assert huge.limiting_constraint() in ("area", "power", "bandwidth")

    def test_summary_keys(self, model, small_suite):
        chip = ScaleOutChip(name="c", pod=self._pod(), num_pods=2, memory_channels=3)
        summary = chip.summary(model, small_suite)
        for key in ("design", "cores", "llc_mb", "die_area_mm2", "power_w", "performance_density"):
            assert key in summary

    def test_validation(self):
        with pytest.raises(ValueError):
            ScaleOutChip(name="bad", pod=self._pod(), num_pods=0, memory_channels=1)
        with pytest.raises(ValueError):
            ScaleOutChip(name="bad", pod=self._pod(), num_pods=1, memory_channels=0)
        with pytest.raises(ValueError):
            ScaleOutChip(name="bad", pod=self._pod(), num_pods=1, memory_channels=1, num_dies=0)

    def test_multi_die_footprint_smaller(self):
        chip_2d = ScaleOutChip(name="2d", pod=self._pod(), num_pods=2, memory_channels=3)
        chip_3d = ScaleOutChip(name="3d", pod=self._pod(), num_pods=2, memory_channels=3, num_dies=2)
        assert chip_3d.die_area_mm2 < chip_2d.die_area_mm2
