"""Tests for the Pod and ScaleOutChip abstractions."""

import math

import pytest

from repro.core.chip import ScaleOutChip
from repro.core.composer import PodEvaluation, compose_chip
from repro.memory.dram import DDR3_1667
from repro.perfmodel.analytic import AnalyticPerformanceModel, Pod
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

    def test_performance(self, model, small_suite):
        pod = Pod(cores=16, core_type="ooo", llc_capacity_mb=4)
        perf = PodEvaluation.of(pod, model, small_suite).performance
        assert perf > 8.0  # 16 cores at well under 1 IPC each would be broken

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

    def _chip(self, **fields) -> ScaleOutChip:
        fields = {"name": "test", "pod": self._pod(), "pod_performance": 10.0,
                  "num_pods": 2, "memory_channels": 3, **fields}
        return ScaleOutChip(**fields)

    def test_totals(self):
        chip = self._chip()
        assert chip.total_cores == 32
        assert chip.total_llc_mb == 8.0
        assert chip.node is NODE_40NM

    def test_area_includes_interfaces_and_soc(self):
        chip = self._chip()
        assert chip.die_area_mm2 == pytest.approx(2 * self._pod().area_mm2 + 36.0 + 42.0, rel=0.01)

    def test_power_includes_interfaces_and_soc(self):
        chip = self._chip()
        expected = 2 * self._pod().power_w + 3 * 5.7 + 5.0
        assert chip.power_w == pytest.approx(expected, rel=0.01)

    def test_composed_performance_scales_linearly_with_pods(self, model, small_suite):
        evaluation = PodEvaluation.of(self._pod(), model, small_suite)
        one = compose_chip(evaluation, 1, DDR3_1667, "one")
        two = compose_chip(evaluation, 2, DDR3_1667, "two")
        assert one.performance() == evaluation.performance
        assert two.performance() == pytest.approx(2 * one.performance())

    def test_performance_is_pod_performance_per_pod(self):
        assert self._chip().performance() == pytest.approx(20.0)

    def test_constraint_checks(self):
        chip = self._chip()
        assert chip.satisfies()
        huge = self._chip(name="huge", num_pods=10, memory_channels=6)
        assert not huge.satisfies()
        assert huge.limiting_constraint() in ("area", "power", "bandwidth")

    def test_summary_keys(self):
        summary = self._chip().summary()
        for key in ("design", "cores", "llc_mb", "die_area_mm2", "power_w", "performance_density"):
            assert key in summary
        assert summary["performance"] == 20.0

    def test_multi_die_footprint_smaller(self):
        chip_2d = self._chip(name="2d")
        chip_3d = self._chip(name="3d", num_dies=2)
        assert chip_3d.die_area_mm2 < chip_2d.die_area_mm2


def _with_count(field, value):
    if field == "cores":
        return Pod(cores=value)
    return ScaleOutChip(name="bad", pod=Pod(cores=4), pod_performance=1.0, **{field: value})


@pytest.mark.parametrize("value", [1.5, math.nan, True, 0, -1])
@pytest.mark.parametrize("field", ["cores", "num_pods", "memory_channels", "num_dies"])
def test_counts_must_be_integers_of_at_least_one(field, value):
    # 1.5 once built a 1.5-core pod, True a one-core pod, and NaN died with
    # "cannot convert float NaN to integer" far from the input.
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1, got ") as caught:
        _with_count(field, value)
    assert "\n" not in str(caught.value)
