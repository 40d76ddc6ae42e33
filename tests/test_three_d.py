"""Tests for the 3D stacking strategies and design study (Chapter 6)."""

import pytest

from repro.perfmodel.analytic import AnalyticPerformanceModel, Pod
from repro.three_d.designer import CONSTRAINTS_3D, ThreeDDesignStudy
from repro.three_d.stacking import (
    StackedPod,
    StackingStrategy,
    stack_fixed_distance,
    stack_fixed_pod,
)
from repro.workloads import WorkloadSuite, get_workload


@pytest.fixture(scope="module")
def suite():
    return WorkloadSuite((get_workload("Web Search"), get_workload("MapReduce-C")))


@pytest.fixture(scope="module")
def model():
    return AnalyticPerformanceModel()


@pytest.fixture(scope="module")
def base_pod():
    return Pod(cores=16, core_type="ooo", llc_capacity_mb=2, interconnect="crossbar")


class TestStackedPod:
    def test_fixed_pod_keeps_resources(self, base_pod):
        stacked = stack_fixed_pod(base_pod, 4)
        assert stacked.cores == base_pod.cores
        assert stacked.llc_capacity_mb == base_pod.llc_capacity_mb
        assert stacked.footprint_mm2 == pytest.approx(base_pod.area_mm2 / 4)

    def test_fixed_distance_scales_resources(self, base_pod):
        stacked = stack_fixed_distance(base_pod, 4)
        assert stacked.cores == 4 * base_pod.cores
        assert stacked.llc_capacity_mb == pytest.approx(4 * base_pod.llc_capacity_mb)
        assert stacked.footprint_mm2 == pytest.approx(base_pod.area_mm2)

    def test_single_die_equivalent_for_both_strategies(self, base_pod, model, suite):
        fixed = stack_fixed_pod(base_pod, 1)
        distance = stack_fixed_distance(base_pod, 1)
        assert fixed.performance(model, suite) == pytest.approx(distance.performance(model, suite))
        assert fixed.footprint_mm2 == pytest.approx(distance.footprint_mm2)

    def test_fixed_pod_latency_shrinks_with_dies(self, base_pod, model):
        one = stack_fixed_pod(base_pod, 1).network_latency_cycles(model)
        four = stack_fixed_pod(base_pod, 4).network_latency_cycles(model)
        assert four <= one
        assert four >= 4.0

    def test_fixed_distance_latency_constant(self, base_pod, model):
        one = stack_fixed_distance(base_pod, 1).network_latency_cycles(model)
        four = stack_fixed_distance(base_pod, 4).network_latency_cycles(model)
        assert four == pytest.approx(one)

    def test_3d_pd_improves_over_2d(self, base_pod, model, suite):
        # Section 6.6: stacking improves performance density (modestly).
        study = ThreeDDesignStudy(model=model, suite=suite)
        pd_2d = study.evaluate(stack_fixed_pod(base_pod, 1)).performance_density
        pd_fixed_pod = study.evaluate(stack_fixed_pod(base_pod, 2)).performance_density
        pd_fixed_distance = study.evaluate(stack_fixed_distance(base_pod, 2)).performance_density
        assert pd_fixed_pod >= pd_2d * 0.999
        assert pd_fixed_distance >= pd_2d * 0.999

    def test_describe_labels(self, base_pod):
        label = stack_fixed_distance(base_pod, 2).describe()
        assert "32c" in label and "L=2" in label and "fixed-distance" in label

    def test_validation(self, base_pod):
        with pytest.raises(ValueError):
            StackedPod(base_pod=base_pod, num_dies=0)


class TestThreeDDesignStudy:
    def test_sweep_produces_points(self, suite):
        study = ThreeDDesignStudy(suite=suite)
        points = study.sweep(core_counts=(8, 16), llc_sizes_mb=(2.0, 4.0), num_dies=2)
        assert len(points) == 4
        assert all(p.performance_density > 0 for p in points)

    def test_compare_strategies_rows(self, suite, base_pod):
        study = ThreeDDesignStudy(suite=suite)
        points = study.compare_strategies(base_pod, (1, 2))
        strategies = {(p.stacked_pod.num_dies, p.stacked_pod.strategy) for p in points}
        assert (1, StackingStrategy.FIXED_POD) in strategies
        assert (2, StackingStrategy.FIXED_DISTANCE) in strategies

    def test_best_strategy_respects_bandwidth(self, suite, base_pod):
        study = ThreeDDesignStudy(suite=suite)
        best = study.best_strategy(base_pod, 2)
        assert best.performance_density > 0

    def test_compose_chip_within_3d_budgets(self, suite, base_pod):
        study = ThreeDDesignStudy(suite=suite)
        chip = study.compose_chip(stack_fixed_pod(base_pod, 2))
        assert chip.num_dies == 2
        assert chip.memory_channels <= CONSTRAINTS_3D.max_memory_channels
        assert chip.die_area_mm2 <= CONSTRAINTS_3D.max_area_mm2 * 1.01
        assert chip.power_w <= CONSTRAINTS_3D.max_power_w

    def test_more_dies_more_pods_or_larger_pods(self, suite, base_pod):
        study = ThreeDDesignStudy(suite=suite)
        chip_1 = study.compose_chip(stack_fixed_pod(base_pod, 1))
        chip_4 = study.compose_chip(stack_fixed_pod(base_pod, 4))
        total_1 = chip_1.total_cores
        total_4 = chip_4.total_cores
        assert total_4 >= total_1

    def test_specification_table_structure(self, suite):
        study = ThreeDDesignStudy(suite=suite)
        rows = study.specification_table(core_type="ooo", die_counts=(1, 2))
        assert len(rows) == 3  # 2D pod, fixed-pod(2), fixed-distance(2)
        for row in rows:
            assert row["performance_density"] > 0
            assert row["pods"] >= 1
