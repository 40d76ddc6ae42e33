"""Tests for the one pod-to-chip path: PodEvaluation and the fill-the-die loop."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import composer
from repro.core.composer import PodEvaluation
from repro.core.designs import build_scale_out
from repro.core.methodology import ScaleOutDesignMethodology
from repro.perfmodel.analytic import Pod, estimate, worst_case_bandwidth_gbps
from repro.technology.node import NODE_20NM, NODE_40NM
from repro.three_d.designer import CONSTRAINTS_3D, ThreeDDesignStudy
from repro.three_d.stacking import StackedPod, stack_fixed_distance, stack_fixed_pod
from repro.workloads import WorkloadSuite, default_suite, get_workload

SMALL_SUITE = WorkloadSuite((get_workload("Web Search"), get_workload("MapReduce-C")))


def _counting(monkeypatch, owner, attribute):
    """Count calls to ``owner.attribute`` for the rest of the test."""
    calls = []
    original = getattr(owner, attribute)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attribute, counted)
    return calls


def test_pod_evaluation_matches_the_per_workload_estimates():
    pod = Pod(cores=16, core_type="ooo", llc_capacity_mb=4.0)
    suite = default_suite()
    evaluation = PodEvaluation.of(pod, suite)
    estimates = [estimate(workload, pod) for workload in suite]
    assert evaluation.performance == sum(e.aggregate_ipc for e in estimates) / len(estimates)
    assert evaluation.bandwidth_gbps == worst_case_bandwidth_gbps(pod, suite)
    assert evaluation.num_dies == 1


@pytest.mark.parametrize("core_type", ["ooo", "inorder"])
def test_build_scale_out_makes_one_suite_pass_per_distinct_pod(monkeypatch, core_type):
    calls = _counting(monkeypatch, composer, "suite_estimates")
    build_scale_out(core_type, NODE_40NM)
    # The sweep's 9 core counts x 4 LLC sizes; composing reuses those passes.
    assert len(calls) == 36
    assert len({repr(config) for config, *_ in calls}) == 36


def test_three_d_compose_chip_evaluates_the_stack_once(monkeypatch):
    calls = _counting(monkeypatch, StackedPod, "performance")
    base_pod = Pod(cores=16, core_type="ooo", llc_capacity_mb=2.0)
    chip = ThreeDDesignStudy(suite=SMALL_SUITE).compose_chip(stack_fixed_pod(base_pod, 2))
    assert chip.num_pods > 1
    assert len(calls) == 1


def test_fixed_distance_stack_fits_its_own_die_area():
    # The scaled pod of a fixed-distance stack is larger than the base pod's
    # footprint; budgeting against the base pod once admitted an 8th pod
    # whose chip reported 280.08 mm^2 against the 280 mm^2 budget.
    base_pod = Pod(cores=8, core_type="inorder", llc_capacity_mb=2.0)
    chip = ThreeDDesignStudy().compose_chip(stack_fixed_distance(base_pod, 4))
    assert chip.num_pods == 7
    assert chip.die_area_mm2 <= CONSTRAINTS_3D.max_area_mm2
    assert chip.satisfies(CONSTRAINTS_3D)


_pods = st.builds(
    Pod,
    cores=st.sampled_from((1, 2, 4, 8, 16, 32, 64)),
    core_type=st.sampled_from(("ooo", "inorder")),
    llc_capacity_mb=st.sampled_from((0.5, 1.0, 2.0, 4.0, 8.0)),
    node=st.sampled_from((NODE_40NM, NODE_20NM)),
)


@settings(max_examples=40, deadline=None)
@given(pod=_pods)
def test_planar_fill_returns_multi_pod_chips_within_budgets(pod):
    methodology = ScaleOutDesignMethodology(pod.node, SMALL_SUITE)
    chip = methodology.compose_chip(pod)
    if chip.num_pods > 1:
        assert chip.satisfies(methodology.constraints)


@settings(max_examples=40, deadline=None)
@given(
    pod=_pods,
    num_dies=st.integers(min_value=1, max_value=4),
    stack=st.sampled_from((stack_fixed_pod, stack_fixed_distance)),
)
def test_three_d_fill_returns_multi_pod_chips_within_budgets(pod, num_dies, stack):
    study = ThreeDDesignStudy(node=pod.node, suite=SMALL_SUITE)
    chip = study.compose_chip(stack(pod, num_dies))
    if chip.num_pods > 1:
        assert chip.satisfies(CONSTRAINTS_3D)
