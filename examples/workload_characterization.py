"""Characterizing a new scale-out workload (the Chapter 2 scenario).

Shows how to describe a custom workload profile, check its LLC capacity
sensitivity, validate the analytic model against the cycle-level simulator, and
find the PD-optimal pod for it.

Run with ``python examples/workload_characterization.py``.
"""

from repro.core.methodology import ScaleOutDesignMethodology
from repro.experiments.formatting import format_table
from repro.perfmodel.analytic import AnalyticPerformanceModel, Pod
from repro.sim.system import simulate_system
from repro.workloads.cloudsuite import _behaviors  # reuse the calibrated core constants
from repro.workloads.missrate import CaptureCurve, MissRatioCurve
from repro.workloads.profile import WorkloadProfile
from repro.workloads.suite import WorkloadSuite


def build_custom_workload() -> WorkloadProfile:
    """An in-memory key-value store: huge dataset, modest instruction footprint."""
    return WorkloadProfile(
        name="KV Store",
        l1i_mpki=18.0,
        l1d_mpki=26.0,
        llc_curve=MissRatioCurve(
            floor_mpki=4.0,
            capturable_mpki=5.0,
            capture=CaptureCurve(half_capture_mb=1.2, exponent=1.5),
            instruction_mpki=5.0,
            instruction_capture=CaptureCurve(half_capture_mb=0.4, exponent=2.2),
        ),
        core_behavior=_behaviors(compute_factor=0.9),
        snoop_fraction=0.02,
        max_cores=64,
        instruction_footprint_kb=640,
        dataset_footprint_mb=4096,
    )


def main() -> None:
    workload = build_custom_workload()
    model = AnalyticPerformanceModel()

    rows = []
    for llc_mb in (1, 2, 4, 8, 16):
        pod = Pod(cores=4, core_type="ooo", llc_capacity_mb=llc_mb, interconnect="crossbar")
        estimate = model.estimate(workload, pod)
        rows.append(
            {
                "llc_mb": llc_mb,
                "per_core_ipc": round(estimate.per_core_ipc, 3),
                "llc_mpki": round(estimate.llc_mpki, 2),
                "offchip_gbps": round(estimate.offchip_bandwidth_gbps, 1),
            }
        )
    print(format_table(rows, title="KV Store: LLC capacity sensitivity (4 OoO cores)"))
    print()

    pod = Pod(cores=8, core_type="ooo", llc_capacity_mb=4, interconnect="crossbar")
    sim = simulate_system(workload, pod, instructions_per_core=8000, seed=5)
    predicted = model.estimate(workload, pod)
    print(
        "Model vs simulation at 8 cores / 4 MB: "
        f"model {predicted.aggregate_ipc:.2f} IPC, simulated {sim.aggregate_ipc:.2f} IPC"
    )
    print()

    methodology = ScaleOutDesignMethodology(suite=WorkloadSuite((workload,)))
    selected = methodology.pd_optimal_pod(core_type="ooo")
    chip = methodology.design(core_type="ooo", name="Scale-Out (KV Store)")
    print(f"PD-optimal pod for KV Store: {selected.pod.describe()}")
    print(f"Composed chip: {chip.summary()}")


if __name__ == "__main__":
    main()
