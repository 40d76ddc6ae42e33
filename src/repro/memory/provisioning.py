"""Memory-channel provisioning.

Section 2.1.6: the number of memory interfaces must be chosen based on the
worst-case off-chip traffic of the workloads.  The paper measures per-design
bandwidth demand via simulation and provisions channels accordingly (e.g. a
16-core OoO pod demands 9.4 GB/s; a 32-core in-order pod demands 15 GB/s).  Here
the demand is computed from the workload profiles' off-chip bytes per instruction
and the analytic per-core performance.
"""

from __future__ import annotations

import math

from repro.memory.dram import DramChannel
from repro.technology.node import TechnologyNode
from repro.workloads.profile import WorkloadProfile


def demand_gbps(
    workload: WorkloadProfile,
    cores: int,
    llc_capacity_mb: float,
    per_core_ipc: float,
    node: TechnologyNode,
    core_type: str = "ooo",
) -> float:
    """Off-chip bandwidth demand (GB/s) of ``workload`` on the given configuration.

    demand = cores * IPC * frequency * bytes-per-instruction.
    """
    if cores < 1:
        raise ValueError("cores must be >= 1")
    if per_core_ipc < 0:
        raise ValueError("per_core_ipc must be non-negative")
    bytes_per_instr = workload.offchip_bytes_per_instruction(llc_capacity_mb, cores, core_type)
    instr_per_second = per_core_ipc * node.frequency_ghz * 1e9 * cores
    return instr_per_second * bytes_per_instr / 1e9


def channels_required(demand_gbps_value: float, channel: DramChannel, minimum: int = 1) -> int:
    """Number of DRAM channels needed to sustain ``demand_gbps_value``."""
    if demand_gbps_value < 0:
        raise ValueError("demand must be non-negative")
    needed = int(math.ceil(demand_gbps_value / channel.useful_bandwidth_gbps))
    return max(minimum, needed)
