"""Analytic chip performance model.

This is the reproduction of the verified analytic model the paper uses for its
design-space studies (Sections 2.4.3 and 3.3, originally due to Hardavellas et
al.).  Given a workload profile, a core microarchitecture, an LLC capacity, an
interconnect, and a core count, the model predicts per-core and aggregate
application IPC via an average-memory-access-time CPI decomposition:

``CPI = CPI_base + mpi_L1I * t_LLC + mpi_L1D * t_LLC / MLP_data
       + mpi_LLC(C, N) * t_mem / MLP_mem``

where ``t_LLC`` is the LLC load-to-use latency (bank access + interconnect +
contention) and ``t_mem`` adds the DRAM access latency.  Instruction fetches are
charged the full LLC latency because L1-I misses stall the front end (the paper
repeatedly stresses their criticality); data accesses are overlapped according to
the workload/core MLP.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from repro.caches.nuca import NucaLLC
from repro.cores.models import CoreModel, core_model
from repro.interconnect import InterconnectModel, interconnect_model
from repro.interconnect.floorplan import Floorplan
from repro.memory.dram import DramChannel, channel_for_standard
from repro.perfmodel.amat import CpiBreakdown, LlcAccessLatency
from repro.technology.components import ComponentCatalog
from repro.technology.node import NODE_40NM, TechnologyNode
from repro.workloads.profile import WorkloadProfile
from repro.workloads.suite import WorkloadSuite, default_suite


def require_positive_finite(**fields: float) -> None:
    """Raise ``ValueError`` naming the first field that is not a positive, finite number."""
    for name, value in fields.items():
        try:
            valid = 0 < value < math.inf
        except TypeError:  # a string or None from the command line
            valid = False
        if not valid:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def require_count(name: str, value: object, minimum: int) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class SystemConfig:
    """One design point evaluated by the analytic model.

    Attributes:
        cores: number of cores sharing the LLC (one coherence domain / pod).
        core_type: "conventional", "ooo", or "inorder" (or a CoreModel).
        llc_capacity_mb: shared LLC capacity in MB.
        interconnect: interconnect name or model instance.
        node: technology node.
        llc_banks: number of LLC banks; defaults to the paper's 1-per-4-cores
            dancehall rule for crossbar/ideal designs and 1-per-tile for meshes.
        instruction_replication: model R-NUCA-style instruction replication in the
            LLC (the "with IR" tiled variants): instruction fetches see a one-hop
            network latency, at the cost of LLC capacity pressure and extra
            off-chip traffic.
        effective_capacity_factor: multiplier on the LLC capacity seen by the miss
            curve (used by instruction replication and other capacity-pressure
            effects).
        offchip_traffic_factor: multiplier on off-chip traffic (e.g. replication
            refills).
    """

    cores: int
    core_type: str = "ooo"
    llc_capacity_mb: float = 4.0
    interconnect: str = "crossbar"
    node: TechnologyNode = NODE_40NM
    llc_banks: "int | None" = None
    instruction_replication: bool = False
    effective_capacity_factor: float = 1.0
    offchip_traffic_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        require_positive_finite(
            llc_capacity_mb=self.llc_capacity_mb,
            effective_capacity_factor=self.effective_capacity_factor,
            offchip_traffic_factor=self.offchip_traffic_factor,
        )
        if self.llc_banks is not None and self.llc_banks < 1:
            raise ValueError("llc_banks must be >= 1")

    @property
    def effective_llc_capacity_mb(self) -> float:
        """LLC capacity seen by the miss-ratio curve after capacity-pressure effects."""
        return self.llc_capacity_mb * self.effective_capacity_factor

    # ------------------------------------------------------------- resolved
    def resolved_core(self) -> CoreModel:
        """The CoreModel for this configuration."""
        return core_model(self.core_type)

    def resolved_interconnect(self) -> InterconnectModel:
        """The interconnect model instance for this configuration."""
        return interconnect_model(self.interconnect)

    def resolved_banks(self) -> int:
        """Number of LLC banks (defaults to the paper's organization rules)."""
        if self.llc_banks is not None:
            return self.llc_banks
        name = self.resolved_interconnect().name
        if name in ("mesh", "fbfly"):
            return self.cores  # one slice per tile
        return NucaLLC.banks_for_cores(self.cores)

    def llc(self) -> NucaLLC:
        """The NUCA LLC object for this configuration."""
        return NucaLLC(
            total_capacity_mb=self.llc_capacity_mb,
            num_banks=self.resolved_banks(),
            node=self.node,
        )

    def floorplan(self) -> Floorplan:
        """Floorplan of the core + LLC region used for distance-dependent delays."""
        catalog = ComponentCatalog(self.node)
        core = self.resolved_core()
        return Floorplan(
            cores=self.cores,
            core_area_mm2=catalog.core(core.name).area_mm2,
            llc_area_mm2=catalog.llc_area_mm2(self.llc_capacity_mb),
        )


@dataclass(frozen=True)
class PerformanceEstimate:
    """Model output for one (workload, configuration) pair.

    Attributes:
        workload: workload name.
        config: the evaluated configuration.
        cpi: per-core CPI breakdown.
        llc_latency: decomposition of the LLC access latency.
        llc_mpki: off-chip misses per kilo-instruction at this LLC capacity.
        per_core_ipc: application instructions per cycle per core.
        aggregate_ipc: chip/pod throughput (sum of per-core IPC).
        offchip_bandwidth_gbps: DRAM bandwidth demand of the configuration.
    """

    workload: str
    config: SystemConfig
    cpi: CpiBreakdown
    llc_latency: LlcAccessLatency
    llc_mpki: float
    per_core_ipc: float
    aggregate_ipc: float
    offchip_bandwidth_gbps: float


class AnalyticPerformanceModel:
    """Average-memory-access-time model of pod / chip throughput.

    Args:
        dram_channel: DRAM channel model used for the memory latency term; by
            default the node's memory standard (DDR3 at 40nm, DDR4 at 20nm).
    """

    def __init__(self, dram_channel: "DramChannel | None" = None):
        self._dram_override = dram_channel

    # ------------------------------------------------------------------ DRAM
    def _dram(self, node: TechnologyNode) -> DramChannel:
        if self._dram_override is not None:
            return self._dram_override
        return channel_for_standard(node.memory_standard)

    # ----------------------------------------------------------- LLC latency
    def llc_access_latency(
        self, config: SystemConfig, accesses_per_cycle: float = 0.0
    ) -> LlcAccessLatency:
        """Average LLC load-to-use latency for ``config``.

        Args:
            accesses_per_cycle: aggregate LLC access rate used for the (mild)
                bank-contention term; 0 disables contention.
        """
        llc = config.llc()
        floorplan = config.floorplan()
        network = config.resolved_interconnect().latency_cycles(floorplan, config.node)
        contention = llc.queueing_delay_cycles(accesses_per_cycle) if accesses_per_cycle > 0 else 0.0
        return LlcAccessLatency(
            bank_cycles=float(llc.bank_access_latency_cycles),
            network_cycles=float(network),
            contention_cycles=float(contention),
        )

    # ------------------------------------------------------------------- CPI
    def cpi_breakdown(
        self,
        workload: WorkloadProfile,
        config: SystemConfig,
        llc_latency: "LlcAccessLatency | None" = None,
    ) -> CpiBreakdown:
        """Per-core CPI decomposition for ``workload`` on ``config``."""
        core = config.resolved_core()
        behavior = workload.behavior(core.name)
        i_mpki, d_mpki = workload.l1_mpki(core.name)
        capacity = config.effective_llc_capacity_mb
        data_miss_mpki = workload.llc_data_mpki(capacity, config.cores, core.name)
        instr_miss_mpki = workload.llc_instruction_mpki(capacity, config.cores, core.name)

        if llc_latency is None:
            llc_latency = self.llc_access_latency(config)
        t_llc = llc_latency.total_cycles
        dram = self._dram(config.node)
        t_mem = t_llc + dram.access_latency_cycles(config.node)

        # Instruction replication (R-NUCA) keeps instruction blocks at most one
        # network hop away from the requesting core; the bank and contention
        # latencies still apply.
        if config.instruction_replication:
            t_fetch = llc_latency.bank_cycles + llc_latency.contention_cycles + 3.0
            t_fetch = min(t_fetch, t_llc)
        else:
            t_fetch = t_llc

        # Instruction-footprint misses that spill past the LLC stall the front end
        # for the full memory latency (no overlap); data misses overlap per the
        # workload's memory-level parallelism.
        memory_cpi = (
            data_miss_mpki / 1000.0 * t_mem / behavior.memory_mlp
            + instr_miss_mpki / 1000.0 * t_mem
        )

        return CpiBreakdown(
            base=behavior.base_cpi,
            instruction_fetch=i_mpki / 1000.0 * t_fetch,
            data_llc=d_mpki / 1000.0 * t_llc / behavior.data_mlp,
            memory=memory_cpi,
        )

    # -------------------------------------------------------------- estimate
    def estimate(self, workload: WorkloadProfile, config: SystemConfig) -> PerformanceEstimate:
        """Full performance estimate for one workload on one configuration.

        The LLC contention term depends on the access rate, which depends on the
        IPC; one fixed-point refinement pass is ample given how mild the
        contention is in the provisioned designs.
        """
        core = config.resolved_core()
        # First pass without contention.
        latency = self.llc_access_latency(config)
        cpi = self.cpi_breakdown(workload, config, latency)

        # Refine with bank contention based on the first-pass access rate.
        apki = workload.llc_accesses_per_kilo_instruction(core.name)
        accesses_per_cycle = config.cores * cpi.ipc * apki / 1000.0
        latency = self.llc_access_latency(config, accesses_per_cycle)
        cpi = self.cpi_breakdown(workload, config, latency)

        llc_mpki = workload.llc_mpki(
            config.effective_llc_capacity_mb, config.cores, core.name
        )
        per_core_ipc = cpi.ipc
        aggregate = per_core_ipc * config.cores
        bytes_per_instr = workload.offchip_bytes_per_instruction(
            config.effective_llc_capacity_mb, config.cores, core.name
        )
        bandwidth = (
            aggregate
            * config.node.frequency_ghz
            * 1e9
            * bytes_per_instr
            / 1e9
            * config.offchip_traffic_factor
        )
        return PerformanceEstimate(
            workload=workload.name,
            config=config,
            cpi=cpi,
            llc_latency=latency,
            llc_mpki=llc_mpki,
            per_core_ipc=per_core_ipc,
            aggregate_ipc=aggregate,
            offchip_bandwidth_gbps=bandwidth,
        )

    # ------------------------------------------------------- suite averages
    def suite_estimates(
        self, config: SystemConfig, suite: "WorkloadSuite | None" = None
    ) -> "dict[str, PerformanceEstimate]":
        """Estimates for every workload in ``suite`` (default: the full CloudSuite)."""
        suite = suite or default_suite()
        return {w.name: self.estimate(w, config) for w in suite}

    def average_aggregate_ipc(
        self, config: SystemConfig, suite: "WorkloadSuite | None" = None
    ) -> float:
        """Arithmetic-mean aggregate IPC across the suite (the paper's performance)."""
        estimates = self.suite_estimates(config, suite)
        return sum(e.aggregate_ipc for e in estimates.values()) / len(estimates)

    def average_per_core_ipc(
        self, config: SystemConfig, suite: "WorkloadSuite | None" = None
    ) -> float:
        """Arithmetic-mean per-core IPC across the suite."""
        estimates = self.suite_estimates(config, suite)
        return sum(e.per_core_ipc for e in estimates.values()) / len(estimates)

    def worst_case_bandwidth_gbps(
        self, config: SystemConfig, suite: "WorkloadSuite | None" = None
    ) -> float:
        """Worst-case off-chip bandwidth demand across the suite (for provisioning)."""
        estimates = self.suite_estimates(config, suite)
        return max(e.offchip_bandwidth_gbps for e in estimates.values())
