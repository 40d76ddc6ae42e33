"""End-to-end NoC study harness for Chapter 4.

:class:`PodNocStudy` evaluates a 64-core pod under the three interconnect
organizations: it builds the topology, generates the bilateral traffic for each
workload, measures average LLC-access network latency with the packet simulator,
feeds that latency back into the analytic performance model to obtain system
performance, and reports area/power from the ORION-style models.  This is the
pipeline behind Figures 4.6, 4.7 and 4.8.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from repro.noc.fastpath import MessageClass
from repro.noc.metrics import NocAreaBreakdown, NocAreaModel
from repro.noc.network import NocConfig, NocNetwork
from repro.noc.topology import NocTopology, TOPOLOGY_BUILDERS
from repro.noc.traffic import bilateral_injection_rate, generate_bilateral_batch
from repro.perfmodel.analytic import Pod, aggregate_ipcs_at_network_latency, require_count
from repro.runtime.executor import SweepExecutor
from repro.technology.node import NODE_32NM, TechnologyNode
from repro.workloads.profile import WorkloadProfile
from repro.workloads.suite import WorkloadSuite, default_suite


@lru_cache(maxsize=16)
def _cached_topology(name: str, cores: int) -> NocTopology:
    """Process-local memo of built topologies.

    Topology construction is deterministic, and the instance's route cache is
    the expensive part to rebuild (NOC-Out pairs run a shortest-path search).
    Sharing one instance per (name, cores) lets every sweep point in a worker
    process reuse warm routes.
    """
    return TOPOLOGY_BUILDERS[name.lower()](cores=cores)


@lru_cache(maxsize=64)
def _cached_traffic_batch(
    core_nodes: "tuple[int, ...]",
    llc_nodes: "tuple[int, ...]",
    injection_rate: float,
    snoop_fraction: float,
    seed: int,
    duration_cycles: int,
    active_cores: int,
):
    """Memoized traffic batches, keyed by everything the generator draws from.

    The generator's random stream is fully determined by the node id lists,
    the per-core injection rate, the snoop fraction, and the seed -- not by
    the topology's links -- so topologies with identical core/LLC numbering
    (mesh and the flattened butterfly) share one generated batch per
    (workload, seed) point.  Callers must treat the returned batch as
    immutable.
    """
    return generate_bilateral_batch(
        core_nodes=list(core_nodes),
        llc_nodes=list(llc_nodes),
        injection_rate=injection_rate,
        snoop_fraction=snoop_fraction,
        seed=seed,
        duration_cycles=duration_cycles,
        active_cores=active_cores,
    )


@dataclass(frozen=True)
class NocSimulationResult:
    """Result of evaluating one (topology, workload) pair.

    Attributes:
        topology: topology name.
        workload: workload name.
        average_hops: mean hop count.
        system_ipc: aggregate pod IPC with this network latency.
        max_link_utilization: utilization of the busiest link.
    """

    topology: str
    workload: str
    average_hops: float
    system_ipc: float
    max_link_utilization: float


@dataclass(frozen=True)
class NocPointSpec:
    """Everything a pool worker needs to evaluate one NoC sweep point.

    A frozen value object shipped to workers instead of pickling the whole
    :class:`PodNocStudy` (whose workload suite dominated the per-point IPC
    payload); :meth:`PodNocStudy.from_spec` reconstitutes an
    equivalent study on the other side.
    """

    cores: int
    llc_mb: float
    node: TechnologyNode
    config: NocConfig
    duration_cycles: int
    seed: int


def _evaluate_noc_point(
    spec: NocPointSpec,
    topology_name: str,
    workload: WorkloadProfile,
    link_width_bits: "int | None",
) -> NocSimulationResult:
    """Evaluate one (topology, workload) sweep point.

    Module-level so :class:`~repro.runtime.SweepExecutor` can ship it to pool
    workers; the topology is built from the deterministic spec (and memoized
    per process), keeping the serial and parallel paths on identical code.
    """
    study = PodNocStudy.from_spec(spec)
    topology = study.build_topology(topology_name)
    request_latency, _, hops, util = study.measure_latency(
        topology, workload, link_width_bits=link_width_bits
    )
    return NocSimulationResult(
        topology=topology_name,
        workload=workload.name,
        average_hops=hops,
        system_ipc=study.system_performance(workload, request_latency),
        max_link_utilization=util,
    )


class PodNocStudy:
    """Chapter 4 evaluation: a 64-core, 8 MB, 4-channel pod at 32nm (Table 4.1)."""

    def __init__(
        self,
        cores: int = 64,
        llc_mb: float = 8.0,
        node: TechnologyNode = NODE_32NM,
        suite: "WorkloadSuite | None" = None,
        config: "NocConfig | None" = None,
        duration_cycles: int = 8_000,
        seed: int = 1,
    ):
        require_count("cores", cores, 1)
        require_count("duration_cycles", duration_cycles, 1)
        require_count("seed", seed, 0)
        self.cores = cores
        self.llc_mb = llc_mb
        self.node = node
        self._suite = suite
        self.config = config or NocConfig()
        self.duration_cycles = duration_cycles
        self.seed = seed

    @property
    def suite(self) -> WorkloadSuite:
        """Workload suite (built lazily; sweep workers never need it)."""
        if self._suite is None:
            self._suite = default_suite()
        return self._suite

    # ------------------------------------------------------------------ specs
    def point_spec(self) -> NocPointSpec:
        """The frozen per-point description shipped to sweep workers."""
        return NocPointSpec(
            cores=self.cores,
            llc_mb=self.llc_mb,
            node=self.node,
            config=self.config,
            duration_cycles=self.duration_cycles,
            seed=self.seed,
        )

    @classmethod
    def from_spec(cls, spec: NocPointSpec) -> "PodNocStudy":
        """Reconstitute a study from a :class:`NocPointSpec` (worker side).

        The suite stays unset (it is lazy and sweep workers never touch it).
        """
        return cls(
            cores=spec.cores,
            llc_mb=spec.llc_mb,
            node=spec.node,
            suite=None,
            config=spec.config,
            duration_cycles=spec.duration_cycles,
            seed=spec.seed,
        )

    # --------------------------------------------------------------- topology
    def build_topology(self, name: str) -> NocTopology:
        """Build the named topology sized for this pod (memoized per process)."""
        return _cached_topology(name, self.cores)

    # ----------------------------------------------------------- measurements
    def active_cores_for(self, workload: WorkloadProfile) -> int:
        """Cores used by a workload (poorly scaling workloads use only 16)."""
        return min(self.cores, workload.max_cores)

    def measure_latency(
        self, topology: NocTopology, workload: WorkloadProfile, link_width_bits: "int | None" = None
    ) -> "tuple[float, float, float, float]":
        """(request latency, all-packet latency, hops, max link utilization)."""
        from repro.obs.tracer import get_tracer

        config = self.config
        if link_width_bits is not None:
            config = NocConfig(
                link_width_bits=link_width_bits,
                vcs_per_port=self.config.vcs_per_port,
                buffer_flits_per_vc=self.config.buffer_flits_per_vc,
            )
        with get_tracer().span(
            "noc.measure",
            category="noc",
            topology=topology.name,
            workload=workload.name,
        ):
            return self._measure_latency(topology, workload, config)

    def _measure_latency(
        self, topology: NocTopology, workload: WorkloadProfile, config: NocConfig
    ) -> "tuple[float, float, float, float]":
        """The measurement body of :meth:`measure_latency` (span-wrapped)."""
        network = NocNetwork(topology, config)
        # The batch is shared across topologies with identical node numbering.
        batch = _cached_traffic_batch(
            tuple(topology.core_nodes),
            tuple(topology.llc_nodes),
            bilateral_injection_rate(workload, per_core_ipc=0.5),
            workload.snoop_fraction,
            self.seed,
            self.duration_cycles,
            self.active_cores_for(workload),
        )
        network.run_batch(batch)
        by_class = network.average_latency_by_class()
        request_latency = by_class.get(MessageClass.DATA_REQUEST, network.average_latency())
        response_latency = by_class.get(MessageClass.RESPONSE, request_latency)
        # The LLC load-to-use path crosses the network twice (request out,
        # response back); the model's network term is an average one-way
        # traversal, so the effective latency is the mean of the two directions.
        # This is what exposes the serialization penalty of narrow links: with a
        # fixed area budget the flattened butterfly's responses stretch to dozens
        # of flits (Section 4.4.3).
        effective_latency = 0.5 * (request_latency + response_latency)
        return (
            effective_latency,
            network.average_latency(),
            network.average_hops(),
            network.max_link_utilization(self.duration_cycles),
        )

    def system_performance(self, workload: WorkloadProfile, network_latency: float) -> float:
        """Aggregate pod IPC for ``workload`` given a measured network latency."""
        pod = Pod(
            cores=self.active_cores_for(workload),
            core_type="ooo",
            llc_capacity_mb=self.llc_mb,
            interconnect="ideal",
            node=self.node,
        )
        return aggregate_ipcs_at_network_latency((workload,), pod, network_latency)[0]

    # ------------------------------------------------------------- evaluation
    def evaluate(
        self, topology_names: Sequence[str] = ("mesh", "fbfly", "nocout"),
        link_width_bits_by_topology: "dict[str, int] | None" = None,
        executor: "SweepExecutor | None" = None,
    ) -> "list[NocSimulationResult]":
        """Evaluate every (topology, workload) pair; Figure 4.6's data.

        The (topology x workload) points are independent, so they fan out over
        ``executor`` (a process pool by default for full-suite sweeps).  Serial
        and parallel execution run the same per-point worker in the same order
        and therefore produce identical result lists.
        """
        executor = executor or SweepExecutor()
        spec = self.point_spec()
        points = []
        for name in topology_names:
            width = None
            if link_width_bits_by_topology is not None:
                width = link_width_bits_by_topology.get(name)
            for workload in self.suite:
                points.append((spec, name, workload, width))
        return executor.map(_evaluate_noc_point, points)

    def normalized_performance(
        self,
        results: "list[NocSimulationResult]",
        baseline: str = "mesh",
    ) -> "dict[str, dict[str, float]]":
        """Per-workload performance normalized to ``baseline`` (Figure 4.6)."""
        by_topology: "dict[str, dict[str, float]]" = {}
        for result in results:
            by_topology.setdefault(result.topology, {})[result.workload] = result.system_ipc
        baseline_perf = by_topology[baseline]
        normalized: "dict[str, dict[str, float]]" = {}
        for topology, per_workload in by_topology.items():
            normalized[topology] = {
                workload: ipc / baseline_perf[workload]
                for workload, ipc in per_workload.items()
            }
        return normalized

    # ------------------------------------------------------------ area & power
    def area_breakdowns(
        self, topology_names: Sequence[str] = ("mesh", "fbfly", "nocout")
    ) -> "dict[str, NocAreaBreakdown]":
        """NoC area breakdowns for Figure 4.7."""
        model = NocAreaModel(self.node, self.config)
        return {name: model.breakdown(self.build_topology(name)) for name in topology_names}

    def area_normalized_widths(
        self, budget_topology: str = "nocout",
        topology_names: Sequence[str] = ("mesh", "fbfly", "nocout"),
    ) -> "dict[str, int]":
        """Link widths that fit every topology inside NOC-Out's area budget (Fig 4.8)."""
        model = NocAreaModel(self.node, self.config)
        budget = model.breakdown(self.build_topology(budget_topology)).total_mm2
        widths: "dict[str, int]" = {}
        for name in topology_names:
            if name == budget_topology:
                widths[name] = self.config.link_width_bits
            else:
                widths[name] = model.width_for_area_budget(self.build_topology(name), budget)
        return widths

