"""Per-packet NoC graph walk: the oracle for ``NocNetwork`` and ``PodNocStudy``.

:class:`ReferenceNocNetwork` routes one ``Packet`` at a time along
``topology.route``, charging the router pipeline, the wait for the link, the
link latency and the tail serialization hop by hop, with one
:class:`LinkState` per directed link.  The package compiles the topology into
arrays and delivers whole batches through a wavefront kernel; the tests hold
the two to identical arrival times, hop counts and statistics.

:func:`evaluate_reference` is the matching Figure 4.6 measurement: object
traffic from :class:`~repro.noc.traffic.BilateralTrafficGenerator` replayed
through the reference network, for every (topology, workload) point of a
:class:`~repro.noc.simulation.PodNocStudy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.noc.fastpath import BatchResult, PacketBatch
from repro.noc.network import NocConfig
from repro.noc.packet import MessageClass, Packet
from repro.noc.simulation import NocSimulationResult, PodNocStudy
from repro.noc.topology import NocTopology
from repro.noc.traffic import BilateralTrafficGenerator


@dataclass
class LinkState:
    """Occupancy bookkeeping for one directed link."""

    next_free: float = 0.0
    flits_carried: int = 0
    busy_cycles: float = 0.0


class ReferenceNocNetwork:
    """The per-packet timing model, with ``NocNetwork``'s public interface."""

    def __init__(self, topology: NocTopology, config: "NocConfig | None" = None):
        self.topology = topology
        self.config = config or NocConfig()
        self.delivered: "list[Packet]" = []
        self._delivered_count = 0
        self._latency_sum = 0.0
        self._hops_sum = 0
        self._class_sums: "dict[MessageClass, list]" = {}
        self._links = {(a, b): LinkState() for a, b in topology.links()}

    def send(self, packet: Packet) -> float:
        """Route ``packet`` hop by hop; returns its arrival time."""
        if packet.flits <= 0:
            packet.flits = self.config.flits_for(packet.message_class)
        if packet.flits <= 0:
            packet.flits = packet.default_flits()
        path = self.topology.route(packet.source, packet.destination)
        time = packet.injection_time
        for a, b in zip(path[:-1], path[1:]):
            # Router pipeline at the upstream node.
            time += self.topology.router_pipeline_cycles.get(a, 1)
            link = self._links[(a, b)]
            # Wait for the link if an earlier packet still occupies it.
            start = max(time, link.next_free)
            occupancy = packet.flits  # one flit per cycle
            link.next_free = start + occupancy
            link.flits_carried += packet.flits
            link.busy_cycles += occupancy
            time = start + self.topology.link(a, b).latency_cycles
        # Serialization: the tail flit arrives packet.flits - 1 cycles after the head.
        time += self.topology.router_pipeline_cycles.get(path[-1], 1)
        time += packet.flits - 1
        packet.arrival_time = time
        packet.hops = len(path) - 1
        self.delivered.append(packet)
        latency = time - packet.injection_time
        self._delivered_count += 1
        self._latency_sum += latency
        self._hops_sum += packet.hops
        sums = self._class_sums.setdefault(packet.message_class, [0.0, 0])
        sums[0] += latency
        sums[1] += 1
        return time

    def run(self, packets: "Iterable[Packet]") -> "list[Packet]":
        """Send ``packets`` in injection-time order; returns the delivered list."""
        for packet in sorted(packets, key=lambda p: (p.injection_time, p.packet_id)):
            self.send(packet)
        return self.delivered

    def run_batch(self, batch: PacketBatch) -> BatchResult:
        """Materialize ``batch`` into packets and replay them through :meth:`run`."""
        delivered_before = len(self.delivered)
        self.run(batch.to_packets())
        return _batch_result_from_packets(self.delivered[delivered_before:], batch)

    def average_latency(self) -> float:
        """Average end-to-end packet latency."""
        if self._delivered_count == 0:
            return 0.0
        return self._latency_sum / self._delivered_count

    def average_latency_by_class(self) -> "dict[MessageClass, float]":
        """Average latency per message class."""
        return {cls: sums[0] / sums[1] for cls, sums in self._class_sums.items()}

    def average_hops(self) -> float:
        """Average hop count of delivered packets."""
        if self._delivered_count == 0:
            return 0.0
        return self._hops_sum / self._delivered_count

    def total_flit_hops(self) -> int:
        """Total flit-hops carried."""
        return sum(state.flits_carried for state in self._links.values())

    def max_link_utilization(self, elapsed_cycles: float) -> float:
        """Utilization of the busiest link."""
        if elapsed_cycles <= 0 or not self._links:
            return 0.0
        busiest = max(s.busy_cycles for s in self._links.values())
        return min(1.0, busiest / elapsed_cycles)


def _batch_result_from_packets(
    packets: "Sequence[Packet]", batch: PacketBatch
) -> BatchResult:
    """Assemble a :class:`BatchResult` from object-delivered packets.

    ``packets`` arrive in delivery order; the result columns follow batch
    order, re-aligned through the (unique) packet ids.
    """
    by_id = {p.packet_id: p for p in packets}
    packets = [by_id[pid] for pid in batch.packet_id.tolist()]
    arrival = np.array([p.arrival_time for p in packets], dtype=np.float64)
    return BatchResult(
        arrival_time=arrival,
        latency=arrival - batch.injection_time,
        hops=np.array([p.hops for p in packets], dtype=np.int64),
        flits=np.array([p.flits for p in packets], dtype=np.int64),
        class_code=batch.class_code,
        order=np.lexsort((batch.packet_id, batch.injection_time)),
    )


def evaluate_reference(
    study: PodNocStudy,
    topology_names: "Sequence[str]" = ("mesh", "fbfly", "nocout"),
) -> "list[NocSimulationResult]":
    """``study.evaluate()`` measured with object traffic and the reference walk."""
    results = []
    for name in topology_names:
        topology = study.build_topology(name)
        for workload in study.suite:
            network = ReferenceNocNetwork(topology, study.config)
            generator = BilateralTrafficGenerator(
                topology, workload, per_core_ipc=0.5, seed=study.seed
            )
            network.run(
                generator.generate(
                    duration_cycles=study.duration_cycles,
                    active_cores=study.active_cores_for(workload),
                )
            )
            by_class = network.average_latency_by_class()
            request = by_class.get(MessageClass.DATA_REQUEST, network.average_latency())
            response = by_class.get(MessageClass.RESPONSE, request)
            effective = 0.5 * (request + response)
            results.append(
                NocSimulationResult(
                    topology=name,
                    workload=workload.name,
                    average_request_latency=effective,
                    average_packet_latency=network.average_latency(),
                    average_hops=network.average_hops(),
                    system_ipc=study.system_performance(workload, effective),
                    max_link_utilization=network.max_link_utilization(
                        study.duration_cycles
                    ),
                )
            )
    return results
