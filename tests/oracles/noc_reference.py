"""Per-packet NoC graph walk: the oracle for ``NocNetwork`` and ``PodNocStudy``.

:class:`ReferenceNocNetwork` routes one :class:`Packet` at a time along
``topology.route``, charging the router pipeline, the wait for the link, the
link latency and the tail serialization hop by hop, with one
:class:`LinkState` per directed link.  Its :meth:`~ReferenceNocNetwork.run_batch`
turns a :class:`~repro.noc.fastpath.PacketBatch` into packets
(:func:`to_packets`) and walks them.  The package compiles the topology into
route tables and delivers whole batches through the wavefront (or, on a cyclic
channel dependency graph, the hop loop over the same tables); the tests hold
the two to identical arrival times, hop counts and statistics.

:func:`evaluate_reference` is the matching Figure 4.6 measurement: the
package's bilateral traffic batch replayed packet by packet through the
reference network, for every (topology, workload) point of a
:class:`~repro.noc.simulation.PodNocStudy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.noc.fastpath import CLASS_CODES, CLASS_ORDER, BatchResult, MessageClass, PacketBatch
from repro.noc.network import NocConfig
from repro.noc.simulation import NocSimulationResult, PodNocStudy
from repro.noc.topology import NocTopology
from repro.noc.traffic import bilateral_injection_rate, generate_bilateral_batch


@dataclass
class Packet:
    """One network packet; ``flits`` 0 means "sized by the network config"."""

    source: int
    destination: int
    message_class: MessageClass
    injection_time: float
    flits: int = 0
    packet_id: int = -1
    arrival_time: float = -1.0
    hops: int = 0


def to_packets(batch: PacketBatch) -> "list[Packet]":
    """One :class:`Packet` per batch row, in batch (emission) order."""
    return [
        Packet(
            source=src,
            destination=dst,
            message_class=CLASS_ORDER[code],
            injection_time=t,
            flits=flits,
            packet_id=pid,
        )
        for src, dst, code, t, flits, pid in zip(
            batch.source.tolist(),
            batch.destination.tolist(),
            batch.class_code.tolist(),
            batch.injection_time.tolist(),
            batch.flits.tolist(),
            batch.packet_id.tolist(),
        )
    ]


def rows_batch(*rows: "tuple[int, int, MessageClass, float]") -> PacketBatch:
    """A batch of hand-written ``(source, destination, message_class,
    injection_time)`` rows, sized by the network config, ids 0, 1, ..."""
    return PacketBatch(
        injection_time=np.array([row[3] for row in rows], dtype=np.float64),
        source=np.array([row[0] for row in rows], dtype=np.int64),
        destination=np.array([row[1] for row in rows], dtype=np.int64),
        class_code=np.array([CLASS_CODES[row[2]] for row in rows], dtype=np.int64),
        flits=np.zeros(len(rows), dtype=np.int64),
        packet_id=np.arange(len(rows), dtype=np.int64),
    )


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
        self._delivered_count = 0
        self._latency_sum = 0.0
        self._hops_sum = 0
        self._class_sums: "dict[MessageClass, list]" = {}
        self._links = {(a, b): LinkState() for a, b in topology.links()}

    def send(self, packet: Packet) -> float:
        """Route ``packet`` hop by hop; returns its arrival time."""
        if packet.flits <= 0:
            packet.flits = self.config.flits_for(packet.message_class)
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
        latency = time - packet.injection_time
        self._delivered_count += 1
        self._latency_sum += latency
        self._hops_sum += packet.hops
        sums = self._class_sums.setdefault(packet.message_class, [0.0, 0])
        sums[0] += latency
        sums[1] += 1
        return time

    def run_batch(self, batch: PacketBatch) -> BatchResult:
        """Walk ``batch``'s packets (:func:`to_packets`) one at a time in
        delivery order: injection time, ties broken by packet id."""
        packets = to_packets(batch)
        order = sorted(
            range(len(packets)),
            key=lambda i: (packets[i].injection_time, packets[i].packet_id),
        )
        for index in order:
            self.send(packets[index])
        arrival = np.array([p.arrival_time for p in packets], dtype=np.float64)
        return BatchResult(
            arrival_time=arrival,
            latency=arrival - batch.injection_time,
            hops=np.array([p.hops for p in packets], dtype=np.int64),
            flits=np.array([p.flits for p in packets], dtype=np.int64),
            class_code=batch.class_code,
            order=np.array(order, dtype=np.int64),
        )

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


def evaluate_reference(
    study: PodNocStudy,
    topology_names: "Sequence[str]" = ("mesh", "fbfly", "nocout"),
) -> "list[NocSimulationResult]":
    """``study.evaluate()`` measured packet by packet with the reference walk."""
    results = []
    for name in topology_names:
        topology = study.build_topology(name)
        for workload in study.suite:
            network = ReferenceNocNetwork(topology, study.config)
            network.run_batch(
                generate_bilateral_batch(
                    core_nodes=topology.core_nodes,
                    llc_nodes=topology.llc_nodes,
                    injection_rate=bilateral_injection_rate(workload, per_core_ipc=0.5),
                    snoop_fraction=workload.snoop_fraction,
                    seed=study.seed,
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
