"""Packet-level network-on-chip simulator and area model (Chapter 4).

The NOC-Out study compares three pod interconnects for a 64-core pod at 32nm:

* a 2D **mesh** (the tiled baseline, 3 cycles per hop),
* a richly connected **flattened butterfly** (at most two hops, expensive
  many-ported routers and long links), and
* **NOC-Out** (reduction/dispersion trees into a central LLC row linked by a
  small one-dimensional flattened butterfly).

This package provides a packet-level simulator (topology graphs, per-port router
occupancy, pipeline and serialization delays) driven by the bilateral
core-to-LLC traffic of scale-out workloads, plus the ORION-style area
accounting used for Figures 4.7 and 4.8.  Traffic reaches the network only as a
:class:`PacketBatch` (see :func:`repro.noc.traffic.generate_bilateral_batch`),
delivered by :meth:`NocNetwork.run_batch`.
"""

from repro.noc.fastpath import CompiledTopology, MessageClass, PacketBatch
from repro.noc.topology import NocTopology, build_mesh, build_flattened_butterfly, build_nocout
from repro.noc.network import NocNetwork, NocConfig
from repro.noc.metrics import NocAreaModel, NocAreaBreakdown
from repro.noc.simulation import NocPointSpec, NocSimulationResult, PodNocStudy

__all__ = [
    "MessageClass",
    "CompiledTopology",
    "PacketBatch",
    "NocPointSpec",
    "NocTopology",
    "build_mesh",
    "build_flattened_butterfly",
    "build_nocout",
    "NocNetwork",
    "NocConfig",
    "NocAreaModel",
    "NocAreaBreakdown",
    "NocSimulationResult",
    "PodNocStudy",
]
