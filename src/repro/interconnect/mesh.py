"""Mesh (tiled) interconnect model.

Tiled processors link tiles with a 2D mesh; each hop costs 3 cycles (router plus
channel, Table 2.2).  Average latency therefore grows with the network diameter,
which is the fundamental scaling problem the paper identifies for tiled
organizations (Section 2.2.2).
"""

from __future__ import annotations

from repro.interconnect.base import InterconnectModel
from repro.interconnect.floorplan import Floorplan
from repro.technology.node import NODE_40NM, TechnologyNode


class MeshInterconnect(InterconnectModel):
    """Packet-switched 2D mesh connecting core+LLC tiles."""

    name = "mesh"

    def __init__(self, cycles_per_hop: float = 3.0):
        if cycles_per_hop <= 0:
            raise ValueError("cycles_per_hop must be positive")
        self.cycles_per_hop = cycles_per_hop

    def latency_cycles(self, floorplan: Floorplan, node: TechnologyNode = NODE_40NM) -> float:
        """Average zero-load latency: cycles/hop times the average hop count."""
        return self.cycles_per_hop * max(1.0, floorplan.average_mesh_hops())

    def area_mm2(
        self,
        floorplan: Floorplan,
        node: TechnologyNode = NODE_40NM,
        link_width_bits: int = 128,
    ) -> float:
        """Mesh area: one 5-port router plus four short links per tile.

        Calibrated to the Chapter 4 measurement of ~3.5 mm^2 for a 64-tile mesh
        with 128-bit links at 32nm (Figure 4.7).
        """
        per_tile_area_32nm = 3.5 / 64.0 * (link_width_bits / 128.0)
        per_tile_area_40nm = per_tile_area_32nm / 0.64
        return max(0.2, per_tile_area_40nm * floorplan.cores * node.logic_area_scale)
