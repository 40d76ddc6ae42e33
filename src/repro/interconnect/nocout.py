"""Analytic model of the NOC-Out pod organization (Chapter 4).

NOC-Out segregates LLC tiles into a central row and connects the cores to it with
routing-free reduction (core-to-cache) and dispersion (cache-to-core) trees; the
LLC tiles themselves are linked by a small one-dimensional flattened butterfly.
The organization exploits the bilateral core-to-cache traffic of scale-out
workloads to deliver flattened-butterfly latency at roughly a tenth of the area.
"""

from __future__ import annotations

import math

from repro.interconnect.base import InterconnectModel
from repro.interconnect.floorplan import Floorplan
from repro.technology.node import NODE_40NM, TechnologyNode


class NocOutInterconnect(InterconnectModel):
    """Reduction/dispersion trees plus a flattened-butterfly LLC network."""

    name = "nocout"

    #: Per-node delay in the reduction/dispersion trees (link + arbitrated mux).
    TREE_HOP_CYCLES = 1.0
    #: LLC-network router pipeline (3-stage, non-speculative).
    LLC_ROUTER_CYCLES = 3.0
    #: Cores aggregated under one LLC tile (empirically 4 cores per LLC bank,
    #: Section 4.2.2, with 8 LLC tiles for a 64-core pod).
    CORES_PER_LLC_TILE = 8

    def latency_cycles(self, floorplan: Floorplan, node: TechnologyNode = NODE_40NM) -> float:
        """Average core-to-LLC latency through a reduction tree plus the LLC network.

        Cores sit in columns on either side of the central LLC row, so the average
        tree depth is half the column height; most requests then take roughly one
        hop in the small LLC flattened butterfly to reach the target bank.
        """
        rows, cols = floorplan.grid_dims
        # Cores are split across both sides of the LLC row; a column on one side
        # holds rows/2 cores, and the average request traverses half of them.
        tree_depth = max(1.0, rows / 2.0 / 2.0)
        llc_hops = 1.0
        return tree_depth * self.TREE_HOP_CYCLES + llc_hops * self.LLC_ROUTER_CYCLES

    def area_mm2(
        self,
        floorplan: Floorplan,
        node: TechnologyNode = NODE_40NM,
        link_width_bits: int = 128,
    ) -> float:
        """NOC-Out area: trivially simple tree nodes plus a small LLC network.

        Calibrated to the 2.5 mm^2 reported for the 64-core pod with 128-bit links
        at 32nm (Figure 4.7): 18 % reduction tree, 18 % dispersion tree, 64 % LLC
        flattened butterfly.
        """
        llc_tiles = max(1, int(math.ceil(floorplan.cores / self.CORES_PER_LLC_TILE)))
        tree_area_32nm = 2.5 * 0.36 * (floorplan.cores / 64.0)
        llc_net_area_32nm = 2.5 * 0.64 * (llc_tiles / 8.0) ** 2
        area_32nm = (tree_area_32nm + llc_net_area_32nm) * (link_width_bits / 128.0)
        area_40nm = area_32nm / 0.64
        return max(0.2, area_40nm * node.logic_area_scale)
