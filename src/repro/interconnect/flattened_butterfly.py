"""Flattened-butterfly interconnect model.

The flattened butterfly (Section 4.2) fully connects each node to every other
node in its row and column, so any packet needs at most two network hops.  It
approaches crossbar latency but pays a large area cost in many-ported routers,
deep packet buffers, and long-range links (about 23 mm^2 for a 64-tile network at
32nm with 128-bit links, Figure 4.7).
"""

from __future__ import annotations

from repro.interconnect.base import InterconnectModel
from repro.interconnect.floorplan import Floorplan
from repro.technology.node import NODE_40NM, TechnologyNode
from repro.technology.wires import WireModel


class FlattenedButterflyInterconnect(InterconnectModel):
    """Richly connected low-diameter topology for tiled organizations."""

    name = "fbfly"

    #: Router pipeline depth: no speculation due to high arbitration complexity.
    ROUTER_PIPELINE_CYCLES = 3.0

    def latency_cycles(self, floorplan: Floorplan, node: TechnologyNode = NODE_40NM) -> float:
        """Average latency: up to two hops, each a 3-stage router plus a long link.

        Link traversal covers up to two tiles per cycle (Table 4.1), so the link
        delay grows with the average span of a row/column traversal.
        """
        rows, cols = floorplan.grid_dims
        wire = WireModel(node)
        tiles_per_cycle = max(1.0, wire.reach_per_cycle_mm() / max(1e-9, floorplan.tile_pitch_mm))
        avg_span_tiles = (rows + cols) / 2.0 / 3.0  # average one-dimension span
        link_cycles = max(1.0, avg_span_tiles / tiles_per_cycle)
        average_hops = 1.6  # some traffic needs one hop, most needs two
        return average_hops * (self.ROUTER_PIPELINE_CYCLES + link_cycles)

    def area_mm2(
        self,
        floorplan: Floorplan,
        node: TechnologyNode = NODE_40NM,
        link_width_bits: int = 128,
    ) -> float:
        """Area of many-ported routers plus the quadratic link budget.

        Calibrated to ~23 mm^2 for an 8x8 tiled network with 128-bit links at
        32nm (Figure 4.7); area grows slightly super-linearly with tile count
        because router radix grows with the grid dimensions.
        """
        rows, cols = floorplan.grid_dims
        tiles = floorplan.cores
        radix = (rows - 1) + (cols - 1) + 1
        # Reference: 64 tiles, radix 15 -> 23 mm^2 at 32nm.
        reference = 23.0
        scale = (tiles / 64.0) * (radix / 15.0) * (link_width_bits / 128.0)
        area_32nm = reference * scale
        area_40nm = area_32nm / 0.64
        return max(0.2, area_40nm * node.logic_area_scale)
