"""NoC area model (ORION-style accounting, Figures 4.7 and 4.8).

Area is broken down into links (repeaters only -- wires route over logic),
buffers (flip-flops for the mesh and NOC-Out trees, SRAM for the flattened
butterfly's deep buffers), and crossbars (quadratic in port count).  The constants
are calibrated so that the three 64-core / 128-bit-link organizations land at the
paper's reported totals: mesh ~3.5 mm^2, flattened butterfly ~23 mm^2, NOC-Out
~2.5 mm^2 at 32nm.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.noc.network import NocConfig
from repro.noc.topology import NocTopology
from repro.technology.node import NODE_32NM, TechnologyNode
from repro.technology.wires import WireModel


@dataclass(frozen=True)
class NocAreaBreakdown:
    """Itemized NoC area (mm^2)."""

    links_mm2: float
    buffers_mm2: float
    crossbars_mm2: float

    @property
    def total_mm2(self) -> float:
        """Total NoC area."""
        return self.links_mm2 + self.buffers_mm2 + self.crossbars_mm2

    def as_dict(self) -> "dict[str, float]":
        """Breakdown as a dictionary (for the Figure 4.7 bars)."""
        return {
            "links": self.links_mm2,
            "buffers": self.buffers_mm2,
            "crossbars": self.crossbars_mm2,
            "total": self.total_mm2,
        }


class NocAreaModel:
    """Area accounting for a NoC topology at a given link width."""

    #: Buffer area per flit of storage (mm^2) for flip-flop based buffers at 32nm.
    FLIPFLOP_MM2_PER_FLIT_128B = 0.00035
    #: Buffer area per flit for SRAM-based buffers (flattened butterfly).
    SRAM_MM2_PER_FLIT_128B = 0.0004
    #: Crossbar area coefficient: area = k * ports^2 * (width/128)^2.
    CROSSBAR_MM2_PER_PORT2 = 0.00045

    def __init__(self, node: TechnologyNode = NODE_32NM, config: "NocConfig | None" = None):
        self.node = node
        self.config = config or NocConfig()
        self.wires = WireModel(node)

    # ------------------------------------------------------------------ parts
    def link_area_mm2(self, topology: NocTopology) -> float:
        """Repeater area of every directed link."""
        width = self.config.link_width_bits
        total = 0.0
        for a, b in topology.links():
            length = topology.link(a, b).length_mm
            total += self.wires.repeater_area_mm2(length, width)
        return total

    def buffer_area_mm2(self, topology: NocTopology) -> float:
        """Input-buffer area of every router port."""
        width_scale = self.config.link_width_bits / 128.0
        per_flit = (
            self.SRAM_MM2_PER_FLIT_128B
            if topology.name == "fbfly"
            else self.FLIPFLOP_MM2_PER_FLIT_128B
        )
        total = 0.0
        for node, in_degree in topology.in_degrees().items():
            in_ports = in_degree + 1  # plus the local port
            if topology.name == "fbfly":
                # Deep buffers cover the flight time of long links (Section 4.3.1).
                depth = self.config.buffer_flits_per_vc * 2
            elif topology.name == "nocout" and node in topology.llc_nodes:
                depth = self.config.buffer_flits_per_vc
            elif topology.name == "nocout":
                depth = 2  # trivial two-port tree nodes with a couple of flits
            else:
                depth = self.config.buffer_flits_per_vc
            vcs = 2 if (topology.name == "nocout" and node not in topology.llc_nodes) else self.config.vcs_per_port
            total += in_ports * vcs * depth * per_flit * width_scale
        return total * self.node.logic_area_scale / 0.64

    def crossbar_area_mm2(self, topology: NocTopology) -> float:
        """Switch-fabric area of every router."""
        width_scale = (self.config.link_width_bits / 128.0) ** 2
        total = 0.0
        for node, in_degree in topology.in_degrees().items():
            ports = in_degree + 1
            if topology.name == "nocout" and node not in topology.llc_nodes:
                # Tree nodes are two-input muxes, not crossbars.
                total += 0.0005 * width_scale
                continue
            total += self.CROSSBAR_MM2_PER_PORT2 * ports**2 * width_scale
        return total * self.node.logic_area_scale / 0.64

    def breakdown(self, topology: NocTopology) -> NocAreaBreakdown:
        """Full area breakdown for ``topology``."""
        return NocAreaBreakdown(
            links_mm2=self.link_area_mm2(topology),
            buffers_mm2=self.buffer_area_mm2(topology),
            crossbars_mm2=self.crossbar_area_mm2(topology),
        )

    # ------------------------------------------------------- width for budget
    def width_for_area_budget(
        self, topology: NocTopology, budget_mm2: float, min_bits: int = 16, max_bits: int = 512
    ) -> int:
        """Largest power-of-two link width whose total area fits ``budget_mm2``.

        Used by the area-normalized comparison (Figure 4.8): the mesh and the
        flattened butterfly are narrowed until they fit NOC-Out's 2.5 mm^2 budget.
        """
        if budget_mm2 <= 0:
            raise ValueError("budget_mm2 must be positive")
        width = max_bits
        while width >= min_bits:
            model = NocAreaModel(self.node, NocConfig(link_width_bits=width))
            if model.breakdown(topology).total_mm2 <= budget_mm2:
                return width
            width //= 2
        return min_bits

