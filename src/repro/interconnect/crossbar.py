"""Crossbar (dancehall) interconnect model.

Table 3.1 gives the crossbar latencies the paper simulates: 4 cycles up to 8
cores, then 5, 7, and 11 cycles at 16, 32, and 64 cores respectively -- roughly
two additional cycles per doubling beyond 8 ports as the arbitration and wiring
grow.  Crossbar area grows quadratically with port count, which is what makes
dancehall organizations unattractive beyond pod-sized systems (Section 4.1).
"""

from __future__ import annotations

import math

from repro.interconnect.base import InterconnectModel
from repro.interconnect.floorplan import Floorplan
from repro.technology.node import NODE_40NM, TechnologyNode


class CrossbarInterconnect(InterconnectModel):
    """Dancehall crossbar connecting cores to LLC banks."""

    name = "crossbar"

    #: Latency table from the paper (cores -> cycles); interpolated beyond 64.
    _LATENCY_TABLE = {1: 4, 2: 4, 4: 4, 8: 4, 16: 5, 32: 7, 64: 11}

    def __init__(self, ports_per_switch_interface: int = 1):
        if ports_per_switch_interface < 1:
            raise ValueError("ports_per_switch_interface must be >= 1")
        #: Cores can share a switch interface (Section 3.4.3 pairs in-order cores)
        #: to reduce effective port count at negligible performance cost.
        self.ports_per_switch_interface = ports_per_switch_interface

    # --------------------------------------------------------------- latency
    def latency_cycles(self, floorplan: Floorplan, node: TechnologyNode = NODE_40NM) -> float:
        """Crossbar traversal latency as a function of the number of ports."""
        ports = max(1, math.ceil(floorplan.cores / self.ports_per_switch_interface))
        if ports <= 8:
            return 4.0
        # Two extra cycles per doubling beyond 8 ports, matching 16 -> 5 is a
        # special case of the paper's table; use the table where it applies.
        key = 1 << math.ceil(math.log2(ports))
        if key in self._LATENCY_TABLE:
            return float(self._LATENCY_TABLE[key])
        doublings = math.log2(key / 64)
        return 11.0 + 4.0 * doublings

    # ------------------------------------------------------------------ area
    def area_mm2(
        self,
        floorplan: Floorplan,
        node: TechnologyNode = NODE_40NM,
        link_width_bits: int = 128,
    ) -> float:
        """Crossbar switch area: quadratic in port count, linear in link width."""
        ports = max(1, math.ceil(floorplan.cores / self.ports_per_switch_interface))
        banks = max(1, floorplan.cores // 4)
        total_ports = ports + banks
        area_40nm = 0.0009 * total_ports**2 * (link_width_bits / 128.0)
        return max(0.2, area_40nm * node.logic_area_scale)
