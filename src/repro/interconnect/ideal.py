"""Ideal fixed-latency interconnect (the paper's upper-bound design point)."""

from __future__ import annotations

from repro.interconnect.base import InterconnectModel
from repro.interconnect.floorplan import Floorplan
from repro.technology.node import NODE_40NM, TechnologyNode


class IdealInterconnect(InterconnectModel):
    """A 4-cycle interconnect whose latency is independent of core count.

    The "ideal" processor of Chapter 2 pairs a modestly sized LLC with this
    interconnect to establish the performance-density upper bound that Scale-Out
    Processors approach.
    """

    name = "ideal"

    def latency_cycles(self, floorplan: Floorplan, node: TechnologyNode = NODE_40NM) -> float:
        """Fixed latency regardless of the number of connected components."""
        return 4.0

    def area_mm2(self, floorplan: Floorplan, node: TechnologyNode = NODE_40NM) -> float:
        """Idealized wiring is charged a nominal area floor (Table 2.1 lower bound)."""
        return 0.2
