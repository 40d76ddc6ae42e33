"""Repeatered on-die wire models.

Chapter 4 of the paper models semi-global wires with a 200nm pitch and
power-delay-optimized repeaters yielding 125 ps/mm delay and 50 fJ/bit/mm on random
data, with repeaters responsible for 19% of link energy.  Link wires are routed
over logic, so only repeater area counts against the NoC area budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.technology.node import TechnologyNode


@dataclass(frozen=True)
class WireModel:
    """Physical model of repeatered on-die links.

    Attributes:
        node: target technology node (provides ps/mm).
        repeater_area_mm2_per_bit_mm: repeater area per bit of link width per mm of
            link length.  Derived so that a 128-bit, full-chip-length link costs a
            small fraction of a mm^2, matching the paper's link-area breakdown.
    """

    node: TechnologyNode
    repeater_area_mm2_per_bit_mm: float = 0.000035

    def reach_per_cycle_mm(self) -> float:
        """How many millimetres a signal covers in one clock cycle."""
        return 1000.0 / (self.node.wire_delay_ps_per_mm * self.node.frequency_ghz)

    def repeater_area_mm2(self, length_mm: float, bits: int) -> float:
        """Silicon area consumed by repeaters for a ``bits``-wide link of ``length_mm``."""
        if bits < 0:
            raise ValueError("bits must be non-negative")
        return self.repeater_area_mm2_per_bit_mm * bits * length_mm
