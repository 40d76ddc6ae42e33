"""Processor price estimation (Section 5.2.2).

The paper prices the conventional processor from its market price (a Xeon 5670 at
~$800) and prices the remaining chips with the Cadence InCyte chip estimator at a
production volume of 200 K units and a 50 % margin, observing that NRE and mask
costs dominate: doubling the die area raises the unit price by only ~15 % (about
$50).  This module reproduces that behaviour with an explicit NRE + mask + wafer
cost model with a yield term, and supports the production-volume sweep behind
Figure 5.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


#: Known market prices used to anchor the model (Section 5.2.2).
KNOWN_MARKET_PRICES = {
    "Conventional": 800.0,
}


@dataclass(frozen=True)
class ChipPriceEstimate:
    """Price breakdown for one chip design at one production volume."""

    design: str
    die_area_mm2: float
    volume_units: int
    nre_per_unit: float
    silicon_cost_per_unit: float
    margin: float

    @property
    def unit_price(self) -> float:
        """Selling price per chip."""
        return (self.nre_per_unit + self.silicon_cost_per_unit) * (1.0 + self.margin)


class ChipPricingModel:
    """NRE + mask + wafer/yield cost model with a fixed profit margin.

    Defaults are tuned so that a ~250 mm^2 chip at a volume of 200 K units sells
    for roughly $370 and a ~120-160 mm^2 chip for roughly $320 (Table 5.1), with
    NRE/mask costs dominating the difference.
    """

    def __init__(
        self,
        nre_cost: float = 3.5e7,
        mask_set_cost: float = 3.0e6,
        wafer_cost: float = 4500.0,
        wafer_diameter_mm: float = 300.0,
        defect_density_per_cm2: float = 0.25,
        margin: float = 0.50,
    ):
        if margin < 0:
            raise ValueError("margin must be non-negative")
        self.nre_cost = nre_cost
        self.mask_set_cost = mask_set_cost
        self.wafer_cost = wafer_cost
        self.wafer_diameter_mm = wafer_diameter_mm
        self.defect_density_per_cm2 = defect_density_per_cm2
        self.margin = margin

    # ------------------------------------------------------------------ yield
    def dies_per_wafer(self, die_area_mm2: float) -> int:
        """Gross dies per wafer (accounts for edge loss)."""
        if die_area_mm2 <= 0:
            raise ValueError("die_area_mm2 must be positive")
        radius = self.wafer_diameter_mm / 2.0
        wafer_area = math.pi * radius**2
        edge_loss = math.pi * self.wafer_diameter_mm / math.sqrt(2.0 * die_area_mm2)
        return max(1, int(wafer_area / die_area_mm2 - edge_loss))

    def die_yield(self, die_area_mm2: float) -> float:
        """Murphy-style yield model."""
        defects = self.defect_density_per_cm2 * die_area_mm2 / 100.0
        return 1.0 / (1.0 + defects) ** 2

    # ------------------------------------------------------------------ price
    def estimate(
        self, design: str, die_area_mm2: float, volume_units: int = 200_000
    ) -> ChipPriceEstimate:
        """Price estimate for ``design`` with ``die_area_mm2`` at ``volume_units``."""
        if volume_units <= 0:
            raise ValueError("volume_units must be positive")
        good_dies_per_wafer = self.dies_per_wafer(die_area_mm2) * self.die_yield(die_area_mm2)
        silicon_cost = self.wafer_cost / max(1.0, good_dies_per_wafer)
        packaging_test = 12.0 + 0.05 * die_area_mm2
        nre_per_unit = (self.nre_cost + self.mask_set_cost) / volume_units
        return ChipPriceEstimate(
            design=design,
            die_area_mm2=die_area_mm2,
            volume_units=volume_units,
            nre_per_unit=nre_per_unit,
            silicon_cost_per_unit=silicon_cost + packaging_test,
            margin=self.margin,
        )

    def price(
        self, design: str, die_area_mm2: float, volume_units: int = 200_000
    ) -> float:
        """Unit price, using the known market price when one exists."""
        if design in KNOWN_MARKET_PRICES:
            return KNOWN_MARKET_PRICES[design]
        return self.estimate(design, die_area_mm2, volume_units).unit_price
