"""Datacenter total-cost-of-ownership analysis (Chapter 5).

The TCO model follows EETCO's four expense categories (infrastructure, server and
networking hardware, power, maintenance) with the parameters of Table 5.2;
processor prices come from an NRE + mask + wafer/yield cost model (the paper's
Cadence InCyte substitution).  The datacenter model packs processors into 1U
servers and 17 kW racks under a 20 MW facility budget and reports performance,
TCO, performance/TCO, and performance/Watt for each server-chip design.
"""

from repro.tco.params import TcoParameters, DEFAULT_TCO_PARAMETERS
from repro.tco.pricing import ChipPricingModel, ChipPriceEstimate, KNOWN_MARKET_PRICES
from repro.tco.server import ServerConfig, RackConfig, ServerDesign
from repro.tco.model import TcoBreakdown, TcoModel
from repro.tco.datacenter import DatacenterDesign, DatacenterResult

__all__ = [
    "TcoParameters",
    "DEFAULT_TCO_PARAMETERS",
    "ChipPricingModel",
    "ChipPriceEstimate",
    "KNOWN_MARKET_PRICES",
    "ServerConfig",
    "RackConfig",
    "ServerDesign",
    "TcoBreakdown",
    "TcoModel",
    "DatacenterDesign",
    "DatacenterResult",
]
