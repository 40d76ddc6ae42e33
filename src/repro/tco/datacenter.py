"""Datacenter-level evaluation: performance, TCO, perf/TCO, perf/Watt (Chapter 5).

The facility has a fixed 20 MW power budget; racks are limited to 17 kW.  For a
given server-chip design the datacenter model derives sockets per 1U server,
servers per rack, and racks per facility, then reports aggregate performance,
monthly TCO, performance per TCO dollar, and performance per Watt -- the metrics
behind Figures 5.1-5.5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.chip import ScaleOutChip
from repro.perfmodel.analytic import AnalyticPerformanceModel
from repro.tco.model import TcoBreakdown, TcoModel
from repro.tco.params import DEFAULT_TCO_PARAMETERS, TcoParameters
from repro.tco.pricing import ChipPricingModel
from repro.tco.server import ServerConfig, ServerDesign


@dataclass(frozen=True)
class DatacenterResult:
    """Datacenter-level metrics for one server-chip design."""

    design: str
    memory_gb: int
    sockets_per_server: int
    servers_per_rack: int
    racks: int
    servers: int
    performance: float
    monthly_tco: float
    tco_breakdown: TcoBreakdown
    total_power_w: float

    @property
    def performance_per_tco(self) -> float:
        """Aggregate performance per monthly TCO dollar (scaled by 1000 for readability)."""
        return self.performance / self.monthly_tco * 1000.0

    @property
    def performance_per_watt(self) -> float:
        """Aggregate performance per Watt of facility power."""
        return self.performance / self.total_power_w


class DatacenterDesign:
    """Builds and evaluates a datacenter around one server-chip design.

    A chip brings its own performance (:meth:`ScaleOutChip.performance`);
    ``model`` is the analytic model the service-level sizer calibrates with.
    """

    def __init__(
        self,
        params: TcoParameters = DEFAULT_TCO_PARAMETERS,
        pricing: "ChipPricingModel | None" = None,
        model: "AnalyticPerformanceModel | None" = None,
    ):
        self.params = params
        self.pricing = pricing or ChipPricingModel()
        self.model = model or AnalyticPerformanceModel()
        self.tco_model = TcoModel(params)

    def build_server(self, chip: ScaleOutChip, memory_gb: int = 64) -> ServerDesign:
        """The 1U server built around ``chip`` under this design's TCO parameters.

        Shared by the datacenter evaluation and the service-level cluster sizer
        so both layers agree on sockets per server and rack packing.
        """
        return ServerDesign(
            chip=chip,
            config=ServerConfig(memory_gb=memory_gb),
            params=self.params,
        )

    def evaluate(
        self,
        chip: ScaleOutChip,
        memory_gb: int = 64,
        processor_price: "float | None" = None,
        volume_units: int = 200_000,
    ) -> DatacenterResult:
        """Evaluate the datacenter built from ``chip``-based servers."""
        price = (
            processor_price
            if processor_price is not None
            else self.pricing.price(chip.name, chip.die_area_mm2, volume_units)
        )
        server = self.build_server(chip, memory_gb=memory_gb)
        servers_per_rack = server.servers_per_rack()
        rack_power = (
            servers_per_rack * server.server_power_w + self.params.network_gear_power_w
        )
        racks = max(1, int(self.params.facility_power_budget_w // rack_power))
        servers = racks * servers_per_rack
        performance = servers * server.server_performance
        tco = self.tco_model.monthly_tco(server, servers, racks, price)
        total_power = racks * rack_power * self.params.pue
        return DatacenterResult(
            design=chip.name,
            memory_gb=memory_gb,
            sockets_per_server=server.sockets,
            servers_per_rack=servers_per_rack,
            racks=racks,
            servers=servers,
            performance=performance,
            monthly_tco=tco.total,
            tco_breakdown=tco,
            total_power_w=total_power,
        )

    def compare(
        self,
        chips: Sequence[ScaleOutChip],
        memory_gb: int = 64,
        baseline: str = "Conventional",
    ) -> "dict[str, dict[str, float]]":
        """Normalized performance and TCO for a set of designs (Figures 5.1/5.2)."""
        results = {chip.name: self.evaluate(chip, memory_gb) for chip in chips}
        base = results[baseline] if baseline in results else next(iter(results.values()))
        comparison: "dict[str, dict[str, float]]" = {}
        for name, result in results.items():
            comparison[name] = {
                "performance": result.performance / base.performance,
                "tco": result.monthly_tco / base.monthly_tco,
                "performance_per_tco": result.performance_per_tco,
                "performance_per_watt": result.performance_per_watt,
            }
        return comparison

