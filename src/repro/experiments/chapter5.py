"""Chapter 5 experiments: Scale-Out Processors with large dies (datacenter TCO).

Covers Table 5.1 (server chip characteristics), Figures 5.1 / 5.2 (datacenter
performance and TCO normalized to the conventional design), Figures 5.3 / 5.4
(performance/TCO and performance/Watt across memory capacities), and Figure 5.5
(sensitivity to processor price / production volume).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.chip import ScaleOutChip
from repro.core.designs import (
    build_conventional,
    build_scale_out,
    build_single_pod,
    build_tiled,
)
from repro.runtime.executor import SERIAL_EXECUTOR, SweepExecutor
from repro.tco.datacenter import DatacenterDesign, DatacenterResult
from repro.tco.params import DEFAULT_TCO_PARAMETERS
from repro.tco.pricing import ChipPricingModel
from repro.technology.node import NODE_40NM
from repro.workloads.suite import WorkloadSuite, default_suite


def _datacenter_point(
    datacenter: DatacenterDesign,
    chip: ScaleOutChip,
    memory_gb: int,
    processor_price: "float | None" = None,
) -> DatacenterResult:
    return datacenter.evaluate(chip, memory_gb=memory_gb, processor_price=processor_price)


def chapter5_chip_set(
    suite: "WorkloadSuite | None" = None,
) -> "list[ScaleOutChip]":
    """The seven server chips of Table 5.1 (all at 40nm)."""
    suite = suite or default_suite()
    return [
        build_conventional(NODE_40NM, suite),
        build_tiled("ooo", NODE_40NM, suite),
        build_single_pod("ooo", NODE_40NM, suite),
        build_scale_out("ooo", NODE_40NM, suite),
        build_tiled("inorder", NODE_40NM, suite),
        build_single_pod("inorder", NODE_40NM, suite),
        build_scale_out("inorder", NODE_40NM, suite),
    ]


def table_5_1_chip_characteristics(
    suite: "WorkloadSuite | None" = None,
) -> "list[dict[str, object]]":
    """Server chip characteristics: cores, LLC, channels, power, area, price."""
    pricing = ChipPricingModel()
    rows = []
    for chip in chapter5_chip_set(suite):
        rows.append(
            {
                "design": chip.name,
                "cores": chip.total_cores,
                "llc_mb": chip.total_llc_mb,
                "memory_channels": chip.memory_channels,
                "power_w": round(chip.power_w, 0),
                "area_mm2": round(chip.die_area_mm2, 0),
                "price_usd": round(pricing.price(chip.name, chip.die_area_mm2), 0),
            }
        )
    return rows


def figures_5_1_5_2_performance_and_tco(
    memory_gb: int = 64,
    suite: "WorkloadSuite | None" = None,
) -> "list[dict[str, object]]":
    """Datacenter performance and TCO normalized to the conventional design."""
    suite = suite or default_suite()
    datacenter = DatacenterDesign()
    comparison = datacenter.compare(chapter5_chip_set(suite), memory_gb=memory_gb)
    return [
        {
            "design": name,
            "normalized_performance": round(row["performance"], 2),
            "normalized_tco": round(row["tco"], 2),
        }
        for name, row in comparison.items()
    ]


def figures_5_3_5_4_efficiency(
    memory_capacities_gb: Sequence[int] = (32, 64, 128),
    suite: "WorkloadSuite | None" = None,
    executor: "SweepExecutor | None" = None,
) -> "list[dict[str, object]]":
    """Performance/TCO and performance/Watt across server memory capacities."""
    suite = suite or default_suite()
    executor = executor or SERIAL_EXECUTOR
    datacenter = DatacenterDesign()
    chips = chapter5_chip_set(suite)
    points = [
        (datacenter, chip, memory_gb)
        for memory_gb in memory_capacities_gb
        for chip in chips
    ]
    rows = []
    for (_, chip, memory_gb), result in zip(points, executor.map(_datacenter_point, points)):
        rows.append(
            {
                "design": chip.name,
                "memory_gb": memory_gb,
                "performance_per_tco": round(result.performance_per_tco, 3),
                "performance_per_watt": round(result.performance_per_watt, 4),
            }
        )
    return rows


def figure_5_5_price_sensitivity(
    volumes: Sequence[int] = (40_000, 100_000, 200_000, 500_000, 1_000_000),
    memory_gb: int = 64,
    suite: "WorkloadSuite | None" = None,
    executor: "SweepExecutor | None" = None,
) -> "list[dict[str, object]]":
    """Performance/TCO as a function of processor price (production volume sweep)."""
    suite = suite or default_suite()
    executor = executor or SERIAL_EXECUTOR
    datacenter = DatacenterDesign()
    pricing = ChipPricingModel()
    sweep = [
        (chip, volume, pricing.price(chip.name, chip.die_area_mm2, volume))
        for chip in chapter5_chip_set(suite)
        for volume in volumes
    ]
    results = executor.map(
        _datacenter_point,
        [(datacenter, chip, memory_gb, price) for chip, _, price in sweep],
    )
    rows = []
    for (chip, volume, price), result in zip(sweep, results):
        rows.append(
            {
                "design": chip.name,
                "volume": volume,
                "price_usd": round(price, 0),
                "performance_per_tco": round(result.performance_per_tco, 3),
            }
        )
    return rows


def table_5_2_parameters() -> "list[dict[str, object]]":
    """TCO parameters (Table 5.2)."""
    p = DEFAULT_TCO_PARAMETERS
    return [
        {"parameter": "infrastructure_cost_per_m2", "value": p.infrastructure_cost_per_m2},
        {"parameter": "cooling_power_equipment_cost_per_w", "value": p.cooling_power_equipment_cost_per_w},
        {"parameter": "pue", "value": p.pue},
        {"parameter": "spue", "value": p.spue},
        {"parameter": "electricity_cost_per_kwh", "value": p.electricity_cost_per_kwh},
        {"parameter": "personnel_cost_per_rack_month", "value": p.personnel_cost_per_rack_month},
        {"parameter": "network_gear_cost_per_rack", "value": p.network_gear_cost_per_rack},
        {"parameter": "motherboard_cost", "value": p.motherboard_cost},
        {"parameter": "disk_cost", "value": p.disk_cost},
        {"parameter": "dram_cost_per_gb", "value": p.dram_cost_per_gb},
    ]
