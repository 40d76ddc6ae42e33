"""TCO model parameters (paper Table 5.2)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TcoParameters:
    """Datacenter cost and physical parameters used by the TCO model.

    The defaults reproduce Table 5.2 plus the experimental-setup constants of
    Section 5.2.3 (20 MW facility, 17 kW racks, $0.07/kWh electricity) and the
    amortization schedules of Section 5.2.1.
    """

    # --- rack geometry -------------------------------------------------------
    rack_units: int = 42
    rack_width_m: float = 0.6
    rack_depth_m: float = 1.2
    inter_rack_space_m: float = 1.2
    rack_power_limit_w: float = 17_000.0

    # --- facility ------------------------------------------------------------
    facility_power_budget_w: float = 20_000_000.0
    infrastructure_cost_per_m2: float = 3000.0
    cooling_power_equipment_cost_per_w: float = 12.5
    cooling_space_overhead: float = 0.20
    spue: float = 1.3
    pue: float = 1.3
    electricity_cost_per_kwh: float = 0.07

    # --- per-rack / per-server hardware -------------------------------------
    personnel_cost_per_rack_month: float = 200.0
    network_gear_power_w: float = 360.0
    network_gear_cost_per_rack: float = 10_000.0
    motherboard_power_w: float = 25.0
    motherboard_cost: float = 330.0
    disk_power_w: float = 10.0
    disk_cost: float = 180.0
    dram_power_w_per_gb: float = 1.0
    dram_cost_per_gb: float = 25.0

    # --- reliability ---------------------------------------------------------
    disk_mttf_years: float = 100.0
    dram_mttf_years_per_gb: float = 800.0
    processor_mttf_years: float = 30.0

    # --- amortization schedules (years) --------------------------------------
    infrastructure_depreciation_years: float = 15.0
    server_amortization_years: float = 3.0
    network_amortization_years: float = 4.0

    def __post_init__(self) -> None:
        if self.rack_power_limit_w <= 0 or self.facility_power_budget_w <= 0:
            raise ValueError("power budgets must be positive")
        if self.pue < 1.0 or self.spue < 1.0:
            raise ValueError("PUE and SPUE must be >= 1")

    @property
    def rack_area_m2(self) -> float:
        """Floor area of one rack including inter-rack space."""
        return self.rack_width_m * (self.rack_depth_m + self.inter_rack_space_m)


#: The paper's Table 5.2 parameter set.
DEFAULT_TCO_PARAMETERS = TcoParameters()
