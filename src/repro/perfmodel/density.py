"""Performance density -- the paper's optimization metric.

Performance density (PD) is throughput per unit area (Section 2.3 / 3.1):
``PD = aggregate application IPC / area_mm2``.  Chapter 6 extends the metric to
3D stacks as throughput per unit volume, which for equidistant stacked dies is
``aggregate IPC / (footprint_mm2 * num_dies)`` (see :mod:`repro.three_d.density`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AreaBudget:
    """Itemized silicon area of a design (pod or full chip).

    Attributes:
        cores_mm2: area of all cores (including their L1s).
        llc_mm2: area of the LLC.
        interconnect_mm2: area of the on-chip network.
        memory_interfaces_mm2: area of DRAM PHYs + controllers.
        soc_misc_mm2: area of miscellaneous SoC components.
    """

    cores_mm2: float = 0.0
    llc_mm2: float = 0.0
    interconnect_mm2: float = 0.0
    memory_interfaces_mm2: float = 0.0
    soc_misc_mm2: float = 0.0

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if value < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def total_mm2(self) -> float:
        """Total area of the budget."""
        return (
            self.cores_mm2
            + self.llc_mm2
            + self.interconnect_mm2
            + self.memory_interfaces_mm2
            + self.soc_misc_mm2
        )

    def as_dict(self) -> "dict[str, float]":
        """Itemized areas as a plain dictionary."""
        return {
            "cores_mm2": self.cores_mm2,
            "llc_mm2": self.llc_mm2,
            "interconnect_mm2": self.interconnect_mm2,
            "memory_interfaces_mm2": self.memory_interfaces_mm2,
            "soc_misc_mm2": self.soc_misc_mm2,
        }

    def __add__(self, other: "AreaBudget") -> "AreaBudget":
        return AreaBudget(
            cores_mm2=self.cores_mm2 + other.cores_mm2,
            llc_mm2=self.llc_mm2 + other.llc_mm2,
            interconnect_mm2=self.interconnect_mm2 + other.interconnect_mm2,
            memory_interfaces_mm2=self.memory_interfaces_mm2 + other.memory_interfaces_mm2,
            soc_misc_mm2=self.soc_misc_mm2 + other.soc_misc_mm2,
        )

    def scaled(self, factor: float) -> "AreaBudget":
        """Budget with every component multiplied by ``factor`` (e.g. pod count)."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return AreaBudget(
            cores_mm2=self.cores_mm2 * factor,
            llc_mm2=self.llc_mm2 * factor,
            interconnect_mm2=self.interconnect_mm2 * factor,
            memory_interfaces_mm2=self.memory_interfaces_mm2 * factor,
            soc_misc_mm2=self.soc_misc_mm2 * factor,
        )


def performance_density(aggregate_ipc: float, area_mm2: float, num_dies: int = 1) -> float:
    """Performance density: throughput per mm^2 (per die for 3D stacks).

    Args:
        aggregate_ipc: aggregate application instructions per cycle.
        area_mm2: die footprint in mm^2.
        num_dies: number of stacked logic dies (1 for planar chips); Chapter 6
            defines 3D performance density as performance per unit volume, which is
            proportional to performance per footprint area divided by the number of
            stacked dies.
    """
    if area_mm2 <= 0:
        raise ValueError("area_mm2 must be positive")
    if num_dies < 1:
        raise ValueError("num_dies must be >= 1")
    if aggregate_ipc < 0:
        raise ValueError("aggregate_ipc must be non-negative")
    return aggregate_ipc / (area_mm2 * num_dies)
