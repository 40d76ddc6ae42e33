"""Design-space comparison engine (Tables 2.3, 2.4, and 3.2).

Tabulates a collection of composed chip designs from their own figures into the
table the paper reports: performance density, core count, LLC capacity, memory
channels, die area, power, and performance per Watt for every design, plus
normalized ratios between designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.chip import ScaleOutChip


@dataclass(frozen=True)
class DesignRow:
    """One row of the design comparison table.

    Field names mirror the columns of the paper's Table 3.2.
    """

    design: str
    node: str
    performance_density: float
    cores: int
    llc_mb: float
    memory_channels: int
    die_area_mm2: float
    power_w: float
    performance: float
    performance_per_watt: float
    pods: int = 1

    def as_dict(self) -> "dict[str, float | int | str]":
        """Row as a plain dictionary (for printing and serialization)."""
        return {
            "design": self.design,
            "node": self.node,
            "PD": round(self.performance_density, 3),
            "cores": self.cores,
            "LLC (MB)": round(self.llc_mb, 1),
            "MCs": self.memory_channels,
            "die (mm2)": round(self.die_area_mm2, 0),
            "power (W)": round(self.power_w, 0),
            "perf": round(self.performance, 1),
            "perf/W": round(self.performance_per_watt, 2),
            "pods": self.pods,
        }


@dataclass(frozen=True)
class DesignComparison:
    """A collection of design rows with normalization helpers."""

    rows: "tuple[DesignRow, ...]"

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("a DesignComparison needs at least one row")

    def row(self, design: str) -> DesignRow:
        """Look up a row by (substring of the) design name."""
        for candidate in self.rows:
            if candidate.design.lower() == design.lower():
                return candidate
        for candidate in self.rows:
            if design.lower() in candidate.design.lower():
                return candidate
        raise KeyError(f"no design matching {design!r}")

    def pd_ratio(self, design: str, baseline: str) -> float:
        """Performance-density ratio of ``design`` over ``baseline``."""
        return self.row(design).performance_density / self.row(baseline).performance_density

    def names(self) -> "list[str]":
        """Design names in table order."""
        return [r.design for r in self.rows]

    def as_dicts(self) -> "list[dict[str, float | int | str]]":
        """All rows as dictionaries (ready to print as a table)."""
        return [r.as_dict() for r in self.rows]


def compare_designs(designs: Sequence[ScaleOutChip]) -> DesignComparison:
    """Assemble the comparison table from each design's own figures."""
    rows: "list[DesignRow]" = []
    for chip in designs:
        performance = chip.performance()
        rows.append(
            DesignRow(
                design=chip.name,
                node=chip.node.name,
                performance_density=performance / (chip.die_area_mm2 * chip.num_dies),
                cores=chip.total_cores,
                llc_mb=chip.total_llc_mb,
                memory_channels=chip.memory_channels,
                die_area_mm2=chip.die_area_mm2,
                power_w=chip.power_w,
                performance=performance,
                performance_per_watt=performance / chip.power_w,
                pods=chip.num_pods,
            )
        )
    return DesignComparison(tuple(rows))
