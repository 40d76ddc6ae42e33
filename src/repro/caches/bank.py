"""Physical model of one LLC bank."""

from __future__ import annotations

from dataclasses import dataclass

from repro.technology.cacti import CacheEstimate, SramModel
from repro.technology.node import NODE_40NM, TechnologyNode


@dataclass(frozen=True)
class CacheBank:
    """One physical bank of the last-level cache.

    Attributes:
        capacity_mb: bank capacity in MB.
        associativity: set associativity (the paper uses 16-way LLCs).
        line_bytes: cache line size (64 B throughout the paper).
        node: technology node the bank is built in.
    """

    capacity_mb: float
    associativity: int = 16
    line_bytes: int = 64
    node: TechnologyNode = NODE_40NM

    def __post_init__(self) -> None:
        if self.capacity_mb <= 0:
            raise ValueError("capacity_mb must be positive")
        if self.associativity < 1:
            raise ValueError("associativity must be >= 1")

    @property
    def num_lines(self) -> int:
        """Number of cache lines in the bank."""
        return int(self.capacity_mb * 1024 * 1024) // self.line_bytes

    @property
    def num_sets(self) -> int:
        """Number of sets in the bank."""
        return max(1, self.num_lines // self.associativity)

    def estimate(self) -> CacheEstimate:
        """CACTI-like area/latency/energy estimate for this bank."""
        return SramModel(self.node, self.associativity, self.line_bytes).estimate(self.capacity_mb)

    @property
    def access_latency_cycles(self) -> int:
        """Bank access latency (load-to-use), excluding the interconnect."""
        return self.estimate().access_latency_cycles

    @property
    def area_mm2(self) -> float:
        """Bank silicon area."""
        return self.estimate().area_mm2

    @property
    def power_w(self) -> float:
        """Bank power (leakage plus nominal activity)."""
        return SramModel(self.node, self.associativity, self.line_bytes).power_w(self.capacity_mb)
