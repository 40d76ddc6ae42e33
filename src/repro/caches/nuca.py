"""Banked non-uniform cache architecture (NUCA) last-level cache.

The paper evaluates a two-level hierarchy with a shared NUCA LLC (Section 2.1.3):
the LLC is split into banks; dancehall (conventional / scale-out pod) designs use
one bank per four cores, tiled designs use one bank per tile, and NOC-Out
concentrates banks into a central row of cache-only tiles.  The physical bank
parameters come from :class:`repro.caches.bank.CacheBank`; the *network* part of
the access latency comes from :mod:`repro.interconnect`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.caches.bank import CacheBank
from repro.technology.node import NODE_40NM, TechnologyNode


@dataclass(frozen=True)
class NucaLLC:
    """A banked, shared last-level cache.

    Attributes:
        total_capacity_mb: aggregate LLC capacity.
        num_banks: number of independently accessible banks.
        associativity: per-bank associativity.
        line_bytes: cache line size.
        node: technology node.
    """

    total_capacity_mb: float
    num_banks: int
    associativity: int = 16
    line_bytes: int = 64
    node: TechnologyNode = NODE_40NM

    def __post_init__(self) -> None:
        if self.total_capacity_mb <= 0:
            raise ValueError("total_capacity_mb must be positive")
        if self.num_banks < 1:
            raise ValueError("num_banks must be >= 1")

    # ----------------------------------------------------------------- banks
    @property
    def bank_capacity_mb(self) -> float:
        """Capacity of each individual bank."""
        return self.total_capacity_mb / self.num_banks

    def bank(self) -> CacheBank:
        """Physical model of a single bank."""
        return CacheBank(
            capacity_mb=self.bank_capacity_mb,
            associativity=self.associativity,
            line_bytes=self.line_bytes,
            node=self.node,
        )

    # -------------------------------------------------------------- physical
    @property
    def bank_access_latency_cycles(self) -> int:
        """Access latency of one bank (excluding the interconnect)."""
        return self.bank().access_latency_cycles

    @property
    def area_mm2(self) -> float:
        """Total LLC area across all banks."""
        return self.bank().area_mm2 * self.num_banks

    @property
    def power_w(self) -> float:
        """Total LLC power across all banks."""
        return self.bank().power_w * self.num_banks

    # ------------------------------------------------------------ contention
    def bank_utilization(self, accesses_per_cycle: float, service_cycles: float = 2.0) -> float:
        """Average utilization of each bank given an aggregate access rate."""
        if accesses_per_cycle < 0:
            raise ValueError("accesses_per_cycle must be non-negative")
        return min(1.0, accesses_per_cycle * service_cycles / self.num_banks)

    def queueing_delay_cycles(self, accesses_per_cycle: float, service_cycles: float = 2.0) -> float:
        """M/D/1-style queueing delay per access at the banks.

        Kept deliberately mild: the paper reports that differences in latency, not
        bandwidth, drive the results (Section 4.4.1), so the banks are provisioned
        to stay uncongested; this term only matters in oversubscribed corner cases.
        """
        rho = self.bank_utilization(accesses_per_cycle, service_cycles)
        if rho >= 0.999:
            rho = 0.999
        return 0.5 * rho / (1.0 - rho) * service_cycles

    # ----------------------------------------------------------- bank layout
    @staticmethod
    def banks_for_cores(cores: int, cores_per_bank: int = 4) -> int:
        """Paper's banking rule: one bank per ``cores_per_bank`` cores (min 1)."""
        if cores < 1:
            raise ValueError("cores must be >= 1")
        if cores_per_bank < 1:
            raise ValueError("cores_per_bank must be >= 1")
        return max(1, int(math.ceil(cores / cores_per_bank)))
