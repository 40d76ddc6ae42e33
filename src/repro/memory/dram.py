"""DRAM channel models.

Section 2.4.1 measures a DDR3-1667 channel at 12.8 GB/s peak, 5.7 W, with an
effective utilization of 70 % (9 GB/s of useful bandwidth).  The 20nm projection
and the 3D study (Chapter 6) assume DDR4, which doubles per-channel bandwidth at
the same interface cost.  Main memory access latency is 45 ns in all studies
(Table 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.technology.node import TechnologyNode


@dataclass(frozen=True)
class DramChannel:
    """One DRAM channel (PHY + controller + DIMMs behind it).

    Attributes:
        peak_bandwidth_gbps: peak transfer rate in GB/s.
        effective_utilization: fraction of peak usable in steady state.
        power_w: interface power (PHY + controller).
        access_latency_ns: idle DRAM access latency.
    """

    peak_bandwidth_gbps: float
    effective_utilization: float = 0.70
    power_w: float = 5.7
    access_latency_ns: float = 45.0

    def __post_init__(self) -> None:
        if self.peak_bandwidth_gbps <= 0:
            raise ValueError("peak_bandwidth_gbps must be positive")
        if not 0 < self.effective_utilization <= 1:
            raise ValueError("effective_utilization must be in (0, 1]")

    @property
    def useful_bandwidth_gbps(self) -> float:
        """Sustainable bandwidth after accounting for DRAM inefficiencies."""
        return self.peak_bandwidth_gbps * self.effective_utilization

    def access_latency_cycles(self, node: TechnologyNode) -> int:
        """Idle access latency in core clock cycles at ``node``'s frequency."""
        return max(1, int(round(self.access_latency_ns * node.frequency_ghz)))

    def queueing_delay_cycles(self, demand_gbps: float, node: TechnologyNode) -> float:
        """Extra queueing delay when the channel runs close to saturation.

        An M/D/1-flavoured penalty on top of the idle latency; the paper
        provisions channels for worst-case demand, so this stays small in all of
        the evaluated designs but lets oversubscribed what-if configurations
        degrade gracefully.
        """
        if demand_gbps < 0:
            raise ValueError("demand_gbps must be non-negative")
        rho = min(0.999, demand_gbps / self.useful_bandwidth_gbps)
        service_cycles = 4.0
        return 0.5 * rho / (1.0 - rho) * service_cycles * node.frequency_ghz / 2.0


#: DDR3-1667 single channel (Section 2.4.1): 12.8 GB/s peak, 9 GB/s useful, 5.7 W.
DDR3_1667 = DramChannel(peak_bandwidth_gbps=12.8)

#: DDR4 channel used at 20nm and in Chapter 6: double the DDR3 per-channel bandwidth.
DDR4_2133 = DramChannel(peak_bandwidth_gbps=25.6)


def channel_for_standard(standard: str) -> DramChannel:
    """Return the channel model for a DRAM ``standard`` string ("DDR3" / "DDR4")."""
    key = standard.upper()
    if key.startswith("DDR3"):
        return DDR3_1667
    if key.startswith("DDR4"):
        return DDR4_2133
    raise KeyError(f"unknown DRAM standard {standard!r}")
