"""Server and rack composition (Section 5.2.3).

The experimental setup fills each 1U server with as many processor sockets as the
remaining power budget allows after the motherboard, disks, memory, and the
server's share of rack-level gear are accounted for; racks are filled with 1U
servers up to the rack power limit; the datacenter is filled with racks up to the
facility power budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.chip import ScaleOutChip
from repro.tco.params import DEFAULT_TCO_PARAMETERS, TcoParameters


@dataclass(frozen=True)
class ServerConfig:
    """Configuration of one 1U server.

    Attributes:
        memory_gb: DRAM capacity per 1U server (the paper evaluates 32/64/128 GB).
        disks: number of disks.
    """

    memory_gb: int = 64
    disks: int = 2

    def __post_init__(self) -> None:
        if self.memory_gb <= 0:
            raise ValueError("memory_gb must be positive")
        if self.disks < 0:
            raise ValueError("disks must be non-negative")


@dataclass(frozen=True)
class RackConfig:
    """Rack-level constants derived from the TCO parameters."""

    params: TcoParameters = DEFAULT_TCO_PARAMETERS

    @property
    def usable_power_w(self) -> float:
        """Rack power available to servers after the shared network gear."""
        return self.params.rack_power_limit_w - self.params.network_gear_power_w


@dataclass(frozen=True)
class ServerDesign:
    """A 1U server built around a particular server chip.

    Attributes:
        chip: the processor design populating the server's sockets.
        chip_performance: average aggregate IPC of one chip (pre-computed).
        config: memory/disk configuration.
        params: TCO parameters.
    """

    chip: ScaleOutChip
    chip_performance: float
    config: ServerConfig = ServerConfig()
    params: TcoParameters = DEFAULT_TCO_PARAMETERS

    # ------------------------------------------------------------------ power
    @property
    def non_processor_power_w(self) -> float:
        """Power of everything in the 1U box except the processors."""
        return (
            self.params.motherboard_power_w
            + self.config.disks * self.params.disk_power_w
            + self.config.memory_gb * self.params.dram_power_w_per_gb
        )

    @property
    def sockets(self) -> int:
        """Processors per 1U server: fill the remaining per-server power budget.

        The rack's usable power divided by 42 servers bounds per-server power;
        after subtracting the non-processor components, the rest is divided by the
        chip TDP (at least one socket).
        """
        rack = RackConfig(self.params)
        per_server_budget = rack.usable_power_w / self.params.rack_units
        processor_budget = per_server_budget / self.params.spue - self.non_processor_power_w
        if processor_budget <= 0:
            return 1
        return max(1, int(processor_budget // max(1e-9, self.chip.power_w)))

    @property
    def server_power_w(self) -> float:
        """Wall power of one server, including fan/PSU overhead (SPUE)."""
        it_power = self.non_processor_power_w + self.sockets * self.chip.power_w
        return it_power * self.params.spue

    # ------------------------------------------------------------ performance
    @property
    def server_performance(self) -> float:
        """Aggregate IPC of one server (all sockets)."""
        return self.sockets * self.chip_performance

    # ------------------------------------------------------------------- cost
    def hardware_cost(self, processor_price: float) -> float:
        """Acquisition cost of one server."""
        return (
            self.params.motherboard_cost
            + self.config.disks * self.params.disk_cost
            + self.config.memory_gb * self.params.dram_cost_per_gb
            + self.sockets * processor_price
        )

    # ------------------------------------------------------------------ racks
    def servers_per_rack(self) -> int:
        """1U servers per rack, limited by both space (42U) and rack power."""
        rack = RackConfig(self.params)
        by_power = int(rack.usable_power_w // max(1e-9, self.server_power_w))
        return max(1, min(self.params.rack_units, by_power))
