"""DRAM channel timing model for the simulator."""

from __future__ import annotations

from repro.memory.dram import DramChannel, DDR3_1667
from repro.technology.node import NODE_40NM, TechnologyNode


class MemoryChannelSim:
    """One DRAM channel with fixed access latency and bandwidth-limited service.

    Requests are serviced in arrival order; each 64-byte transfer occupies the
    channel for ``service_cycles`` (derived from the channel's useful bandwidth),
    on top of the fixed DRAM access latency.  Requests that arrive while the
    channel is busy queue behind it, so oversubscribed configurations see rising
    memory latency -- the behaviour the paper's bandwidth provisioning avoids.
    The measured window (``SimulatedSystem._run_window``) issues the requests
    and writes the channel's counters back when it ends.
    """

    def __init__(
        self,
        channel: DramChannel = DDR3_1667,
        node: TechnologyNode = NODE_40NM,
        line_bytes: int = 64,
    ):
        self.channel = channel
        self.node = node
        self.line_bytes = line_bytes
        self.access_latency_cycles = channel.access_latency_cycles(node)
        bytes_per_cycle = channel.useful_bandwidth_gbps / (node.frequency_ghz)
        self.service_cycles = max(1.0, line_bytes / max(1e-9, bytes_per_cycle))
        self._next_free: float = 0.0
        self.requests = 0
        self.busy_cycles = 0.0

    def utilization(self, elapsed_cycles: float) -> float:
        """Fraction of elapsed time the channel's data bus was busy."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / elapsed_cycles)
