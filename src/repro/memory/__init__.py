"""Off-chip memory system models: DRAM channels and bandwidth provisioning."""

from repro.memory.dram import DramChannel, DDR3_1667, DDR4_2133, channel_for_standard
from repro.memory.provisioning import channels_required

__all__ = [
    "DramChannel",
    "DDR3_1667",
    "DDR4_2133",
    "channel_for_standard",
    "channels_required",
]
