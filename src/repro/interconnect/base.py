"""Abstract interface for analytic interconnect models."""

from __future__ import annotations

import abc

from repro.interconnect.floorplan import Floorplan
from repro.technology.node import NODE_40NM, TechnologyNode


class InterconnectModel(abc.ABC):
    """Average-latency/area/power model of a core-to-LLC interconnect.

    The latency returned by :meth:`latency_cycles` is the average one-way
    zero-load latency from a core to an LLC bank.  The analytic performance model
    adds it to the bank access latency to form the LLC portion of the average
    memory access time, consistent with how the paper parametrizes its model (the
    response traversal overlaps with downstream processing and the per-hop figures
    already include both router and channel delay).
    """

    #: Short name used in tables and factory lookups.
    name: str = "abstract"

    # --------------------------------------------------------------- latency
    @abc.abstractmethod
    def latency_cycles(self, floorplan: Floorplan, node: TechnologyNode = NODE_40NM) -> float:
        """Average one-way core-to-LLC-bank network latency in cycles."""

    # ------------------------------------------------------------------ area
    @abc.abstractmethod
    def area_mm2(self, floorplan: Floorplan, node: TechnologyNode = NODE_40NM) -> float:
        """Silicon area of routers, buffers, and link repeaters."""

    # ----------------------------------------------------------------- power
    def power_w(self, floorplan: Floorplan, node: TechnologyNode = NODE_40NM) -> float:
        """Interconnect power; the paper bounds it below 5 W for all organizations.

        The default implementation scales a 2 W nominal figure by relative area,
        capped at the paper's 5 W budget (Table 2.1, Section 4.4.4).
        """
        area = self.area_mm2(floorplan, node)
        return min(5.0, 0.4 + 0.35 * area)

    # ------------------------------------------------------------------ misc
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
