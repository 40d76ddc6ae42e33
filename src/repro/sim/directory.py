"""Directory coherence model.

Each LLC slice has a co-located directory slice (Figure 4.1b) tracking which
cores hold each line in their L1s.  On an LLC access the directory decides
whether a snoop must be sent: an invalidation when a writer needs exclusivity
while other cores share the line, or a forwarding request when another core holds
the only up-to-date copy.  Scale-out workloads trigger such snoops on only ~2.7 %
of LLC accesses (Figure 4.3), which is the property NOC-Out exploits.

:class:`Directory` holds that state; the measured window
(``SimulatedSystem._run_window``) reads and updates it on every LLC access.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class DirectoryStats:
    """Counters kept by the directory."""

    lookups: int = 0
    invalidation_snoops: int = 0
    forward_snoops: int = 0

    @property
    def total_snoops(self) -> int:
        """All snoop messages sent to cores."""
        return self.invalidation_snoops + self.forward_snoops

    @property
    def snoop_fraction(self) -> float:
        """Fraction of directory lookups that generated at least one snoop."""
        if self.lookups == 0:
            return 0.0
        return self.total_snoops / self.lookups


class Directory:
    """Sharer-tracking directory for one coherence domain (one pod)."""

    def __init__(self, line_bytes: int = 64):
        if line_bytes <= 0:
            raise ValueError("line_bytes must be positive")
        self.line_bytes = line_bytes
        #: line address -> set of core ids holding the line in their L1.
        self._sharers: "dict[int, set[int]]" = {}
        #: line address -> core id holding the line modified (or None).
        self._owner: "dict[int, int]" = {}
        self.stats = DirectoryStats()

    def _line(self, address: int) -> int:
        return (address // self.line_bytes) * self.line_bytes
