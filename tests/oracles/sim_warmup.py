"""Per-line LLC warm-up: the oracle for ``SimulatedSystem.warm_caches``.

Installs the warm working set one :meth:`SetAssociativeCache.fill` at a time,
in criticality order, until 95% of the LLC's lines have been filled.  The
package builds the same state with one bulk install per bank; the tests hold
the two to identical bank contents and statistics.
"""

from __future__ import annotations


def warm_caches_per_line(system, generator) -> None:
    """Warm ``system``'s LLC banks with one ``fill`` call per line."""
    line_bytes = system._line_bytes
    total_lines = sum(bank.num_sets * bank.associativity for bank in system.banks)
    budget = int(total_lines * 0.95)
    filled = 0
    for region_name in ("instructions", "shared_small", "shared_hot", "capturable"):
        region = generator.regions[region_name]
        lines_in_region = max(1, region.size_bytes // line_bytes)
        for i in range(lines_in_region):
            if filled >= budget:
                return
            address = region.base + i * line_bytes
            bank = system.banks[system._bank_for(address)]
            bank.fill(system._bank_local_address(address))
            filled += 1
