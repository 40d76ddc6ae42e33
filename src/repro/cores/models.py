"""Core microarchitecture models.

The paper evaluates three core types (Table 2.2):

* **conventional** -- an aggressive 4-wide server core with a 128-entry ROB,
  32-entry LSQ, and 64 KB L1 caches (Xeon class), 25 mm^2 and 11 W at 40nm;
* **ooo** -- a 3-wide out-of-order core with a 60-entry ROB and 16-entry LSQ,
  modelled after the ARM Cortex-A15, 4.5 mm^2 and 1 W at 40nm;
* **inorder** -- a 2-wide in-order core modelled after the ARM Cortex-A8,
  1.3 mm^2 and 0.48 W at 40nm.

All run at 2 GHz in every study.  The execution behaviour (base CPI, MLP) of a
core on a particular workload lives in the workload profiles; this module captures
the structural and physical attributes of the cores.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.technology.components import ComponentCatalog
from repro.technology.node import NODE_40NM, TechnologyNode


@dataclass(frozen=True)
class CoreModel:
    """Structural description of a core microarchitecture.

    Attributes:
        name: short identifier used across the library ("conventional", "ooo",
            "inorder").
        issue_width: dispatch/retirement width.
        rob_entries: reorder-buffer capacity (0 for the in-order core).
        lsq_entries: load/store queue capacity.
        l1i_kb: L1 instruction cache capacity (KB).
        l1_mshrs: outstanding-miss registers per L1.
        frequency_ghz: operating frequency.
        out_of_order: whether the core issues out of order.
    """

    name: str
    issue_width: int
    rob_entries: int
    lsq_entries: int
    l1i_kb: int
    l1_mshrs: int
    frequency_ghz: float = 2.0
    out_of_order: bool = True

    def __post_init__(self) -> None:
        if self.issue_width < 1:
            raise ValueError("issue_width must be >= 1")
        if self.frequency_ghz <= 0:
            raise ValueError("frequency_ghz must be positive")

    # -------------------------------------------------------------- physical
    def area_mm2(self, node: TechnologyNode = NODE_40NM) -> float:
        """Core area (including L1 caches) at ``node``."""
        return ComponentCatalog(node).core(self.name).area_mm2

    def power_w(self, node: TechnologyNode = NODE_40NM) -> float:
        """Peak core power at ``node``."""
        return ComponentCatalog(node).core(self.name).power_w

    @property
    def max_outstanding_misses(self) -> int:
        """Maximum memory requests the core can have in flight (simulator limit)."""
        if not self.out_of_order:
            return max(1, self.l1_mshrs // 8)
        return max(1, self.lsq_entries // 2)


#: Aggressive conventional server core (Table 2.2, "Conventional").
CONVENTIONAL = CoreModel(
    name="conventional",
    issue_width=4,
    rob_entries=128,
    lsq_entries=32,
    l1i_kb=64,
    l1_mshrs=32,
    out_of_order=True,
)

#: Cortex-A15-class out-of-order core (Table 2.2, "Out-of-order").
OOO = CoreModel(
    name="ooo",
    issue_width=3,
    rob_entries=60,
    lsq_entries=16,
    l1i_kb=32,
    l1_mshrs=32,
    out_of_order=True,
)

#: Cortex-A8-class in-order core (Table 2.2, "In-order").
INORDER = CoreModel(
    name="inorder",
    issue_width=2,
    rob_entries=0,
    lsq_entries=8,
    l1i_kb=32,
    l1_mshrs=32,
    out_of_order=False,
)

#: All core models keyed by canonical name.
CORE_TYPES: "dict[str, CoreModel]" = {
    "conventional": CONVENTIONAL,
    "ooo": OOO,
    "inorder": INORDER,
}

_ALIASES = {
    "conv": "conventional",
    "out-of-order": "ooo",
    "out_of_order": "ooo",
    "io": "inorder",
    "in-order": "inorder",
    "in_order": "inorder",
}


def core_model(name: "str | CoreModel") -> CoreModel:
    """Resolve a core model from a name or pass through an existing model."""
    if isinstance(name, CoreModel):
        return name
    key = _ALIASES.get(name.lower(), name.lower())
    try:
        return CORE_TYPES[key]
    except KeyError:
        raise KeyError(f"unknown core type {name!r}; known: {sorted(CORE_TYPES)}") from None
