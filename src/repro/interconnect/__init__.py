"""Analytic on-chip interconnect models.

These models supply the *average* core-to-LLC latency, area, and power figures the
design-space studies (Chapters 2 and 3) need.  The cycle-level packet simulator in
:mod:`repro.noc` provides the detailed NOC-Out evaluation of Chapter 4; the
analytic models here are calibrated to the same per-hop/per-traversal latencies
(Table 2.2 / Table 3.1).
"""

from repro.interconnect.base import InterconnectModel
from repro.interconnect.floorplan import Floorplan
from repro.interconnect.ideal import IdealInterconnect
from repro.interconnect.crossbar import CrossbarInterconnect
from repro.interconnect.mesh import MeshInterconnect
from repro.interconnect.flattened_butterfly import FlattenedButterflyInterconnect
from repro.interconnect.nocout import NocOutInterconnect

INTERCONNECTS = {
    "ideal": IdealInterconnect,
    "crossbar": CrossbarInterconnect,
    "mesh": MeshInterconnect,
    "fbfly": FlattenedButterflyInterconnect,
    "flattened_butterfly": FlattenedButterflyInterconnect,
    "nocout": NocOutInterconnect,
    "noc-out": NocOutInterconnect,
}


def interconnect_model(name: str) -> InterconnectModel:
    """Instantiate an interconnect model from its name."""
    try:
        return INTERCONNECTS[name.lower()]()
    except KeyError:
        raise KeyError(
            f"unknown interconnect {name!r}; known: {sorted(set(INTERCONNECTS))}"
        ) from None


__all__ = [
    "InterconnectModel",
    "Floorplan",
    "IdealInterconnect",
    "CrossbarInterconnect",
    "MeshInterconnect",
    "FlattenedButterflyInterconnect",
    "NocOutInterconnect",
    "INTERCONNECTS",
    "interconnect_model",
]
