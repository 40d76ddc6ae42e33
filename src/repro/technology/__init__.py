"""Process technology models: nodes, SRAM, wires, and component area/power tables.

This package replaces the technology inputs the paper obtained from CACTI 6.5,
ORION 2.0, McPAT, and published die micrographs.  All numbers are anchored to the
figures the paper itself publishes (Tables 2.1, 2.2, 4.1, and 6.1) so that the
design-space studies reproduce the paper's constraints.
"""

from repro.technology.node import (
    TechnologyNode,
    ChipConstraints,
    NODE_40NM,
    NODE_32NM,
    NODE_20NM,
    get_node,
    coerce_node,
    scale_area,
    scale_power,
)
from repro.technology.family import (
    DEFAULT_FAMILY,
    NodeFamily,
    NodeRecipe,
    ScalingRule,
    derive_node,
)
from repro.technology.cacti import SramModel, CacheEstimate
from repro.technology.wires import WireModel
from repro.technology.components import ComponentCatalog, ComponentSpec

__all__ = [
    "TechnologyNode",
    "ChipConstraints",
    "NODE_40NM",
    "NODE_32NM",
    "NODE_20NM",
    "get_node",
    "coerce_node",
    "scale_area",
    "scale_power",
    "DEFAULT_FAMILY",
    "NodeFamily",
    "NodeRecipe",
    "ScalingRule",
    "derive_node",
    "SramModel",
    "CacheEstimate",
    "WireModel",
    "ComponentCatalog",
    "ComponentSpec",
]
