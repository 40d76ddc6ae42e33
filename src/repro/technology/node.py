"""Process technology nodes and scaling rules.

The paper evaluates chips at three nodes:

* 40nm -- the baseline for Chapters 2, 3, 5, and 6 (0.9 V, 2 GHz, 95 W budget,
  250-280 mm^2 dies, up to six DDR3 channels);
* 32nm -- the NOC-Out study of Chapter 4 (0.9 V, 2 GHz, 64-core pod);
* 20nm -- the scaling projection (0.8 V, 2 GHz, DDR4, perfect area scaling of
  cores and caches, memory-interface analog circuitry does not scale).

A :class:`TechnologyNode` carries the supply voltage, operating frequency, and the
scaling factors relative to the 40nm baseline.  Component catalogs
(:mod:`repro.technology.components`) use these factors to derive per-node area and
power figures from the paper's published 40nm values (Table 2.1).

The three paper nodes are no longer hand-written constants: they (and the wider
90nm->7nm family) are derived from declared scaling rules by
:mod:`repro.technology.family`, with the 40/32/20nm results regression-pinned to
be byte-identical to the previously published values.  ``NODE_40NM`` /
``NODE_32NM`` / ``NODE_20NM`` remain importable from this module (resolved
lazily through the default family), and :func:`get_node` now accepts any family
node by name (``"40nm"``), bare string (``"40"``), or feature size (``40``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ChipConstraints:
    """Physical budgets that bound a single die.

    Attributes:
        max_area_mm2: maximum die area available for the design (mm^2).
        max_power_w: thermal design power budget (W).
        max_memory_channels: maximum number of DRAM channels that fit on the die
            perimeter / package pins.
    """

    max_area_mm2: float
    max_power_w: float
    max_memory_channels: int

    def __post_init__(self) -> None:
        if self.max_area_mm2 <= 0:
            raise ValueError("max_area_mm2 must be positive")
        if self.max_power_w <= 0:
            raise ValueError("max_power_w must be positive")
        if self.max_memory_channels <= 0:
            raise ValueError("max_memory_channels must be positive")


@dataclass(frozen=True)
class TechnologyNode:
    """A manufacturing process node.

    Attributes:
        name: human readable node name, e.g. ``"40nm"``.
        feature_nm: drawn feature size in nanometres.
        vdd: nominal supply voltage (V).
        frequency_ghz: nominal operating frequency used throughout the paper (GHz).
        logic_area_scale: multiplicative factor applied to 40nm logic/SRAM area to
            obtain area at this node (1.0 at 40nm, 0.25 at 20nm under perfect
            scaling over two generations).
        logic_power_scale: multiplicative factor applied to 40nm dynamic power.
            Voltage scaling (0.9 V -> 0.8 V) and constant frequency give roughly
            ``(C_scale) * (V^2 ratio)``.
        analog_area_scale: scaling factor for analog/PHY circuitry (memory
            interfaces), which the paper observes does not benefit from scaling.
        memory_standard: DRAM interface standard available at this node.
        constraints: default die-level constraints used by the paper at this node.
        wire_delay_ps_per_mm: repeatered semi-global wire delay.
        wire_energy_fj_per_bit_mm: repeatered wire energy on random data.
    """

    name: str
    feature_nm: int
    vdd: float
    frequency_ghz: float
    logic_area_scale: float
    logic_power_scale: float
    analog_area_scale: float
    memory_standard: str
    constraints: ChipConstraints
    wire_delay_ps_per_mm: float = 125.0
    wire_energy_fj_per_bit_mm: float = 50.0

    def cycles_for_ns(self, nanoseconds: float) -> float:
        """Convert a latency in nanoseconds to (fractional) clock cycles."""
        return nanoseconds * self.frequency_ghz

    def wire_delay_cycles(self, distance_mm: float) -> float:
        """Delay, in cycles, of a repeatered wire spanning ``distance_mm``."""
        if distance_mm < 0:
            raise ValueError("distance_mm must be non-negative")
        delay_ns = distance_mm * self.wire_delay_ps_per_mm / 1000.0
        return self.cycles_for_ns(delay_ns)


def scale_area(area_mm2_40nm: float, node: TechnologyNode, analog: bool = False) -> float:
    """Scale a 40nm area figure to ``node``.

    Args:
        area_mm2_40nm: area at the 40nm baseline node.
        node: target technology node.
        analog: if True, use the analog scaling factor (memory PHYs and other
            circuits that the paper notes do not shrink).
    """
    factor = node.analog_area_scale if analog else node.logic_area_scale
    return area_mm2_40nm * factor


def scale_power(power_w_40nm: float, node: TechnologyNode, analog: bool = False) -> float:
    """Scale a 40nm power figure to ``node`` (constant frequency assumption)."""
    if analog:
        return power_w_40nm
    return power_w_40nm * node.logic_power_scale


# The paper's pinned nodes are derived by repro.technology.family and resolved
# lazily (PEP 562) so node.py and family.py can import each other's pieces
# without a cycle: family imports the dataclasses above at module load, while
# these constants only touch family on first attribute access.
#
# NODE_40NM -- baseline for Chapters 2, 3, 5 and 6: 95 W, ~250-280 mm^2, six
#   DDR3 channels maximum (Section 2.4.1).
# NODE_32NM -- the NOC-Out study node (Chapter 4): the 0.64 area scale
#   reproduces the paper's 2.9 mm^2 ARM Cortex-A15 and 3.2 mm^2/MB LLC.
# NODE_20NM -- the scaling projection (Section 2.4.1): perfect area scaling
#   over two generations (4x density), 0.8 V, DDR4, constant frequency; the
#   per-component power scale is 0.25 * (0.8/0.9)^2 for a fixed
#   microarchitecture (capacitance by 0.25, V^2 by the supply ratio).
_PINNED_CONSTANTS = {
    "NODE_40NM": "40nm",
    "NODE_32NM": "32nm",
    "NODE_20NM": "20nm",
}


def __getattr__(name: str) -> TechnologyNode:
    """Resolve the pinned node constants lazily through the default family."""
    try:
        key = _PINNED_CONSTANTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    from repro.technology.family import DEFAULT_FAMILY

    node = DEFAULT_FAMILY.node(key)
    globals()[name] = node
    return node


def get_node(name: "str | int | float | TechnologyNode") -> TechnologyNode:
    """Look a family node up by name (``"40nm"``), bare string, or feature size.

    ``"40nm"``, ``"40"``, ``40``, and an already-constructed
    :class:`TechnologyNode` all resolve uniformly.  Unknown nodes raise a
    :class:`KeyError` whose message enumerates the registry dynamically.
    """
    from repro.technology.family import DEFAULT_FAMILY

    return DEFAULT_FAMILY.node(name)


def coerce_node(node: "TechnologyNode | str | int | float") -> TechnologyNode:
    """Return ``node`` itself if already a :class:`TechnologyNode`, else look it up."""
    if isinstance(node, TechnologyNode):
        return node
    return get_node(node)
