"""The technology-node family: 90 nm to 7 nm derived from declared scaling rules.

The paper evaluates exactly two full nodes (40 nm baseline, 20 nm projection)
plus the 32 nm NOC-Out study; ChipSuite-style studies instead span a whole
node family (90/65/40/28 nm, one runner per node).  This module promotes the
repo's technology axis to such a family: every :class:`TechnologyNode` is
*derived* from a compact :class:`NodeRecipe` by ITRS-style scaling laws
rather than hand-written, so the same rules that reproduce the paper's pinned
40/32/20 nm constants byte-for-byte also generate the 90/65/28/14/10/7 nm
nodes the paper never evaluated.

The declared rules (each a :class:`ScalingRule` carrying explicit validity
bounds) are:

* **logic area** -- quadratic in drawn feature size: ``(f / 40)**2``, the
  paper's "perfect area scaling of logic" assumption (Section 2.4.1);
* **Vdd** -- a Dennard-breakdown supply curve, tabulated per recipe
  (1.2 V at 90 nm down to 0.7 V at 7 nm, flat at 0.9 V through 40-28 nm);
* **logic power** -- switched capacitance times the supply ratio squared:
  ``cap_scale * (vdd / 0.9)**2`` at constant 2 GHz.  Capacitance follows the
  area law unless a recipe declares a calibration override (32 nm uses the
  paper's published 0.85 power factor);
* **analog/PHY area** -- does not scale, at any node (the paper's memory
  interface observation), so ``analog_area_scale`` is pinned to 1.0;
* **wires** -- repeatered semi-global wire delay/energy held at the paper's
  125 ps/mm and 50 fJ/bit/mm across the calibrated band (repeater
  re-optimization compensates); deep nodes declare worsening factors as wire
  RC outruns repeater sizing.

Nodes whose feature size falls outside a rule's validity bounds are still
generated, but :meth:`NodeFamily.provenance` flags exactly which rules were
extrapolated -- out-of-range nodes are *labelled*, never silently trusted.
SRAM density/latency (via :class:`~repro.technology.cacti.SramModel`) and
wire reach (via :class:`~repro.technology.wires.WireModel`) are reported in
the same provenance record so downstream studies can audit the derivation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.technology.node import ChipConstraints, TechnologyNode

#: The paper's baseline feature size; every scaling factor is relative to it.
ANCHOR_FEATURE_NM = 40

#: Supply voltage at the 40 nm anchor (Section 2.4.1).
ANCHOR_VDD = 0.9

#: Operating frequency held constant across the family (the paper evaluates
#: every node at 2 GHz; frequency no longer scales post-Dennard).
ANCHOR_FREQUENCY_GHZ = 2.0

#: Repeatered semi-global wire delay at the anchor (Chapter 4): 125 ps/mm.
ANCHOR_WIRE_DELAY_PS_PER_MM = 125.0

#: Repeatered wire energy on random data at the anchor: 50 fJ/bit/mm.
ANCHOR_WIRE_ENERGY_FJ_PER_BIT_MM = 50.0

#: Die budgets every family node inherits: the paper's server-class socket
#: (95 W, <=280 mm^2, six DRAM channels) is a package/cooling limit, not a
#: property of the process, so it is node-invariant (Section 2.4.1).
PAPER_DIE_CONSTRAINTS = ChipConstraints(
    max_area_mm2=280.0, max_power_w=95.0, max_memory_channels=6
)


@dataclass(frozen=True)
class ScalingRule:
    """One declared scaling law with explicit extrapolation bounds.

    Attributes:
        name: short rule identifier used in provenance records.
        description: one-line statement of the law and its source.
        valid_from_nm: largest (oldest) feature size the rule is calibrated
            for, inclusive.
        valid_to_nm: smallest (newest) feature size the rule is calibrated
            for, inclusive.
    """

    name: str
    description: str
    valid_from_nm: int
    valid_to_nm: int

    def __post_init__(self) -> None:
        if self.valid_to_nm <= 0 or self.valid_from_nm < self.valid_to_nm:
            raise ValueError(
                f"rule {self.name!r} bounds must satisfy from >= to > 0, got "
                f"{self.valid_from_nm}..{self.valid_to_nm}"
            )

    def covers(self, feature_nm: int) -> bool:
        """Whether ``feature_nm`` lies inside this rule's calibrated band."""
        return self.valid_to_nm <= feature_nm <= self.valid_from_nm


#: Quadratic logic/SRAM area law, validated over the paper's 40->20 nm span.
AREA_RULE = ScalingRule(
    "logic_area",
    "logic/SRAM area scales as (feature/40)^2 (perfect scaling, Section 2.4.1)",
    valid_from_nm=40,
    valid_to_nm=20,
)

#: Dennard-breakdown supply curve, anchored to the paper's 0.9 V / 0.8 V points.
VDD_RULE = ScalingRule(
    "vdd",
    "supply voltage follows the tabulated Dennard-breakdown curve "
    "(0.9 V at 40-28 nm, 0.8 V at 20 nm per Section 2.4.1)",
    valid_from_nm=40,
    valid_to_nm=20,
)

#: Dynamic power law: switched capacitance x (Vdd ratio)^2 at constant 2 GHz.
POWER_RULE = ScalingRule(
    "logic_power",
    "component power scales as cap_scale * (vdd/0.9)^2 at constant frequency; "
    "capacitance follows area unless a recipe declares a calibrated override",
    valid_from_nm=40,
    valid_to_nm=20,
)

#: Analog/PHY non-scaling observation; the paper states it without bounds, so
#: the rule covers the whole family.
ANALOG_RULE = ScalingRule(
    "analog_area",
    "analog/PHY circuitry (memory interfaces) does not shrink at any node",
    valid_from_nm=90,
    valid_to_nm=7,
)

#: Repeatered-wire law: the paper's 125 ps/mm / 50 fJ/bit/mm figures hold
#: across its studied nodes; deep nodes extrapolate with declared factors.
WIRE_RULE = ScalingRule(
    "wires",
    "repeatered semi-global wires stay at 125 ps/mm and 50 fJ/bit/mm within "
    "the calibrated band (repeater re-optimization compensates)",
    valid_from_nm=40,
    valid_to_nm=20,
)

#: Every declared rule, in the order provenance records report them.
SCALING_RULES: "tuple[ScalingRule, ...]" = (
    AREA_RULE,
    VDD_RULE,
    POWER_RULE,
    ANALOG_RULE,
    WIRE_RULE,
)


@dataclass(frozen=True)
class NodeRecipe:
    """The compact declared inputs one family node is derived from.

    Attributes:
        feature_nm: drawn feature size in nanometres.
        vdd: supply voltage from the Dennard-breakdown curve (V).
        memory_standard: DRAM interface generation available at this node.
        cap_scale: switched-capacitance scale versus 40 nm; ``None`` means the
            capacitance follows the area law (perfect Dennard capacitance
            scaling), a float declares a calibration override.
        wire_delay_factor: multiplier on the anchor's 125 ps/mm (1.0 inside
            the calibrated wire band).
        wire_energy_factor: multiplier on the anchor's 50 fJ/bit/mm.
        note: where the recipe's numbers come from.
    """

    feature_nm: int
    vdd: float
    memory_standard: str
    cap_scale: "float | None" = None
    wire_delay_factor: float = 1.0
    wire_energy_factor: float = 1.0
    note: str = ""

    def __post_init__(self) -> None:
        if self.feature_nm <= 0:
            raise ValueError("feature_nm must be positive")
        if self.vdd <= 0:
            raise ValueError("vdd must be positive")
        if self.wire_delay_factor <= 0 or self.wire_energy_factor <= 0:
            raise ValueError("wire factors must be positive")


#: The default family recipes, oldest node first.  40/32/20 nm carry the
#: paper's published figures; the rest extend the curve in both directions
#: (ChipSuite's 90/65/28 nm band and the post-paper FinFET nodes).
DEFAULT_RECIPES: "tuple[NodeRecipe, ...]" = (
    NodeRecipe(
        90, 1.2, "DDR3",
        wire_energy_factor=1.78,
        note="pre-breakdown extrapolation (ChipSuite's oldest node); wire "
             "energy grows with Vdd^2 on the fatter-but-higher-swing wires",
    ),
    NodeRecipe(
        65, 1.1, "DDR3",
        wire_energy_factor=1.49,
        note="pre-breakdown extrapolation; Vdd from the ITRS 65 nm tables",
    ),
    NodeRecipe(
        40, 0.9, "DDR3",
        note="paper baseline (Section 2.4.1): 0.9 V, DDR3, Table 2.1 figures",
    ),
    NodeRecipe(
        32, 0.9, "DDR3",
        cap_scale=0.85,
        note="paper's NOC-Out node (Chapter 4): power calibrated to the "
             "published 32 nm component figures (0.85x at equal Vdd)",
    ),
    NodeRecipe(
        28, 0.9, "DDR3",
        note="half-node shrink between the paper's 32 nm and 20 nm points",
    ),
    NodeRecipe(
        20, 0.8, "DDR4",
        note="paper scaling projection (Section 2.4.1): perfect 4x density, "
             "0.8 V, DDR4 interfaces",
    ),
    NodeRecipe(
        14, 0.8, "DDR4",
        wire_delay_factor=1.15, wire_energy_factor=0.79,
        note="FinFET extrapolation; wire RC outruns repeater sizing below "
             "20 nm, so delay per mm worsens",
    ),
    NodeRecipe(
        10, 0.75, "DDR4",
        wire_delay_factor=1.3, wire_energy_factor=0.69,
        note="FinFET extrapolation",
    ),
    NodeRecipe(
        7, 0.7, "DDR4",
        wire_delay_factor=1.5, wire_energy_factor=0.6,
        note="deepest extrapolated node; Vdd floor of the breakdown curve",
    ),
)


def _area_scale(feature_nm: int) -> float:
    """The quadratic area law, rounded to 12 decimals.

    Rounding normalizes binary-float noise -- ``(32/40)**2`` computes to
    0.6400000000000001 -- so the derived factors are byte-identical to the
    paper's published constants (0.64, 0.25, ...).
    """
    return round((feature_nm / ANCHOR_FEATURE_NM) ** 2, 12)


def derive_node(
    recipe: NodeRecipe, constraints: ChipConstraints = PAPER_DIE_CONSTRAINTS
) -> TechnologyNode:
    """Apply the declared scaling rules to one recipe.

    Args:
        recipe: the node's declared inputs (feature size, Vdd curve point,
            memory standard, optional capacitance calibration).
        constraints: die budgets the node inherits (the paper's node-invariant
            server socket by default).

    Returns:
        The fully derived :class:`TechnologyNode`.  For the 40/32/20 nm
        recipes the result is field-for-field byte-identical to the constants
        the paper publishes (regression-pinned in the test suite).
    """
    area_scale = _area_scale(recipe.feature_nm)
    cap_scale = recipe.cap_scale if recipe.cap_scale is not None else area_scale
    power_scale = cap_scale * (recipe.vdd / ANCHOR_VDD) ** 2
    return TechnologyNode(
        name=f"{recipe.feature_nm}nm",
        feature_nm=recipe.feature_nm,
        vdd=recipe.vdd,
        frequency_ghz=ANCHOR_FREQUENCY_GHZ,
        logic_area_scale=area_scale,
        logic_power_scale=power_scale,
        analog_area_scale=1.0,
        memory_standard=recipe.memory_standard,
        constraints=constraints,
        wire_delay_ps_per_mm=ANCHOR_WIRE_DELAY_PS_PER_MM * recipe.wire_delay_factor,
        wire_energy_fj_per_bit_mm=(
            ANCHOR_WIRE_ENERGY_FJ_PER_BIT_MM * recipe.wire_energy_factor
        ),
    )


class NodeFamily:
    """The derived node registry: lookup, enumeration, and rule provenance.

    Args:
        recipes: declared per-node inputs (the 90->7 nm defaults if omitted).
        constraints: die budgets shared by every derived node.

    Nodes are derived once at construction, so repeated lookups return the
    same instances (``family.node("40nm") is family.node(40)``).
    """

    def __init__(
        self,
        recipes: "tuple[NodeRecipe, ...]" = DEFAULT_RECIPES,
        constraints: ChipConstraints = PAPER_DIE_CONSTRAINTS,
    ):
        if not recipes:
            raise ValueError("a NodeFamily needs at least one recipe")
        features = [recipe.feature_nm for recipe in recipes]
        if len(set(features)) != len(features):
            raise ValueError(f"duplicate feature sizes in recipes: {features}")
        self._recipes: "dict[int, NodeRecipe]" = {
            recipe.feature_nm: recipe for recipe in recipes
        }
        self._nodes: "dict[int, TechnologyNode]" = {
            recipe.feature_nm: derive_node(recipe, constraints)
            for recipe in recipes
        }

    # -------------------------------------------------------------- geometry
    @property
    def features(self) -> "list[int]":
        """Feature sizes in declaration (oldest-first) order."""
        return list(self._nodes)

    @property
    def names(self) -> "list[str]":
        """Node names (``"90nm"``, ..., ``"7nm"``) in declaration order."""
        return [node.name for node in self._nodes.values()]

    # ---------------------------------------------------------------- lookup
    def normalize(self, key: "str | int | float | TechnologyNode") -> int:
        """Resolve ``"40nm"`` / ``"40"`` / ``40`` / a node object to a feature size.

        Raises:
            KeyError: when the key cannot be parsed or names no family node;
                the message enumerates the registry dynamically.
        """
        if isinstance(key, TechnologyNode):
            feature = key.feature_nm
        elif isinstance(key, bool):
            raise KeyError(self._unknown(key))
        elif isinstance(key, int):
            feature = key
        elif isinstance(key, float):
            if not key.is_integer():
                raise KeyError(self._unknown(key))
            feature = int(key)
        elif isinstance(key, str):
            text = key.strip().lower().removesuffix("nm").strip()
            if not text.isdigit():
                raise KeyError(self._unknown(key))
            feature = int(text)
        else:
            raise KeyError(self._unknown(key))
        if feature not in self._nodes:
            raise KeyError(self._unknown(key))
        return feature

    def _unknown(self, key: object) -> str:
        return (
            f"unknown technology node {key!r}; available: "
            f"{', '.join(self.names)}"
        )

    def node(self, key: "str | int | float | TechnologyNode") -> TechnologyNode:
        """Look one derived node up by name, feature size, or node object."""
        return self._nodes[self.normalize(key)]

    def nodes(self) -> "list[TechnologyNode]":
        """Every derived node, oldest first."""
        return list(self._nodes.values())

    def __iter__(self):
        return iter(self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, key: object) -> bool:
        try:
            self.normalize(key)  # type: ignore[arg-type]
        except KeyError:
            return False
        return True

    # ------------------------------------------------------------ provenance
    def extrapolated_rules(self, key: "str | int | TechnologyNode") -> "list[str]":
        """Names of the rules applied outside their calibrated bounds."""
        feature = self.normalize(key)
        return [rule.name for rule in SCALING_RULES if not rule.covers(feature)]

    def is_extrapolated(self, key: "str | int | TechnologyNode") -> bool:
        """Whether any rule had to extrapolate to derive this node."""
        return bool(self.extrapolated_rules(key))

    def provenance(self, key: "str | int | TechnologyNode") -> "dict[str, object]":
        """Full derivation audit for one node (JSON-able).

        The record names every rule with its bounds and in/out-of-bounds
        status, the recipe the node came from, and the derived figures --
        including the SRAM density/latency the CACTI stand-in reports and the
        wire reach from the wire model -- so studies can embed exactly how a
        node's numbers were obtained (and whether they were extrapolated).
        """
        from repro.technology.cacti import SramModel
        from repro.technology.wires import WireModel

        feature = self.normalize(key)
        node = self._nodes[feature]
        recipe = self._recipes[feature]
        sram = SramModel(node)
        wires = WireModel(node)
        extrapolated = self.extrapolated_rules(feature)
        return {
            "node": node.name,
            "feature_nm": feature,
            "calibrated": not extrapolated,
            "extrapolated": bool(extrapolated),
            "extrapolated_rules": extrapolated,
            "rules": {
                rule.name: {
                    "description": rule.description,
                    "valid_nm": [rule.valid_from_nm, rule.valid_to_nm],
                    "in_bounds": rule.covers(feature),
                }
                for rule in SCALING_RULES
            },
            "recipe": {
                "vdd": recipe.vdd,
                "memory_standard": recipe.memory_standard,
                "cap_scale": recipe.cap_scale,
                "wire_delay_factor": recipe.wire_delay_factor,
                "wire_energy_factor": recipe.wire_energy_factor,
                "note": recipe.note,
            },
            "derived": {
                "logic_area_scale": node.logic_area_scale,
                "logic_power_scale": node.logic_power_scale,
                "analog_area_scale": node.analog_area_scale,
                "wire_delay_ps_per_mm": node.wire_delay_ps_per_mm,
                "wire_energy_fj_per_bit_mm": node.wire_energy_fj_per_bit_mm,
                "wire_reach_mm_per_cycle": round(wires.reach_per_cycle_mm(), 4),
                "sram_area_mm2_per_mb": round(sram.area_mm2(1.0), 4),
                "sram_1mb_latency_cycles": sram.access_latency_cycles(1.0),
            },
        }

    def describe(self) -> "dict[str, object]":
        """JSON-able summary of the whole family (nodes + rule table)."""
        return {
            "anchor_nm": ANCHOR_FEATURE_NM,
            "nodes": self.names,
            "rules": {
                rule.name: {
                    "description": rule.description,
                    "valid_nm": [rule.valid_from_nm, rule.valid_to_nm],
                }
                for rule in SCALING_RULES
            },
        }


#: The process-wide default family every registry lookup resolves against.
DEFAULT_FAMILY = NodeFamily()
