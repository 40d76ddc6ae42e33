"""Conformance suite for the derived technology-node family.

Three layers of protection around :mod:`repro.technology.family`:

* **Frozen regression vectors** -- literal copies of the legacy hand-written
  40/32/20 nm constants; the derived family must reproduce them
  field-for-field, byte-identically (exact float equality, not approx).
* **Scaling-law properties** (hypothesis, derandomized so every run draws the
  same examples) -- monotonicity of area/power as the feature size shrinks,
  the analog non-scaling invariant, composition of :func:`scale_area` /
  :func:`scale_power` with the per-node factors, die-budget validity on every
  node, and deterministic extrapolation flagging outside the calibrated band.
* **Pinned downstream goldens** -- figure 4.6 and the seeded
  ``explore_pod_40nm`` sample, captured before the family refactor; any drift
  in these means the derivation changed observable results.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.dse.studies import explore_pod_40nm
from repro.experiments.chapter4 import figure_4_6_noc_performance
from repro.experiments.technology import node_pod_selection, node_sram_scaling
from repro.runtime.executor import SERIAL_EXECUTOR, SweepExecutor
from repro.technology.components import ComponentCatalog
from repro.technology.family import (
    ANCHOR_FEATURE_NM,
    DEFAULT_FAMILY,
    PAPER_DIE_CONSTRAINTS,
    SCALING_RULES,
    NodeFamily,
    NodeRecipe,
    ScalingRule,
    derive_node,
)
from repro.technology.node import (
    NODE_20NM,
    NODE_32NM,
    NODE_40NM,
    ChipConstraints,
    TechnologyNode,
    coerce_node,
    get_node,
    scale_area,
    scale_power,
)

#: Property tests draw the same examples on every run (fixed-seed suite).
DETERMINISTIC = settings(derandomize=True, max_examples=50, deadline=None)

#: Literal copies of the constants node.py declared before the family
#: refactor.  The expressions (not just the rounded decimals) are frozen so
#: the comparison is against the exact floats the legacy module produced.
LEGACY_CONSTRAINTS = ChipConstraints(
    max_area_mm2=280.0, max_power_w=95.0, max_memory_channels=6
)
LEGACY_NODES = {
    "40nm": TechnologyNode(
        name="40nm", feature_nm=40, vdd=0.9, frequency_ghz=2.0,
        logic_area_scale=1.0, logic_power_scale=1.0, analog_area_scale=1.0,
        memory_standard="DDR3", constraints=LEGACY_CONSTRAINTS,
    ),
    "32nm": TechnologyNode(
        name="32nm", feature_nm=32, vdd=0.9, frequency_ghz=2.0,
        logic_area_scale=0.64, logic_power_scale=0.85, analog_area_scale=1.0,
        memory_standard="DDR3", constraints=LEGACY_CONSTRAINTS,
    ),
    "20nm": TechnologyNode(
        name="20nm", feature_nm=20, vdd=0.8, frequency_ghz=2.0,
        logic_area_scale=0.25,
        logic_power_scale=0.25 * (0.8 / 0.9) ** 2,
        analog_area_scale=1.0,
        memory_standard="DDR4", constraints=LEGACY_CONSTRAINTS,
    ),
}

FAMILY_NODES = DEFAULT_FAMILY.nodes()


class TestFrozenLegacyConstants:
    @pytest.mark.parametrize("name", sorted(LEGACY_NODES))
    def test_derived_nodes_are_byte_identical(self, name):
        derived = get_node(name)
        frozen = LEGACY_NODES[name]
        for field in dataclasses.fields(TechnologyNode):
            derived_value = getattr(derived, field.name)
            frozen_value = getattr(frozen, field.name)
            # Exact equality on purpose: floats must match bit-for-bit.
            assert derived_value == frozen_value, (
                f"{name}.{field.name}: derived {derived_value!r} "
                f"!= legacy {frozen_value!r}"
            )
        assert derived == frozen
        assert repr(derived) == repr(frozen)

    def test_pinned_module_constants_resolve_to_family(self):
        assert NODE_40NM is get_node("40nm") is DEFAULT_FAMILY.node(40)
        assert NODE_32NM is get_node(32)
        assert NODE_20NM is get_node("20")

    def test_lookup_spellings_share_one_instance(self):
        assert (
            get_node("40nm") is get_node("40") is get_node(40)
            is get_node(40.0) is get_node(" 40NM ")
        )
        assert coerce_node(NODE_40NM) is NODE_40NM


class TestFamilyStructure:
    def test_family_spans_90_to_7(self):
        assert tuple(DEFAULT_FAMILY.names) == (
            "90nm", "65nm", "40nm", "32nm", "28nm", "20nm", "14nm", "10nm", "7nm"
        )
        assert len(DEFAULT_FAMILY) == 9
        assert DEFAULT_FAMILY.features == sorted(DEFAULT_FAMILY.features, reverse=True)

    def test_contains_and_rejections(self):
        assert "40nm" in DEFAULT_FAMILY and 7 in DEFAULT_FAMILY
        assert "5nm" not in DEFAULT_FAMILY
        assert True not in DEFAULT_FAMILY  # bools are not feature sizes
        assert 40.5 not in DEFAULT_FAMILY

    def test_unknown_key_enumerates_registry(self):
        with pytest.raises(KeyError) as excinfo:
            get_node("5nm")
        message = str(excinfo.value)
        for name in DEFAULT_FAMILY.names:
            assert name in message

    def test_family_validates_recipes(self):
        with pytest.raises(ValueError, match="at least one"):
            NodeFamily(recipes=())
        duplicate = (
            NodeRecipe(40, 0.9, "DDR3"),
            NodeRecipe(40, 0.8, "DDR4"),
        )
        with pytest.raises(ValueError, match="duplicate"):
            NodeFamily(recipes=duplicate)

    def test_rule_and_recipe_validation(self):
        with pytest.raises(ValueError, match="bounds"):
            ScalingRule("bad", "inverted", valid_from_nm=20, valid_to_nm=40)
        with pytest.raises(ValueError):
            NodeRecipe(0, 0.9, "DDR3")
        with pytest.raises(ValueError):
            NodeRecipe(40, -0.9, "DDR3")
        with pytest.raises(ValueError):
            NodeRecipe(40, 0.9, "DDR3", wire_delay_factor=0.0)


class TestScalingLawProperties:
    @DETERMINISTIC
    @given(
        pair=st.tuples(
            st.sampled_from(FAMILY_NODES), st.sampled_from(FAMILY_NODES)
        )
    )
    def test_area_and_power_monotone_in_feature_size(self, pair):
        older, newer = pair
        if older.feature_nm < newer.feature_nm:
            older, newer = newer, older
        assert newer.logic_area_scale <= older.logic_area_scale
        assert newer.logic_power_scale <= older.logic_power_scale
        assert newer.vdd <= older.vdd

    @DETERMINISTIC
    @given(
        node=st.sampled_from(FAMILY_NODES),
        figure=st.floats(min_value=0.01, max_value=500.0),
    )
    def test_analog_invariant(self, node, figure):
        assert node.analog_area_scale == 1.0
        assert scale_area(figure, node, analog=True) == figure
        assert scale_power(figure, node, analog=True) == figure

    @DETERMINISTIC
    @given(
        node=st.sampled_from(FAMILY_NODES),
        figure=st.floats(min_value=0.01, max_value=500.0),
    )
    def test_scaling_helpers_compose_with_node_factors(self, node, figure):
        assert scale_area(figure, node) == figure * node.logic_area_scale
        assert scale_power(figure, node) == figure * node.logic_power_scale

    @DETERMINISTIC
    @given(feature=st.integers(min_value=5, max_value=130))
    def test_derivation_follows_declared_laws(self, feature):
        recipe = NodeRecipe(feature, 0.9, "DDR3")
        node = derive_node(recipe)
        expected_area = round((feature / ANCHOR_FEATURE_NM) ** 2, 12)
        assert node.logic_area_scale == expected_area
        # Default capacitance follows the area law; at the anchor Vdd the
        # power scale collapses to the area scale exactly.
        assert node.logic_power_scale == expected_area * (0.9 / 0.9) ** 2
        assert node.analog_area_scale == 1.0
        assert node.name == f"{feature}nm"

    @DETERMINISTIC
    @given(node=st.sampled_from(FAMILY_NODES))
    def test_every_node_carries_valid_paper_budgets(self, node):
        assert node.constraints is PAPER_DIE_CONSTRAINTS
        assert node.constraints.max_area_mm2 == 280.0
        assert node.constraints.max_power_w == 95.0
        assert node.constraints.max_memory_channels == 6
        # The dataclass validator accepts them (re-constructing must not raise).
        ChipConstraints(
            node.constraints.max_area_mm2,
            node.constraints.max_power_w,
            node.constraints.max_memory_channels,
        )

    @DETERMINISTIC
    @given(node=st.sampled_from(FAMILY_NODES))
    def test_extrapolation_flags_are_deterministic(self, node):
        first = DEFAULT_FAMILY.extrapolated_rules(node)
        second = DEFAULT_FAMILY.extrapolated_rules(node.name)
        assert first == second
        expected = [
            rule.name for rule in SCALING_RULES if not rule.covers(node.feature_nm)
        ]
        assert first == expected
        assert DEFAULT_FAMILY.is_extrapolated(node) == bool(expected)

    def test_calibrated_band_is_the_paper_span(self):
        calibrated = [
            node.name for node in FAMILY_NODES
            if not DEFAULT_FAMILY.is_extrapolated(node)
        ]
        assert calibrated == ["40nm", "32nm", "28nm", "20nm"]
        # Analog non-scaling is the one rule stated without bounds.
        assert DEFAULT_FAMILY.extrapolated_rules("7nm") == [
            "logic_area", "vdd", "logic_power", "wires"
        ]

    def test_provenance_is_json_able_and_audits_the_derivation(self):
        record = DEFAULT_FAMILY.provenance("7nm")
        json.dumps(record)  # must not raise
        assert record["node"] == "7nm"
        assert record["calibrated"] is False and record["extrapolated"] is True
        assert record["rules"]["analog_area"]["in_bounds"] is True
        assert record["rules"]["logic_area"]["in_bounds"] is False
        assert record["derived"]["logic_area_scale"] == get_node(7).logic_area_scale
        assert record["recipe"]["memory_standard"] == "DDR4"
        anchor = DEFAULT_FAMILY.provenance(40)
        assert anchor["calibrated"] is True and anchor["extrapolated_rules"] == []


class TestCatalogAcrossFamily:
    #: Pinned OoO-core (area_mm2, power_w) per node, derived from Table 2.1's
    #: 4.5 mm^2 / 1.0 W by each node's scale factors (rounded to 6 decimals).
    OOO_CORE_PINS = {
        "90nm": (22.78125, 9.0),
        "65nm": (11.882812, 3.944637),
        "40nm": (4.5, 1.0),
        "32nm": (2.88, 0.85),
        "28nm": (2.205, 0.49),
        "20nm": (1.125, 0.197531),
        "14nm": (0.55125, 0.09679),
        "10nm": (0.28125, 0.043403),
        "7nm": (0.137813, 0.018526),
    }

    @pytest.mark.parametrize("name", sorted(OOO_CORE_PINS))
    def test_scaled_ooo_core_per_node(self, name):
        core = ComponentCatalog(get_node(name)).ooo_core
        area, power = self.OOO_CORE_PINS[name]
        assert round(core.area_mm2, 6) == area
        assert round(core.power_w, 6) == power

    def test_memory_interface_never_shrinks(self):
        for node in FAMILY_NODES:
            interface = ComponentCatalog(node).memory_interface
            assert interface.area_mm2 == 12.0
            assert interface.power_w == pytest.approx(5.7)

    def test_memory_standard_split(self):
        for node in FAMILY_NODES:
            name = ComponentCatalog(node).memory_interface.name
            if node.feature_nm >= 28:
                assert node.memory_standard == "DDR3" and name == "ddr3_interface"
            else:
                assert node.memory_standard == "DDR4" and name == "ddr4_interface"

    @pytest.mark.parametrize("node_name", ["90nm", "7nm"])
    def test_sram_estimates_monotone_in_capacity(self, node_name):
        rows = node_sram_scaling(nodes=(node_name,))
        areas = [row["area_mm2"] for row in rows]
        latencies = [row["access_latency_cycles"] for row in rows]
        assert areas == sorted(areas) and len(set(areas)) == len(areas)
        assert latencies == sorted(latencies)

    def test_sram_density_improves_with_node(self):
        at_90 = node_sram_scaling(nodes=("90nm",))[0]["area_mm2"]
        at_7 = node_sram_scaling(nodes=("7nm",))[0]["area_mm2"]
        assert at_7 < at_90


class TestNodeStudyExecutors:
    def test_pod_selection_serial_equals_parallel(self):
        nodes = ("90nm", "40nm", "7nm")
        serial = node_pod_selection(nodes=nodes, executor=SERIAL_EXECUTOR)
        parallel = node_pod_selection(nodes=nodes, executor=SweepExecutor(max_workers=2))
        assert serial == parallel
        assert [row["node"] for row in serial] == [
            "90nm", "90nm", "40nm", "40nm", "7nm", "7nm"
        ]


class TestDownstreamGoldens:
    """Pre-refactor goldens: the derived family must not move these numbers."""

    def test_figure_4_6_pinned(self):
        rows = {row["topology"]: row for row in figure_4_6_noc_performance()}
        assert rows["fbfly"]["geomean"] == 1.246
        assert rows["fbfly"]["Web Search"] == 1.287
        assert rows["fbfly"]["Data Serving"] == 1.396
        assert rows["nocout"]["geomean"] == 1.178
        assert rows["nocout"]["Web Search"] == 1.202
        assert rows["mesh"]["geomean"] == 1.0

    def test_explore_pod_40nm_seeded_sample_pinned(self):
        result = explore_pod_40nm(sample=24, seed=13, use_evaluation_cache=False)
        assert result["stats"]["space_size"] == 192
        assert result["stats"]["candidates"] == 24
        assert result["stats"]["evaluated"] == 24
        assert result["stats"]["feasible"] == 7
        assert result["stats"]["frontier_size"] == 2
        ooo = result["knees"]["ooo"]
        assert ooo["candidate"] == "ooo/16/4.0/crossbar/2/40nm"
        assert ooo["performance_density"] == 0.102865
        assert ooo["performance_per_tco"] == 490.076257
        assert result["knees"]["inorder"]["candidate"] == "inorder/8/4.0/crossbar/3/40nm"
        first = result["candidates"][0]
        assert first["candidate"] == "ooo/8/1.0/crossbar/4/40nm"
        assert first["performance_density"] == 0.089063
