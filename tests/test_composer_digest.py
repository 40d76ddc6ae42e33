"""Full-precision pins on every chip the pod-to-chip composers build.

``docs/REPORT.md`` shows only rounded claim values, so a one-ulp drift in a
composed chip's area, power or performance would pass it unnoticed.  Each
test here hashes one record per composed chip -- name, pod, pod count,
channels, dies and the ``repr`` of die area, power and
``chip.performance()`` -- and compares the SHA-256 against a
digest pinned before the composers were unified.  ``chip.performance`` is
hashed rather than the ``pod_performance`` field, whose filling is free to
change.
"""

import hashlib

import pytest

from repro.core.designs import standard_designs
from repro.dse.evaluate import _build_chip, suite_for
from repro.dse.studies import _pod_space
from repro.experiments.technology import _SCALING_DESIGNS
from repro.technology.family import DEFAULT_FAMILY
from repro.technology.node import NODE_20NM, NODE_40NM
from repro.three_d.designer import ThreeDDesignStudy
from repro.workloads import default_suite


@pytest.fixture(scope="module")
def suite():
    return default_suite()


def _record(chip):
    return "|".join(
        (
            chip.name,
            repr(chip.pod),
            str(chip.num_pods),
            str(chip.memory_channels),
            str(chip.num_dies),
            repr(chip.die_area_mm2),
            repr(chip.power_w),
            repr(chip.performance()),
        )
    )


def _digest(records):
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


def test_standard_designs_digest(suite):
    records = [
        _record(chip)
        for node in (NODE_40NM, NODE_20NM)
        for chip in standard_designs(node, suite)
    ]
    assert len(records) == 22
    assert _digest(records) == (
        "464bcd22ba0544a382963193ac74af0ff2cbea4155aca4037e747a61615ece7e"
    )


def test_three_d_specification_table_digest(suite, monkeypatch):
    study = ThreeDDesignStudy(suite=suite)
    composed = []
    compose = ThreeDDesignStudy.compose_chip

    def recording_compose(self, stacked_pod, name=None):
        chip = compose(self, stacked_pod, name)
        composed.append(chip)
        return chip

    monkeypatch.setattr(ThreeDDesignStudy, "compose_chip", recording_compose)
    for core_type in ("ooo", "inorder"):
        study.specification_table(core_type)
    records = [_record(chip) for chip in composed]
    assert len(records) == 10
    assert _digest(records) == (
        "672ca8800d7553957d27b43b0e99c285df9be46885dd894a879b5dcd1fe80f1e"
    )


def test_node_scaling_designs_digest(suite):
    records = []
    for node in DEFAULT_FAMILY.nodes():
        for name, builder, extra in _SCALING_DESIGNS:
            try:
                chip = builder(*extra, node=node, suite=suite)
            except ValueError as error:
                records.append(f"{node.name}|{name}|{error}")
                continue
            records.append(f"{node.name}|{_record(chip)}")
    assert _digest(records) == (
        "9426cf5f00e020039a98613455c967facf639b2080f5da4a33971762e4f867a8"
    )


def test_explore_pod_40nm_candidates_digest():
    space = _pod_space(
        ("ooo", "inorder"), (8, 16, 32, 64), (1.0, 2.0, 4.0, 8.0),
        (1, 2, 3, 4, 6, 8), ("40nm",), ("crossbar",),
    )
    suite = suite_for("default")
    candidates = space.enumerate()
    assert len(candidates) == 192
    records = [_record(_build_chip(params, suite)) for params in candidates]
    assert _digest(records) == (
        "aad5dae66ae5cdd3cd34555d59499c5c2de72de878f74e78f997aaceb2bae0f8"
    )
