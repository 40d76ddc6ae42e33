"""The start-up contract: a run imports only the modules it executes.

Each check imports in a fresh interpreter and reads ``sys.modules``, so
nothing this test process already loaded can hide an eager import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_after(code: str, probes: "tuple[str, ...]") -> "list[str]":
    """The ``probes`` present in ``sys.modules`` after running ``code``."""
    report = f"print(json.dumps([m for m in {list(probes)!r} if m in sys.modules]))"
    script = f"import json, sys\n{code}\n{report}"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_chapter3_loads_no_other_subsystem():
    heavy = ("networkx", "repro.noc", "repro.fleet", "repro.dse", "repro.service")
    assert loaded_after("import repro.experiments.chapter3", heavy) == []


@pytest.mark.parametrize(
    "module",
    [
        "repro.experiments.chapter4",
        "repro.experiments.faults",
        "repro.fleet",
        "repro.experiments.registry",
    ],
)
def test_healthy_paths_load_no_networkx(module):
    assert loaded_after(f"import {module}", ("networkx",)) == []


@pytest.mark.parametrize(
    "module", ["repro.fleet", "repro.service", "repro.experiments.faults"]
)
def test_service_paths_load_no_cycle_simulator(module):
    # Importing any repro.sim module loads the repro.sim package first.
    assert loaded_after(f"import {module}", ("repro.sim",)) == []


def test_link_faults_load_networkx_on_first_use():
    code = (
        "from repro.faults import LinkFault, apply_link_faults\n"
        "from repro.noc.topology import build_mesh\n"
        "mesh = build_mesh(16)\n"
        "assert apply_link_faults(mesh, ()) is mesh\n"
        "assert 'networkx' not in sys.modules\n"
        "apply_link_faults(mesh, (LinkFault(link=(5, 6), severity='down'),))"
    )
    assert loaded_after(code, ("networkx",)) == ["networkx"]
