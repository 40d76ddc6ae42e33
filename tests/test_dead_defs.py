"""Dead-code gate for ``src/`` (tier-1 enforced).

Uses the stdlib checker in ``tools/check_dead_defs.py``; CI runs the same
checker as a dedicated step after the docstring gate.
"""

import ast
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import check_dead_defs  # noqa: E402
from check_dead_defs import TEST_ONLY, dead_definitions, main  # noqa: E402


def test_src_has_no_dead_definitions():
    dead = dead_definitions()
    assert not dead, "dead code in src/:\n" + "\n".join(dead)


def test_checker_cli_passes_on_the_repository(capsys):
    assert main([]) == 0
    assert "dead code findings: 0" in capsys.readouterr().err


def test_every_kept_test_only_name_is_defined():
    defined = set()
    for path in (REPO / "src").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(name for _, name in check_dead_defs._definitions(tree))
    assert set(TEST_ONLY) <= defined, sorted(set(TEST_ONLY) - defined)


def _audit(root, module, users=None, tests=None, init=None):
    """Findings for ``src/pkg/mod.py`` holding ``module``.

    ``users`` is shipped code (``examples/use.py``) and ``tests`` test code
    (``tests/test_mod.py``); either may name what ``module`` defines.
    """
    package = root / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(module)
    if init is not None:
        (package / "__init__.py").write_text(init)
    for tree, name, text in (("examples", "use.py", users), ("tests", "test_mod.py", tests)):
        (root / tree).mkdir()
        if text is not None:
            (root / tree / name).write_text(text)
    return [line.replace("\\", "/") for line in dead_definitions(root)]


def test_checker_flags_a_definition_named_nowhere_else(tmp_path, capsys):
    _audit(
        tmp_path,
        "class Used:\n"
        "    def __repr__(self):\n"
        "        return 'Used'\n"
        "\n"
        "    def orphan(self):\n"
        "        pass\n"
        "\n"
        "def by_name():\n"
        "    pass\n",
        users="from pkg.mod import Used\ngetattr(Used(), 'by_name', None)\n",
    )
    assert main(["--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert out.splitlines() == [str(Path("src/pkg/mod.py")) + ":5 orphan"]


def test_a_docstring_mention_is_not_a_use(tmp_path):
    found = _audit(
        tmp_path,
        "def helper():\n    pass\n",
        users='"""Call ``helper`` to help."""\n# helper is handy\n',
    )
    assert found == ["src/pkg/mod.py:1 helper"]


def test_an_import_is_not_a_use(tmp_path):
    found = _audit(
        tmp_path, "def helper():\n    pass\n", users="from pkg.mod import helper\n"
    )
    assert found == ["src/pkg/mod.py:1 helper"]


def test_an_all_entry_is_not_a_use(tmp_path):
    found = _audit(
        tmp_path,
        "def helper():\n    pass\n",
        init='from pkg.mod import helper\n\n__all__ = ["helper"]\n',
    )
    assert found == ["src/pkg/mod.py:1 helper"]


def test_a_string_literal_in_code_is_a_use(tmp_path):
    found = _audit(
        tmp_path,
        "def helper():\n    pass\n",
        users="import pkg.mod\nprint(getattr(pkg.mod, 'helper'))\n",
    )
    assert found == []


def test_module_level_names_are_audited(tmp_path):
    found = _audit(
        tmp_path,
        "LIMIT = 3\nUNUSED = 4\nprint(LIMIT)\n",
    )
    assert found == ["src/pkg/mod.py:2 UNUSED"]


def test_a_definition_only_tests_use_is_reported(tmp_path):
    found = _audit(
        tmp_path,
        "def helper():\n    pass\n",
        tests="from pkg.mod import helper\nhelper()\n",
    )
    assert found == ["src/pkg/mod.py:1 helper (only tests use it)"]


def test_test_only_keeps_a_definition_only_while_it_is_test_only(tmp_path, monkeypatch):
    monkeypatch.setitem(TEST_ONLY, "helper", "a fixture")
    module = "def helper():\n    pass\n"
    assert _audit(tmp_path / "a", module, tests="helper()\n") == []
    assert _audit(tmp_path / "b", module, users="helper()\n") == [
        "src/pkg/mod.py:1 helper (kept in TEST_ONLY, but shipped code uses it)"
    ]


@pytest.mark.parametrize(
    ("module", "expected"),
    [
        ("import math\nimport os\nprint(os.sep)\n", ["src/pkg/mod.py:1 math (unused import)"]),
        (
            "from typing import Iterable, Sequence\n"
            "def f(x: Sequence) -> int:\n    return len(x)\nprint(f)\n",
            ["src/pkg/mod.py:1 Iterable (unused import)"],
        ),
        ("import os.path\nprint(os.sep)\n", []),
        ("from __future__ import annotations\n", []),
        (
            "from typing import Iterable\n"
            "def f(x: \"Iterable[int]\") -> \"list[int]\":\n    return list(x)\nprint(f)\n",
            [],
        ),
        ("import numpy as np\nprint(np)\n", []),
        ("import numpy as np\n", ["src/pkg/mod.py:1 np (unused import)"]),
    ],
    ids=["module", "from", "dotted", "future", "string-annotation", "alias-used", "alias-unused"],
)
def test_unused_imports_are_reported(tmp_path, module, expected):
    assert _audit(tmp_path, module) == expected


def test_init_modules_may_re_export(tmp_path):
    found = _audit(
        tmp_path,
        "def helper():\n    pass\n",
        users="from pkg import helper\nhelper()\n",
        init="from pkg.mod import helper\n",
    )
    assert found == []
