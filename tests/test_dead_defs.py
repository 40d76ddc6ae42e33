"""Dead-definition gate for ``src/`` (tier-1 enforced).

Uses the stdlib checker in ``tools/check_dead_defs.py``; CI runs the same
checker as a dedicated step after the docstring gate.
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from check_dead_defs import dead_definitions, main  # noqa: E402


def test_src_has_no_dead_definitions():
    dead = dead_definitions()
    assert not dead, "definitions nothing references:\n" + "\n".join(dead)


def test_checker_cli_passes_on_the_repository(capsys):
    assert main([]) == 0
    assert "dead definitions: 0" in capsys.readouterr().err


def test_checker_flags_a_definition_named_nowhere_else(tmp_path, capsys):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "class Used:\n"
        "    def __repr__(self):\n"
        "        return 'Used'\n"
        "\n"
        "    def orphan(self):\n"
        "        pass\n"
        "\n"
        "def by_name():\n"
        "    pass\n"
    )
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text(
        "from pkg.mod import Used\n"
        "getattr(Used(), 'by_name', None)\n"
    )
    assert main(["--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert out.splitlines() == [str(Path("src/pkg/mod.py")) + ":5 orphan"]
