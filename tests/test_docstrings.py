"""Docstring coverage gate for the public entry points (tier-1 enforced).

Uses the stdlib checker in ``tools/check_docstrings.py`` (our
``interrogate --fail-under`` equivalent).  Its ``ENFORCED`` list is the one
list of gated targets; CI runs the checker on it as a dedicated step.
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from check_docstrings import ENFORCED, audit_file, iter_python_files, main  # noqa: E402


def test_enforced_modules_fully_documented():
    failures = []
    for target in ENFORCED:
        for path in iter_python_files([str(REPO / target)]):
            _, _, missing = audit_file(path)
            failures.extend(missing)
    assert not failures, "public APIs missing docstrings:\n" + "\n".join(failures)


def test_checker_cli_passes_on_enforced_targets(capsys):
    # The CI step's invocation: no targets means the ENFORCED list.
    code = main(["--fail-under", "100"])
    out = capsys.readouterr().out
    assert code == 0
    assert "100.0%" in out


def test_checker_cli_fails_below_threshold(tmp_path, capsys):
    bad = tmp_path / "undocumented.py"
    bad.write_text("def exposed():\n    pass\n")
    code = main(["--fail-under", "100", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert "exposed" in captured.err
