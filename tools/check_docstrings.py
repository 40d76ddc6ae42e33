"""Docstring coverage checker (an ``interrogate --fail-under`` equivalent).

Walks Python files, counts public docstring carriers (module, public classes,
public functions/methods -- underscore names and ``__init__`` are exempt, as
this codebase documents constructor arguments in the class docstring), and
fails when the documented fraction is below the threshold.  Stdlib-only, so it runs both as a CI step and from the test suite:

    python tools/check_docstrings.py --fail-under 100 \
        src/repro/runtime src/repro/service src/repro/noc/fastpath.py

With no targets it audits :data:`ENFORCED`, the public entry points that CI
and the tier-1 suite both hold to 100%.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path


REPO = Path(__file__).resolve().parent.parent

#: Public entry points held to 100% docstring coverage, relative to the
#: repository root.  The CI step and ``tests/test_docstrings.py`` both audit
#: exactly this list.
ENFORCED = (
    "src/repro/runtime",
    "src/repro/obs",
    "src/repro/dse",
    "src/repro/report",
    "src/repro/faults",
    "src/repro/fleet",
    "src/repro/technology/family.py",
    "src/repro/technology/node.py",
    "src/repro/experiments/technology.py",
    "src/repro/service",
    "src/repro/noc",
    "src/repro/sim",
    "src/repro/perfmodel",
    "src/repro/caches",
    "src/repro/workloads",
    "src/repro/cores",
    "src/repro/memory",
)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def iter_python_files(targets: "list[str]") -> "list[Path]":
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: "set[Path]" = set()
    for target in targets:
        path = Path(target)
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
        else:
            raise FileNotFoundError(f"no such python file or directory: {target}")
    return sorted(files)


def audit_file(path: Path) -> "tuple[int, int, list[str]]":
    """(documented, total, missing descriptions) for one file's public API."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    documented, total, missing = 0, 0, []

    def record(node, label: str) -> None:
        nonlocal documented, total
        total += 1
        if ast.get_docstring(node):
            documented += 1
        else:
            missing.append(label)

    record(tree, f"{path}:1 (module docstring)")
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if _is_public(node.name):
                record(node, f"{path}:{node.lineno} {node.name}")
    return documented, total, missing


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="*",
                        help="files or directories to audit (default: ENFORCED)")
    parser.add_argument("--fail-under", type=float, default=100.0, metavar="PCT",
                        help="minimum documented percentage (default 100)")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary line")
    args = parser.parse_args(argv)

    documented = total = 0
    missing: "list[str]" = []
    targets = args.targets or [str(REPO / target) for target in ENFORCED]
    for path in iter_python_files(targets):
        file_documented, file_total, file_missing = audit_file(path)
        documented += file_documented
        total += file_total
        missing.extend(file_missing)

    coverage = 100.0 * documented / total if total else 100.0
    if not args.quiet:
        print(f"docstring coverage: {documented}/{total} = {coverage:.1f}% "
              f"(threshold {args.fail_under:.1f}%)")
    if coverage < args.fail_under:
        for label in missing:
            print(f"  missing: {label}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
