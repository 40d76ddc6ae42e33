"""Dead-definition checker: every ``def``/``class`` in ``src/`` must be named elsewhere.

A definition is dead when its name occurs in no Python file under
:data:`SEARCHED` other than at its own ``def``/``class`` lines.  Occurrences
inside strings and comments count as uses, so names reached through
``getattr`` or registries keyed by name are kept.  Dunder methods are
exempt (the interpreter calls them).  Stdlib-only, so it runs both as a CI
step and from the test suite:

    python tools/check_dead_defs.py

It prints one ``path:line name`` per dead definition and exits 1 if any
remain.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Definitions audited, relative to the repository root.
AUDITED = "src"

#: Trees whose Python files count as uses, relative to the repository root.
SEARCHED = ("src", "tests", "examples", "perfbench", "tools")

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _python_files(root: Path, trees: "tuple[str, ...]") -> "list[Path]":
    files: "list[Path]" = []
    for tree in trees:
        files.extend(sorted((root / tree).rglob("*.py")))
    return files


def dead_definitions(root: Path = REPO) -> "list[str]":
    """``path:line name`` of every dead definition under ``root / AUDITED``."""
    words: "Counter[str]" = Counter()
    for path in _python_files(root, SEARCHED):
        words.update(_WORD.findall(path.read_text(encoding="utf-8")))

    definitions: "list[tuple[Path, int, str]]" = []
    for path in _python_files(root, (AUDITED,)):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    definitions.append((path, node.lineno, node.name))

    defined = Counter(name for _, _, name in definitions)
    return [
        f"{path.relative_to(root)}:{line} {name}"
        for path, line, name in definitions
        if words[name] <= defined[name]
    ]


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO,
                        help="repository root to audit (default: this checkout)")
    args = parser.parse_args(argv)
    dead = dead_definitions(args.root)
    for label in dead:
        print(label)
    print(f"dead definitions: {len(dead)}", file=sys.stderr)
    return 1 if dead else 0


if __name__ == "__main__":
    raise SystemExit(main())
