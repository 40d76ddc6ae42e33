"""Dead-code checker: every definition in ``src/`` must be used by shipped code.

A definition is a ``def``, a ``class`` or a module-level name.  It is used
when its name appears in the code of a Python file under :data:`SEARCHED`:
as a name that is read, an attribute, or a word inside a string literal that
is not a docstring (so names reached through ``getattr`` or registries keyed
by name are kept).  Docstrings, comments, ``import`` lines, ``__all__``
entries and the assignment that defines a name do not count.  Dunder names
are exempt (the interpreter uses them).

A definition that only :data:`TESTS` use is reported too, unless
:data:`TEST_ONLY` keeps it with a reason; so is a definition that
:data:`TEST_ONLY` keeps but shipped code uses.

A field -- an annotated name in a class body -- is reported when no file
under :data:`SEARCHED` or :data:`TESTS` reads it: loads it as an attribute,
or holds a string literal (not a docstring) that is exactly its name, as in
``getattr(x, "name")`` or ``row["name"]``.  Prose that mentions the name (an
error message) and setting a field (a keyword argument, an assignment,
``+=``) are not reads.
:data:`UNREAD_FIELDS` keeps a field with a reason; a kept field that some
code reads is reported too.

The same run reports every unused import in ``src/`` modules other than
``__init__.py`` (where imports are re-exports): an imported name that the
module never uses in code.  ``from __future__`` imports are exempt, and so
are names used only inside string annotations.

Stdlib-only, so it runs both as a CI step and from the test suite:

    python tools/check_dead_defs.py

It prints one ``path:line name`` per finding and exits 1 if any remain.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Definitions and imports audited, relative to the repository root.
AUDITED = "src"

#: Trees whose Python files count as uses, relative to the repository root.
SEARCHED = ("src", "examples", "perfbench", "tools")

#: The test tree, relative to the repository root.
TESTS = "tests"

#: Package definitions that only tests use, each kept for the stated reason.
TEST_ONLY = {
    "zero_load_latency": "the analytic interconnect models are to adopt it (ROADMAP.md)",
    "average_hop_count": "the analytic interconnect models are to adopt it (ROADMAP.md)",
    "total_flit_hops": "the NoC kernel-versus-oracle probe of per-link state",
    "schedule_at": "the service oracle schedules on EventQueue, which perfbench times",
    "from_events": "builds the traces that many tests drive",
    "get_workload": "looks up the profiles that many tests drive",
    "find_spans": "the tracer's query API, documented in docs/observability.md",
    "validate_chrome_trace": "the CI telemetry step checks traces with it",
    "FLASH_CROWD_24": "a load shape documented in docs/fleet.md",
}

#: Fields no code reads by name, each kept for the stated reason.
UNREAD_FIELDS = {
    "memory_reads": "the kernel==oracle checks compare whole SimulationStats, "
    "so this count is held equal with the rest",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _python_files(root: Path, trees: "tuple[str, ...]") -> "list[Path]":
    files: "list[Path]" = []
    for tree in trees:
        files.extend(sorted((root / tree).rglob("*.py")))
    return files


def _prose_and_exports(tree: ast.Module) -> "set[int]":
    """``id`` of every string constant that is prose or an ``__all__`` entry.

    Prose is a docstring or any other bare string statement (attribute
    docstrings after a field).
    """
    skipped: "set[int]" = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            skipped.add(id(node.value))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and node.value:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                skipped.update(id(n) for n in ast.walk(node.value))
    return skipped


def _string_words(tree: ast.Module) -> "Counter[str]":
    """Every word in a string literal of ``tree`` that is not prose or an export."""
    skipped = _prose_and_exports(tree)
    words: "Counter[str]" = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in skipped:
                words.update(_WORD.findall(node.value))
    return words


def _code_words(tree: ast.Module) -> "Counter[str]":
    """Every name ``tree``'s code uses, counted once per occurrence."""
    words = _string_words(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            words[node.id] += 1
        elif isinstance(node, ast.Attribute):
            words[node.attr] += 1
    return words


def _reads(tree: ast.Module) -> "Counter[str]":
    """Every attribute ``tree``'s code loads, and every string literal that
    is one bare name (``getattr(x, "name")``, ``row["name"]``)."""
    skipped = _prose_and_exports(tree)
    words: "Counter[str]" = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            words[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in skipped and _WORD.fullmatch(node.value):
                words[node.value] += 1
    return words


def _parsed(root: Path, trees: "tuple[str, ...]") -> "list[ast.Module]":
    """Every file in ``trees`` but this checker (which names the definitions
    :data:`TEST_ONLY` and the fields :data:`UNREAD_FIELDS` keep)."""
    return [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in _python_files(root, trees)
        if path.name != Path(__file__).name
    ]


def _definitions(tree: ast.Module) -> "list[tuple[int, str]]":
    """``(line, name)`` of every ``def``/``class`` and module-level name."""
    found = [
        (node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, _DEFINITIONS)
    ]
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else []
        )
        found.extend((node.lineno, t.id) for t in targets if isinstance(t, ast.Name))
    return [
        (line, name) for line, name in found
        if not (name.startswith("__") and name.endswith("__"))
    ]


def _fields(tree: ast.Module) -> "list[tuple[int, str]]":
    """``(line, name)`` of every annotated name in a class body of ``tree``."""
    return [
        (statement.lineno, statement.target.id)
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for statement in node.body
        if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)
    ]


def _annotation_words(tree: ast.Module) -> "set[str]":
    """Every word inside a string annotation in ``tree``."""
    annotations: "list[ast.expr | None]" = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    return {
        word
        for annotation in annotations if annotation is not None
        for node in ast.walk(annotation)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for word in _WORD.findall(node.value)
    }


def _unused_imports(tree: ast.Module) -> "list[tuple[int, str]]":
    """``(line, name)`` of every name ``tree`` imports and never uses."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _annotation_words(tree)
    unused: "list[tuple[int, str]]" = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "*" and bound not in used:
                    unused.append((node.lineno, bound))
    return unused


def dead_definitions(root: Path = REPO) -> "list[str]":
    """``path:line name`` of every finding under ``root``, sorted.

    A finding is a dead definition, a test-only definition :data:`TEST_ONLY`
    does not keep, a shipped one it does keep, a field that nothing reads
    and :data:`UNREAD_FIELDS` does not keep, a read one it does keep, or an
    unused import.
    """
    shipped_trees = _parsed(root, SEARCHED)
    tested_trees = _parsed(root, (TESTS,))
    shipped = sum(map(_code_words, shipped_trees), Counter())
    tested = sum(map(_code_words, tested_trees), Counter())
    read = sum(map(_reads, shipped_trees + tested_trees), Counter())
    found: "list[tuple[str, int, str]]" = []
    for path in _python_files(root, (AUDITED,)):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        label = str(path.relative_to(root))
        for line, name in _definitions(tree):
            if shipped[name] == 0 and tested[name] == 0:
                found.append((label, line, name))
            elif shipped[name] == 0 and name not in TEST_ONLY:
                found.append((label, line, f"{name} (only tests use it)"))
            elif shipped[name] > 0 and name in TEST_ONLY:
                found.append((label, line, f"{name} (kept in TEST_ONLY, but shipped code uses it)"))
        for line, name in _fields(tree):
            if read[name] == 0 and name not in UNREAD_FIELDS:
                found.append((label, line, f"{name} (field nothing reads)"))
            elif read[name] > 0 and name in UNREAD_FIELDS:
                found.append((label, line, f"{name} (kept in UNREAD_FIELDS, but code reads it)"))
        if path.name != "__init__.py":
            found.extend(
                (label, line, f"{name} (unused import)")
                for line, name in _unused_imports(tree)
            )
    return [f"{label}:{line} {name}" for label, line, name in sorted(found)]


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO,
                        help="repository root to audit (default: this checkout)")
    args = parser.parse_args(argv)
    dead = dead_definitions(args.root)
    for label in dead:
        print(label)
    print(f"dead code findings: {len(dead)}", file=sys.stderr)
    return 1 if dead else 0


if __name__ == "__main__":
    raise SystemExit(main())
