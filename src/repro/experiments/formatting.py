"""Plain-text table rendering for experiment output."""

from __future__ import annotations

from typing import Mapping, Sequence


def format_table(rows: Sequence[Mapping[str, object]], title: "str | None" = None) -> str:
    """Render a list of row dictionaries as an aligned plain-text table."""
    if not rows:
        return f"{title}\n(no data)" if title else "(no data)"
    # Union of all row keys in first-appearance order, so heterogeneous rows
    # (e.g. a CLI sweep across different parameterizations) all stay visible.
    columns: "list[str]" = []
    for row in rows:
        for key in row.keys():
            if key not in columns:
                columns.append(str(key))
    widths = {c: len(str(c)) for c in columns}
    rendered_rows = []
    for row in rows:
        rendered = {c: _fmt(row.get(c, "")) for c in columns}
        rendered_rows.append(rendered)
        for c in columns:
            widths[c] = max(widths[c], len(rendered[c]))
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(c).ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[c] for c in columns))
    for rendered in rendered_rows:
        lines.append(" | ".join(rendered[c].ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
