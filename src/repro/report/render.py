"""Renderers turning a validation run into report artifacts.

:func:`render_markdown` emits the committed, diff-able ``docs/REPORT.md``:
a summary table, then one section per chapter with a claim table and an ASCII
sketch of the numeric claims (actual value bars with the expected value in
text).  The output is deliberately free of timestamps, wall times, and cache
statuses so regenerating the report on a warm cache is byte-identical.

:func:`render_svg` draws the same per-chapter sketch as a small standalone
SVG bar figure for web rendering (``python -m repro report --svg-dir``).
"""

from __future__ import annotations

import numbers

from repro.report.claims import Grade, GradedClaim, format_value
from repro.report.validate import ValidationRun

#: Section titles per chapter of the report.
CHAPTER_TITLES = {
    2: "Scale-out workloads and baseline designs",
    3: "The performance-density methodology",
    4: "NOC-Out: the scale-out interconnect",
    5: "Datacenter performance and TCO",
    6: "3D-stacked scale-out processors",
    7: "Service-level studies (beyond the paper)",
    8: "Design-space exploration (beyond the paper)",
    9: "Dependability under faults (beyond the paper)",
    10: "Fleet-scale traffic simulation (beyond the paper)",
    11: "The technology-node family (beyond the paper)",
}

_GRADE_MARK = {Grade.PASS: "✅ pass", Grade.WARN: "⚠️ warn", Grade.FAIL: "❌ fail"}

#: Width, in characters, of the longest ASCII sketch bar.
BAR_WIDTH = 40


def _fmt(value: object) -> str:
    """:func:`~repro.report.claims.format_value`, with strings kept unquoted.

    Table cells and sketch labels show strings bare; numbers share the
    grader's ``.6g`` formatting so a value never renders two ways.
    """
    if isinstance(value, str):
        return value
    return format_value(value)


def _numeric_claims(items: "list[GradedClaim]") -> "list[GradedClaim]":
    return [
        item
        for item in items
        if isinstance(item.actual, numbers.Real) and not isinstance(item.actual, bool)
    ]


def ascii_sketch(items: "list[GradedClaim]", width: int = BAR_WIDTH) -> str:
    """ASCII bar sketch of the numeric claims' actual values.

    Bars are scaled to the largest absolute actual value in the group; each
    line carries the claim id, the bar, the value, and -- for value claims --
    the expected target.
    """
    numeric = _numeric_claims(items)
    if not numeric:
        return ""
    label_width = max(len(item.claim.claim_id) for item in numeric)
    scale = max(abs(float(item.actual)) for item in numeric) or 1.0  # type: ignore[arg-type]
    lines = []
    for item in numeric:
        value = float(item.actual)  # type: ignore[arg-type]
        bar = "#" * max(1, round(abs(value) / scale * width))
        suffix = f" {_fmt(item.actual)}"
        if item.claim.kind == "value":
            suffix += f" (expected {_fmt(item.claim.expected)})"
        lines.append(f"{item.claim.claim_id.ljust(label_width)} |{bar}{suffix}")
    return "\n".join(lines)


def render_svg(chapter: int, items: "list[GradedClaim]", width: int = 560) -> str:
    """A standalone SVG bar figure of one chapter's numeric claims."""
    numeric = _numeric_claims(items)
    bar_h, gap, left, top = 18, 6, 220, 34
    height = top + len(numeric) * (bar_h + gap) + 12
    scale = max((abs(float(i.actual)) for i in numeric), default=1.0) or 1.0  # type: ignore[arg-type]
    fill = {Grade.PASS: "#2e7d32", Grade.WARN: "#f9a825", Grade.FAIL: "#c62828"}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="12">',
        f'<text x="8" y="20" font-size="14">Chapter {chapter} — '
        f"{CHAPTER_TITLES.get(chapter, '')}</text>",
    ]
    for index, item in enumerate(numeric):
        y = top + index * (bar_h + gap)
        value = float(item.actual)  # type: ignore[arg-type]
        bar = max(2, round(abs(value) / scale * (width - left - 90)))
        parts.append(
            f'<text x="8" y="{y + 13}">{item.claim.claim_id}</text>'
            f'<rect x="{left}" y="{y}" width="{bar}" height="{bar_h}" '
            f'fill="{fill[item.grade]}"/>'
            f'<text x="{left + bar + 6}" y="{y + 13}">{_fmt(item.actual)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def _claim_table(items: "list[GradedClaim]") -> "list[str]":
    lines = [
        "| claim | source | expected | actual | grade | note |",
        "|---|---|---|---|---|---|",
    ]
    escape = lambda text: text.replace("|", "\\|")  # noqa: E731
    for item in items:
        lines.append(
            "| `{id}` | {source} | {expected} | {actual} | {grade} | {note} |".format(
                id=item.claim.claim_id,
                source=escape(item.claim.source),
                expected=escape(item.claim.expected_display()),
                actual=escape(_fmt(item.actual)),
                grade=_GRADE_MARK[item.grade],
                note=escape(item.detail),
            )
        )
    return lines


def render_markdown(run: ValidationRun) -> str:
    """The full reproduction report as deterministic Markdown.

    Args:
        run: a :class:`~repro.report.validate.ValidationRun` to render.

    Returns:
        The report text, ending in a single newline; regenerating from the
        same experiment outputs reproduces it byte for byte.
    """
    summary = run.summary()
    lines = [
        "# Reproduction report — Scale-Out Processors (ISCA 2012)",
        "",
        "<!-- Generated by `python -m repro report --out docs/REPORT.md`."
        " Do not edit by hand: tests/test_docs.py checks this file against"
        " regeneration. -->",
        "",
        "Every registered claim from the paper-expected-values registry"
        " (see [docs/report.md](report.md)), graded against a fresh run of the"
        " experiment that reproduces it.",
        "",
        "## Summary",
        "",
        f"**{summary['claims']} claims — {summary['pass']} pass,"
        f" {summary['warn']} warn, {summary['fail']} fail**"
        f" across {summary['experiments']} experiments"
        f" (chapters {', '.join(str(c) for c in summary['chapters'])}).",
        "",
        "| chapter | claims | pass | warn | fail |",
        "|---|---|---|---|---|",
    ]
    by_chapter = run.by_chapter()
    for chapter, items in by_chapter.items():
        passes = sum(1 for i in items if i.grade is Grade.PASS)
        warns = sum(1 for i in items if i.grade is Grade.WARN)
        fails = sum(1 for i in items if i.grade is Grade.FAIL)
        title = CHAPTER_TITLES.get(chapter, f"Chapter {chapter}")
        lines.append(f"| {chapter} — {title} | {len(items)} | {passes} | {warns} | {fails} |")
    for chapter, items in by_chapter.items():
        lines += [
            "",
            f"## Chapter {chapter} — {CHAPTER_TITLES.get(chapter, '')}",
            "",
        ]
        lines += _claim_table(items)
        sketch = ascii_sketch(items)
        if sketch:
            lines += ["", "```text", sketch, "```"]
    lines += [
        "",
        "---",
        "",
        "Experiments behind the claims: "
        + ", ".join(f"`{experiment_id}`" for experiment_id in run.experiment_ids())
        + ".",
        "",
        "Tolerance semantics, the metric-path language, and the"
        " figure→claim→module map are documented in"
        " [docs/report.md](report.md).",
    ]
    return "\n".join(lines) + "\n"
