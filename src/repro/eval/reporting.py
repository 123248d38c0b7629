"""Plain-text rendering of experiment tables.

Benchmarks print these tables so that a run of ``pytest benchmarks/
--benchmark-only`` regenerates the same rows/series the paper reports
(the paper-vs-measured record is planned in ROADMAP.md's paper-fidelity
item).
"""

from __future__ import annotations

from collections.abc import Sequence


def _format_cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.3g}"
    return str(value)


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence],
    note: str = "",
) -> str:
    """Render an ASCII table with a title line and optional footnote."""
    cells = [[_format_cell(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells
        else len(headers[i])
        for i in range(len(headers))
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = [title, "=" * len(title)]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths, strict=True)))
    lines.append(sep)
    for row in cells:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths, strict=True)))
    if note:
        lines.append("")
        lines.append(note)
    return "\n".join(lines)
