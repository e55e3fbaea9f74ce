"""Plain-text tables — every bench prints the rows its paper figure plots."""

from __future__ import annotations

from typing import List, Sequence


def banner(title: str, width: int = 72) -> str:
    """A section header line."""
    bar = "=" * width
    return f"{bar}\n{title}\n{bar}"


def format_table(headers: Sequence[str], rows: List[Sequence]) -> str:
    """A full aligned table with a header rule."""
    widths = [len(h) for h in headers]
    rendered_rows = []
    for row in rows:
        rendered = [
            f"{c:.3f}" if isinstance(c, float) else str(c) for c in row
        ]
        rendered_rows.append(rendered)
        for i, cell in enumerate(rendered):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for rendered in rendered_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(rendered, widths)))
    return "\n".join(lines)
