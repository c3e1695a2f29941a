"""Aligned ASCII tables from dict rows.

The one rendering every layer's report shares — trace summaries, load
sweeps, CLI listings and the experiment harness — so it sits in the
substrate, below all of them.  Output is deliberately plain: aligned
columns, no external dependencies.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["format_table"]


def _cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 1000 else f"{value:,.0f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]], title: str | None = None
) -> str:
    """Render dict rows as an aligned ASCII table.

    Columns are the union of keys, in first-appearance order.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    rendered = [[_cell(row.get(column)) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(line[i]) for line in rendered))
        for i, column in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(column.ljust(widths[i]) for i, column in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for line in rendered:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(line)))
    return "\n".join(lines)
