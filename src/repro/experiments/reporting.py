"""ASCII rendering of experiment results.

Shared by the benchmark harness (which prints each regenerated table
and figure) and the examples: learning curves laid out as one
:func:`repro.utils.table.format_table` table, x as rows.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.utils.table import format_table


def format_series(
    series: Mapping[str, Sequence[tuple[int, float]]],
    title: str | None = None,
    x_label: str = "documents",
    y_format: str = "{:.4f}",
) -> str:
    """Render labelled (x, y) series as one aligned table, x as rows.

    Mirrors how the paper's figures would be read off: one row per
    document-count tick, one column per corpus/strategy.
    """
    labels = list(series)
    ticks = sorted({x for points in series.values() for x, _ in points})
    by_label = {label: dict(points) for label, points in series.items()}
    rows = []
    for tick in ticks:
        row: dict[str, object] = {x_label: tick}
        for label in labels:
            value = by_label[label].get(tick)
            row[label] = None if value is None else y_format.format(value)
        rows.append(row)
    return format_table(rows, title=title)


def curve_series(
    curves: Mapping[str, object], metric: str
) -> dict[str, list[tuple[int, float]]]:
    """Extract (documents, metric) series from labelled LearningCurves."""
    extracted: dict[str, list[tuple[int, float]]] = {}
    for label, curve in curves.items():
        extracted[label] = [
            (point.documents, getattr(point, metric)) for point in curve.points
        ]
    return extracted
