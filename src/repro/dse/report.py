"""Report rendering: series tables, CSV export and ASCII plots.

The paper's figures are line plots; a terminal reproduction renders the
same series as aligned tables plus a character-cell plot so the knees and
crossovers are visible without a display server.
"""

from __future__ import annotations

import io
from collections.abc import Sequence

Series = dict[str, list[tuple[float, float]]]

_MARKS = "ox+*#@%&$~^=<>"


def format_table(
    header: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Fixed-width table with right-aligned numeric columns."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in header]
    for row in cells:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    out = io.StringIO()
    if title:
        out.write(f"{title}\n")
    out.write("  ".join(h.rjust(w) for h, w in zip(header, widths)) + "\n")
    out.write("  ".join("-" * w for w in widths) + "\n")
    for row in cells:
        out.write("  ".join(c.rjust(w) for c, w in zip(row, widths)) + "\n")
    return out.getvalue()


def ascii_plot(
    series: Series,
    width: int = 72,
    height: int = 20,
    x_label: str = "x",
    y_label: str = "y",
    title: str = "",
) -> str:
    """Scatter plot of one or more labelled series on a character canvas."""
    points = [(x, y) for values in series.values() for x, y in values]
    if not points:
        return "(no data)\n"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0
    canvas = [[" "] * width for __ in range(height)]

    def plot_cell(x: float, y: float) -> tuple[int, int]:
        col = int((x - x_min) / x_span * (width - 1))
        row = int((y - y_min) / y_span * (height - 1))
        return height - 1 - row, col

    for index, (label, values) in enumerate(series.items()):
        mark = _MARKS[index % len(_MARKS)]
        for x, y in values:
            row, col = plot_cell(x, y)
            canvas[row][col] = mark

    out = io.StringIO()
    if title:
        out.write(f"{title}\n")
    out.write(f"{y_label}: {y_min:.3g} .. {y_max:.3g} (bottom to top)\n")
    for row in canvas:
        out.write("|" + "".join(row) + "\n")
    out.write("+" + "-" * width + "\n")
    out.write(f"{x_label}: {x_min:.3g} .. {x_max:.3g} (left to right)\n")
    legend = "  ".join(
        f"{_MARKS[i % len(_MARKS)]}={label}" for i, label in enumerate(series)
    )
    out.write(f"legend: {legend}\n")
    return out.getvalue()
