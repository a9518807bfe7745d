"""Report rendering."""

from __future__ import annotations

from repro.dse.report import ascii_plot, format_table


def test_format_table_aligns_columns():
    text = format_table(["a", "long_header"], [[1, 2], [333, 4]])
    lines = text.splitlines()
    assert "long_header" in lines[0]
    assert lines[1].startswith("-")
    assert "333" in lines[3]
    assert "2" in lines[2]


def test_format_table_title():
    text = format_table(["x"], [[1]], title="My Table")
    assert text.startswith("My Table\n")


def test_ascii_plot_contains_series_marks():
    series = {"one": [(0.0, 0.0), (1.0, 1.0)], "two": [(0.5, 0.5)]}
    text = ascii_plot(series, width=20, height=10)
    assert "o" in text and "x" in text
    assert "legend" in text
    assert "0 .. 1" in text


def test_ascii_plot_empty():
    assert ascii_plot({}) == "(no data)\n"


def test_ascii_plot_single_point():
    text = ascii_plot({"s": [(5.0, 7.0)]}, width=10, height=5)
    assert "o" in text


def test_ascii_plot_extremes_at_edges():
    series = {"s": [(0.0, 0.0), (10.0, 10.0)]}
    text = ascii_plot(series, width=11, height=5, title="T")
    lines = [row for row in text.splitlines() if row.startswith("|")]
    assert lines[0].rstrip().endswith("o")   # max lands top-right
    assert lines[-1][1] == "o"               # min lands bottom-left
