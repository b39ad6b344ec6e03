"""Output formatting and sums: column-formatted rows, their CSV bytes, and in-order float sums."""
from __future__ import annotations

import csv
import io
import math
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remitsim.behavior import REFERENCE_PARAMS
from remitsim.months import month_label
from remitsim.reports import (_BLOCK_ROWS, FormattedRows, columns, distinct_reprs, flow_rows,
                              fmt_cell, sequential_sum, write_csv)


def test_sequential_sum_does_not_compensate():
    # Python 3.12's builtin sum gives 1.0 here
    assert sequential_sum([1e16, 1.0, -1e16]) == 0.0
    assert sequential_sum(np.array([1e16, 1.0, -1e16])) == 0.0
    assert sequential_sum([]) == 0.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-1e300, max_value=1e300), max_size=30))
def test_sequential_sum_is_a_left_fold(values):
    expected = 0.0
    for v in values:
        expected += v
    got = sequential_sum(iter(values))
    assert got == expected and math.copysign(1.0, got) == math.copysign(1.0, expected)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=20))
def test_float_columns_format_like_fmt_cell(values):
    arr = np.array(values)
    rows = list(columns(arr, repeat("x")))
    assert rows == [(fmt_cell(v), "x") for v in arr]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 0.1, 1.0, 1e-300, float("nan"), float("inf")])
                | st.floats(), max_size=40).map(lambda v: v + v[::2]))
def test_distinct_reprs_format_like_columns(values):
    """Repeated values, -0.0 beside 0.0, NaN and infinities: each cell as columns writes it."""
    arr = np.array(values, dtype=float)
    assert list(distinct_reprs(arr)) == [row[0] for row in columns(arr)]


def test_flow_rows_write_the_bytes_of_cell_rows(desk_ctx, tmp_path):
    months = list(range(70, 80))
    grid = desk_ctx.expected_flows(REFERENCE_PARAMS)[:, 70:80]
    header = ("sender", "recipient", "month", "amount_usd", "scenario_id")
    cells = [(dest, origin, month_label(m), float(grid[c, mi]), "factual")
             for c, (origin, dest) in enumerate(desk_ctx.corridors)
             for mi, m in enumerate(months)]
    by_cell = write_csv(tmp_path / "cells.csv", header, cells)
    by_column = write_csv(tmp_path / "columns.csv", header,
                          flow_rows(desk_ctx.corridors, months, grid, "factual"))
    assert by_cell.read_bytes() == by_column.read_bytes()


# ---------------------------------------------------------------------------
# Formatted rows are written as csv.writer writes them

AWKWARD = ["a,b", 'say "hi"', "cr\rhere", "lf\nhere", "", " leading", repr(-0.0), repr(1e-05),
           repr(1e+16), "plain"]


def _csv_writer_bytes(header, rows) -> bytes:
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def _formatted_bytes(tmp_path, header, rows) -> bytes:
    return write_csv(tmp_path / "out.csv", header, FormattedRows(iter(rows))).read_bytes()


@pytest.mark.parametrize("rows", [
    [(cell, "x", cell) for cell in AWKWARD],
    [("a", "b", "c"), ("d,e", "f")],  # commas total rows x (columns - 1); one sits in a cell
    [("a", "b", "c"), ("",)],  # one empty cell: csv.writer writes ""
    [("",), ("a", "b", "c")],
    [("a", "b", "c"), (), (" ",), ("1e+16", "-0.0", "x")],
], ids=["awkward", "comma-in-short-row", "empty-cell-last", "empty-cell-first", "ragged"])
def test_awkward_cells_write_the_bytes_of_csv_writer(tmp_path, rows):
    header = ("a", "b", "c")
    assert _formatted_bytes(tmp_path, header, rows) == _csv_writer_bytes(header, rows)


@pytest.mark.parametrize("cell", AWKWARD)
@pytest.mark.parametrize("at", [0, _BLOCK_ROWS - 1, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 2])
def test_awkward_row_at_a_block_boundary(tmp_path, cell, at):
    rows = [(str(i), repr(i / 7)) for i in range(2 * _BLOCK_ROWS + 3)]
    rows[at] = (cell, cell)
    assert _formatted_bytes(tmp_path, ("i", "v"), rows) == _csv_writer_bytes(("i", "v"), rows)
    # a single-cell row of an empty string is written as "" by csv.writer
    rows[at] = ("",)
    assert _formatted_bytes(tmp_path, ("i", "v"), rows) == _csv_writer_bytes(("i", "v"), rows)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.text(alphabet=' ,"\r\nab-0.e+', max_size=4), max_size=4),
                max_size=12))
def test_drawn_rows_write_the_bytes_of_csv_writer(tmp_path_factory, rows):
    rows = [tuple(row) for row in rows]
    path = tmp_path_factory.mktemp("drawn") / "out.csv"
    assert write_csv(path, ("h",), FormattedRows(rows)).read_bytes() == _csv_writer_bytes(("h",),
                                                                                         rows)
