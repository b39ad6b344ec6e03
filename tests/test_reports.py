"""Output formatting and sums: column-formatted rows and in-order float sums."""
from __future__ import annotations

import math
from itertools import repeat

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from remitsim.behavior import REFERENCE_PARAMS
from remitsim.months import month_label
from remitsim.reports import columns, flow_rows, fmt_cell, sequential_sum, write_csv


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
