"""Output formatting and sums: grids written as the bytes of csv.writer, and in-order float sums."""
from __future__ import annotations

import csv
import io
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remitsim import reports
from remitsim.behavior import REFERENCE_PARAMS
from remitsim.months import month_label
from remitsim.reports import Grid, flow_grid, fmt_cell, sequential_sum, write_csv


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


def test_flow_grid_writes_the_bytes_of_cell_rows(desk_ctx, tmp_path):
    months = list(range(70, 80))
    grid = desk_ctx.expected_flows(REFERENCE_PARAMS)[:, 70:80]
    header = ("sender", "recipient", "month", "amount_usd", "scenario_id")
    cells = [(dest, origin, month_label(m), float(grid[c, mi]), "factual")
             for c, (origin, dest) in enumerate(desk_ctx.corridors)
             for mi, m in enumerate(months)]
    by_cell = write_csv(tmp_path / "cells.csv", header, cells)
    by_column = write_csv(tmp_path / "columns.csv", header,
                          flow_grid(desk_ctx.corridors, months, grid, "factual"))
    assert by_cell.read_bytes() == by_column.read_bytes()


# ---------------------------------------------------------------------------
# Grids are written as csv.writer writes their cells

AWKWARD = ["a,b", 'say "hi"', "cr\rhere", "lf\nhere", "", " leading", repr(-0.0),
           repr(1e-05), repr(1e+16), "plain"]
# labels csv.writer quotes, or writes as "", and a NUL, which pads the grid writer's rows
NOT_PLAIN = ["a,b", 'say "hi"', "cr\rhere", "lf\nhere", "", "nul\0here"]
ODD_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, -2.5e-310, 1e-05,
              1e16, 0.1]


def _csv_writer_bytes(header, rows) -> bytes:
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([fmt_cell(v) for v in row] for row in rows)
    return buffer.getvalue().encode("utf-8")


def _grid_and_rows(names, index, values):
    """A (label, float, constant label) grid and its rows of cell values."""
    grid = Grid((names, None, ("k",)), [(np.asarray(index), np.asarray(values, dtype=float), 0)])
    rows = [(names[i], float(v), "k") for i, v in zip(index, values)]
    return grid, rows


def _grid_bytes(tmp_path, header, grid) -> bytes:
    return write_csv(tmp_path / "grid.csv", header, grid).read_bytes()


@pytest.mark.parametrize("size", [1, 7, 8, 9, 17])
def test_block_edges(tmp_path, monkeypatch, size):
    """Grids of B - 1, B, B + 1 and 2B + 1 rows for blocks of B = 8 rows, in one part or two."""
    monkeypatch.setattr(reports, "GRID_BLOCK_ROWS", 8)
    rng = np.random.default_rng(size)
    names = ["DNA", "OGB", "x"]
    index = rng.integers(0, len(names), size)
    values = rng.lognormal(5, 6, size) * rng.choice([-1.0, 1.0], size)
    grid, rows = _grid_and_rows(names, index.tolist(), values)
    header = ("name", "value", "const")
    want = _csv_writer_bytes(header, rows)
    assert b"".join(grid.blocks()) == want.split(b"\n", 1)[1]
    assert _grid_bytes(tmp_path, header, grid) == want
    halves = Grid(grid.labels, [(index[:size // 2], values[:size // 2], 0),
                                (index[size // 2:], values[size // 2:], 0)])
    assert _grid_bytes(tmp_path, header, halves) == _csv_writer_bytes(header, rows)


@pytest.mark.parametrize("name", AWKWARD)
@pytest.mark.parametrize("at", [0, 7, 8, 18])
def test_awkward_label_at_a_block_edge(tmp_path, monkeypatch, name, at):
    """A label that csv.writer quotes, or writes as "", in any one row of any
    block, sends the whole grid through csv.writer."""
    monkeypatch.setattr(reports, "GRID_BLOCK_ROWS", 8)
    index = [0] * 19
    index[at] = 1
    grid, rows = _grid_and_rows(["plain", name], index, [i / 7 for i in range(19)])
    header = ("name", "value", "const")
    assert _grid_bytes(tmp_path, header, grid) == _csv_writer_bytes(header, rows)


def _no_blocks(self):
    raise AssertionError("written through Grid.blocks")


@pytest.mark.parametrize("name", NOT_PLAIN)
def test_labels_that_are_not_plain_go_through_csv_writer(tmp_path, monkeypatch, name):
    monkeypatch.setattr(Grid, "blocks", _no_blocks)
    grid, rows = _grid_and_rows(["plain", name], [0, 1, 0], [0.5, -0.0, 1e16])
    header = ("name", "value", "const")
    try:
        got = _grid_bytes(tmp_path, header, grid)
    except csv.Error:
        # csv.writer before Python 3.11 writes no NUL (it raises "need to
        # escape"), so neither does write_csv there
        assert "\0" in name and sys.version_info < (3, 11)
    else:
        assert got == _csv_writer_bytes(header, rows)


def test_adjacent_float_columns_and_label_parts(tmp_path, monkeypatch):
    """Float columns side by side and last on the row, and parts that repeat
    one label each, as in profiles.csv, over block edges."""
    monkeypatch.setattr(reports, "GRID_BLOCK_ROWS", 4)
    rng = np.random.default_rng(3)
    names, months = ["DNA", "OGB"], ["2019-01", "2019-02"]
    sizes = [3, 4, 9, 0, 1]
    parts = [(i % 2, 0, i % 2, rng.random(n), rng.lognormal(0, 5, n) * -1.0)
             for i, n in enumerate(sizes)]
    grid = Grid((names, ("ALL",), months, None, None), parts)
    rows = [(names[i], "ALL", months[j], float(a), float(b))
            for i, _, j, cum, p in parts for a, b in zip(cum, p)]
    header = ("origin", "group", "month", "cum", "p")
    want = _csv_writer_bytes(header, rows)
    assert b"".join(grid.blocks()) == want.split(b"\n", 1)[1]
    assert _grid_bytes(tmp_path, header, grid) == want


def test_non_ascii_labels_and_odd_floats(tmp_path):
    names = ["Côte d'Ivoire", "São Tomé", "日本"]
    index = [i % 3 for i in range(len(ODD_FLOATS))]
    grid, rows = _grid_and_rows(names, index, ODD_FLOATS)
    header = ("name", "value", "const")
    want = _csv_writer_bytes(header, rows)
    assert b"".join(grid.blocks()) == want.split(b"\n", 1)[1]
    assert _grid_bytes(tmp_path, header, grid) == want


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(alphabet=' ,"\r\nabé-0.e+', max_size=4), min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(0, 3), st.floats()), max_size=12))
def test_drawn_grids_write_the_bytes_of_csv_writer(tmp_path_factory, names, cells):
    index = [i % len(names) for i, _ in cells]
    grid, rows = _grid_and_rows(names, index, [v for _, v in cells])
    path = tmp_path_factory.mktemp("drawn") / "out.csv"
    assert write_csv(path, ("h", "v", "k"), grid).read_bytes() == _csv_writer_bytes(("h", "v", "k"),
                                                                                     rows)
