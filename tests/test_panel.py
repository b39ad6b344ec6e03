"""The columnar panel: records in and out, read-only arrays, and the split,
alignment, gravity loss and comparison held to their record-wise oracles."""
from __future__ import annotations

import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import aligned, panel_of
from remitsim import baseline, fixtures
from remitsim.behavior import REFERENCE_PARAMS
from remitsim.calibration import align_panel, split_panel
from remitsim.dataio import FlowObservation, Panel
from remitsim.engine import SimulationContext

DATASET = fixtures.build_dataset(seed=3, n_origins=3, n_destinations=2)
STOCKS = oracles.annual_stocks(DATASET)
FULL_GRID = SimulationContext(DATASET).expected_flows(REFERENCE_PARAMS)
ORIGINS = sorted({o for o, _ in DATASET.corridors}) + ["YYY"]  # YYY: no modelled stock
DESTINATIONS = sorted({d for _, d in DATASET.corridors}) + ["ZZZ"]


def _bits(arr: np.ndarray) -> bytes:
    """dtype and bytes, so that -0.0 and 0.0 differ."""
    return arr.dtype.str.encode() + arr.tobytes()


def test_records_in_and_out(small_dataset):
    records = list(small_dataset.panel)
    assert all(type(r) is FlowObservation for r in records)
    from_records = dataclasses.replace(small_dataset, panel=records).panel
    assert type(from_records) is Panel and from_records == small_dataset.panel
    assert tuple(from_records) == tuple(records)
    assert small_dataset.panel[-1] == records[-1] and small_dataset.panel[2] == records[2]
    assert list(small_dataset.panel[1:3]) == records[1:3]
    train, test = split_panel(small_dataset.panel, 0.5, seed=1)
    assert type(train) is type(test) is Panel and train != test
    assert sorted(tuple(train) + tuple(test)) == sorted(records)
    assert type(records[0].month) is int and type(records[0].amount_usd) is float
    empty = dataclasses.replace(small_dataset, panel=()).panel
    assert empty == Panel.from_columns([], [], [], []) and len(empty) == 0


def test_panel_arrays_are_read_only(small_dataset):
    panel = small_dataset.panel
    for part in (panel, *split_panel(panel, 0.5, seed=1), panel[panel.month < 3], panel[:2]):
        for name in Panel._COLUMNS:
            column = getattr(part, name)
            assert not column.flags.writeable, name
            with pytest.raises(ValueError):
                column[0] = column[1]


AMOUNTS = st.sampled_from((0.0, -0.0, 5e-324, 1e-05, 1e9)) | st.floats(0.0, 1e12)


@st.composite
def panels(draw) -> list[FlowObservation]:
    """Unique (sender, recipient, month) keys in drawn order: unmodelled corridors,
    months before and after the window, zero amounts, uneven corridor counts."""
    keys = draw(st.lists(st.tuples(st.sampled_from(DESTINATIONS), st.sampled_from(ORIGINS),
                                   st.integers(-14, 135)),
                         min_size=1, max_size=60, unique=True))
    return [FlowObservation(s, r, m, draw(AMOUNTS)) for s, r, m in keys]


@settings(max_examples=60, deadline=None)
@given(panels(), st.integers(0, 119), st.integers(0, 119), st.integers(0, 2**16))
def test_columnar_panel_equals_record_oracles(records, a, b, seed):
    start, end = min(a, b), max(a, b)
    ctx = SimulationContext(DATASET, start=start, end=end)
    panel = panel_of(records)

    assert tuple(map(tuple, split_panel(panel, 0.6, seed))) == oracles.split_panel(records, 0.6,
                                                                                  seed)

    want = oracles.align_panel(records, ctx)
    handler = _Messages()
    logging.getLogger("remitsim.calibration").addHandler(handler)
    try:
        got = align_panel(panel, ctx)
    finally:
        logging.getLogger("remitsim.calibration").removeHandler(handler)
    assert handler.messages == want.pop("warnings")
    for field, value in want.items():
        if isinstance(value, np.ndarray):
            assert _bits(getattr(got, field)) == _bits(value), field
        else:
            assert getattr(got, field) == value, field

    # the gravity arrays cell by cell against the corridor-year oracles; repr
    # tells -0.0 from 0.0
    stocks = baseline.annual_stocks(ctx.stocks)
    gravity = baseline.gravity_flows(ctx, 0.75, stocks)
    oracle_gravity = oracles.gravity_flows(DATASET, 0.75, STOCKS)
    assert stocks.shape == gravity.shape == (ctx.n_corridors, 10)
    assert len(STOCKS) == stocks.size
    cells = zip(stocks.tolist(), gravity.tolist())
    for (origin, dest), (stock_row, gravity_row) in zip(ctx.corridors, cells):
        for year, stock, flow in zip(range(2010, 2020), stock_row, gravity_row):
            assert repr(stock) == repr(STOCKS[(origin, dest, year)]), (origin, dest, year)
            assert repr(flow) == repr(oracle_gravity[year][(dest, origin)]), (origin, dest, year)

    loss, excluded = baseline._gravity_loss(panel, ctx, stocks)
    for beta in (0.01, 0.3713, 1.0, 1.9):
        assert (loss(beta), excluded) == oracles.panel_sse(records, DATASET, STOCKS, beta), beta

    # the structural flows as compare-baseline gives them: the grid's window months
    grid = FULL_GRID.tolist()
    mapping = {(dest, origin, m): grid[c][m] for c, (origin, dest) in enumerate(ctx.corridors)
               for m in ctx.window_months}
    corridor = panel.corridor_index(ctx.corridors)
    simulated = (corridor >= 0) & (panel.month >= start) & (panel.month <= end)
    structural = np.full(len(panel), np.nan)
    structural[simulated] = FULL_GRID[corridor[simulated], panel.month[simulated]]
    report = repr(oracles.compare_models(mapping, oracle_gravity, records))
    assert repr(baseline.compare_models(structural, gravity, panel, ctx.corridors)) == report
    assert repr(baseline.compare_models(aligned(mapping, panel), gravity, panel,
                                        ctx.corridors)) == report


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())
