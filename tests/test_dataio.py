"""Loading, validation diagnostics, round-trips, and the stock spline."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

import oracles
from oracles import fingerprint
from remitsim import fixtures
from remitsim.behavior import REFERENCE_PARAMS
from remitsim.dataio import (DataValidationError, MigrantStockRecord, interpolate_stocks_monthly,
                             load_dataset, write_dataset)
from remitsim.engine import SimulationContext
from remitsim.months import month_index

from conftest import small_csv_texts, write_csv_dir


def test_valid_load_row_counts(small_dataset):
    assert len(small_dataset.economics) == 30
    assert len(small_dataset.stocks) == 12
    assert len(small_dataset.age_profiles) == 4
    assert len(small_dataset.surplus_profiles) == 101
    assert len(small_dataset.disasters) == 1
    assert len(small_dataset.panel) == 12
    assert small_dataset.corridors == (("AAA", "BBB"), ("AAA", "CCC"))


def _load_with(tmp_path, **replacements):
    texts = small_csv_texts()
    texts.update(replacements)
    return load_dataset(write_csv_dir(tmp_path / "bad", texts))


def test_missing_file_names_it(tmp_path):
    texts = small_csv_texts()
    del texts["stocks.csv"]
    directory = write_csv_dir(tmp_path / "bad", texts)
    with pytest.raises(DataValidationError, match="stocks.csv"):
        load_dataset(directory)


def test_header_mismatch(tmp_path):
    with pytest.raises(DataValidationError, match="header"):
        _load_with(tmp_path, **{"panel.csv": "a,b,c\n"})


def test_missing_anchor_names_corridor(tmp_path):
    texts = small_csv_texts()
    texts["stocks.csv"] = texts["stocks.csv"].replace("AAA,CCC,male,2015,450\n", "")
    with pytest.raises(DataValidationError, match=r"AAA->CCC sex male.*2015"):
        _load_with(tmp_path, **{"stocks.csv": texts["stocks.csv"]})


def test_heatwave_rejected_naming_allowed_types(tmp_path):
    bad = ("event_id,country,onset_month,hazard,affected\n"
           "EVX,AAA,2013-01,heatwave,5000\n")
    with pytest.raises(DataValidationError, match="drought/earthquake/flood/storm"):
        _load_with(tmp_path, **{"disasters.csv": bad})


def test_negative_value_diagnostic_names_position(tmp_path):
    texts = small_csv_texts()
    texts["stocks.csv"] = texts["stocks.csv"].replace("AAA,BBB,male,2015,1200", "AAA,BBB,male,2015,-5")
    with pytest.raises(DataValidationError, match=r"stocks.csv:3: column 'count'"):
        _load_with(tmp_path, **texts)


def test_unknown_country_in_stocks(tmp_path):
    texts = small_csv_texts()
    extra = ("ZZZ,BBB,male,2010,10\nZZZ,BBB,male,2015,10\nZZZ,BBB,male,2020,10\n")
    texts["stocks.csv"] += extra
    with pytest.raises(DataValidationError, match="ZZZ"):
        _load_with(tmp_path, **texts)


def test_origin_equals_destination(tmp_path):
    texts = small_csv_texts()
    texts["stocks.csv"] += "BBB,BBB,male,2010,10\nBBB,BBB,male,2015,10\nBBB,BBB,male,2020,10\n"
    with pytest.raises(DataValidationError, match="origin equals destination"):
        _load_with(tmp_path, **texts)


def test_age_shares_must_sum_to_one(tmp_path):
    bad = "sex,age,share\nmale,30,0.6\nmale,40,0.39\nfemale,20,1.0\n"
    with pytest.raises(DataValidationError, match="sum to"):
        _load_with(tmp_path, **{"age_profiles.csv": bad})


def test_surplus_nonzero_below_16_rejected(tmp_path):
    texts = small_csv_texts()
    texts["surplus_profiles.csv"] = texts["surplus_profiles.csv"].replace(
        "GLOBAL_DEFAULT,10,0.0", "GLOBAL_DEFAULT,10,0.5")
    with pytest.raises(DataValidationError, match="below age 16"):
        _load_with(tmp_path, **texts)


def test_surplus_missing_age_rejected(tmp_path):
    texts = small_csv_texts()
    texts["surplus_profiles.csv"] = texts["surplus_profiles.csv"].replace(
        "GLOBAL_DEFAULT,55,1.0\n", "")
    with pytest.raises(DataValidationError, match=r"missing age"):
        _load_with(tmp_path, **texts)


def test_affected_sanity_bound(tmp_path):
    bad = ("event_id,country,onset_month,hazard,affected\n"
           "EVX,AAA,2013-01,flood,10000001\n")  # 10x population is 10,000,000
    with pytest.raises(DataValidationError, match="exceeds"):
        _load_with(tmp_path, **{"disasters.csv": bad})


def test_duplicate_panel_observation(tmp_path):
    texts = small_csv_texts()
    texts["panel.csv"] += "BBB,AAA,2010-01,1\n"
    with pytest.raises(DataValidationError, match="duplicate observation"):
        _load_with(tmp_path, **texts)


def test_nonpositive_gdp_rejected(tmp_path):
    texts = small_csv_texts()
    texts["economics.csv"] = texts["economics.csv"].replace(
        "AAA,2012,10000,1000000,lower-middle", "AAA,2012,0,1000000,lower-middle")
    with pytest.raises(DataValidationError, match="gdp_per_capita"):
        _load_with(tmp_path, **texts)


def test_bad_income_group(tmp_path):
    texts = small_csv_texts()
    texts["economics.csv"] = texts["economics.csv"].replace(
        "AAA,2012,10000,1000000,lower-middle", "AAA,2012,10000,1000000,middle")
    with pytest.raises(DataValidationError, match="income_group"):
        _load_with(tmp_path, **texts)


def test_round_trip(small_dataset, tmp_path):
    write_dataset(small_dataset, tmp_path / "copy")
    reloaded = load_dataset(tmp_path / "copy")
    assert reloaded == small_dataset


def test_round_trip_desk_scale(desk_dataset, tmp_path):
    write_dataset(desk_dataset, tmp_path / "copy")
    assert load_dataset(tmp_path / "copy") == desk_dataset


def test_dataset_immutable_under_operations(small_dataset):
    before = fingerprint(small_dataset)
    ctx = SimulationContext(small_dataset)
    ctx.expected_flows(REFERENCE_PARAMS)
    ctx.probability_cube(REFERENCE_PARAMS)
    assert fingerprint(small_dataset) == before


# ---------------------------------------------------------------------------
# Stock interpolation

def _records(a2010, a2015, a2020):
    return [MigrantStockRecord("AAA", "BBB", "male", year, float(v))
            for year, v in ((2010, a2010), (2015, a2015), (2020, a2020))]


def _series(a2010, a2015, a2020):
    return interpolate_stocks_monthly(_records(a2010, a2015, a2020))[("AAA", "BBB", "male")]


def test_constant_anchors_constant_series():
    series = _series(100, 100, 100)
    assert np.allclose(series, 100.0, rtol=0, atol=1e-9)


def test_anchor_months_exact():
    series = _series(0, 1000, 2000)
    assert series[0] == 0.0
    assert series[60] == 1000.0  # January 2015 node


def test_clamp_engages_only_below_zero():
    # Oracle: natural cubic spline evaluated at all 120 months.
    months = np.arange(120.0)
    oracle = CubicSpline([0, 60, 120], [1000.0, 100.0, 1000.0], bc_type="natural")(months)
    assert oracle.min() >= 0  # no negative excursion for this shape
    series = _series(1000, 100, 1000)
    assert np.allclose(series, oracle, rtol=1e-12, atol=1e-9)

    # This shape dips to about -115 around month 35; the clamp must engage
    # exactly where the unclamped spline is negative.
    oracle2 = CubicSpline([0, 60, 120], [0.0, 0.0, 1200.0], bc_type="natural")(months)
    assert oracle2.min() < -100
    series2 = _series(0, 0, 1200)
    assert (series2 >= 0).all()
    assert np.allclose(series2, np.maximum(oracle2, 0.0), rtol=1e-12, atol=1e-9)
    assert (series2[oracle2 < 0] == 0.0).all()


def test_missing_anchor_raises():
    records = _records(1, 2, 3)[:2]
    with pytest.raises(DataValidationError, match="missing anchor"):
        interpolate_stocks_monthly(records)


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.floats(min_value=0, max_value=1e7, allow_nan=False)] * 3))
def test_spline_matches_scipy_and_nodes(anchors):
    series = _series(*anchors)
    # node exactness at 1e-9 relative
    assert series[0] == pytest.approx(anchors[0], rel=1e-9, abs=1e-9)
    assert series[60] == pytest.approx(anchors[1], rel=1e-9, abs=1e-9)
    assert (series >= 0).all()
    oracle = CubicSpline([0, 60, 120], list(anchors), bc_type="natural")(np.arange(120.0))
    assert np.allclose(series, np.maximum(oracle, 0.0), rtol=1e-9, atol=1e-6)


def test_spline_equals_per_series_oracle(desk_dataset):
    got = interpolate_stocks_monthly(desk_dataset.stocks)
    want = oracles.interpolate_stocks_monthly(desk_dataset.stocks)
    assert list(got) == list(want)
    for key, series in want.items():
        assert np.array_equal(got[key], series), key


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*[st.floats(min_value=0, max_value=1e9, allow_nan=False)] * 3),
                min_size=1, max_size=8))
def test_spline_equals_oracle_on_drawn_anchors(anchor_sets):
    records = [MigrantStockRecord("AAA", f"B{i:02d}", ("male", "female")[i % 2], year, value)
               for i, anchors in enumerate(anchor_sets)
               for year, value in zip((2010, 2015, 2020), anchors)]
    got = interpolate_stocks_monthly(records)
    want = oracles.interpolate_stocks_monthly(records)
    assert list(got) == list(want)
    for key, series in want.items():
        assert np.array_equal(got[key], series), key


# ---------------------------------------------------------------------------
# Panel loading: codes and months are checked once, diagnostics stay per row

def _panel_with_late_row(row: str) -> tuple[dict[str, str], int]:
    """The small fixture's texts with ``row`` appended to panel.csv, and its line."""
    texts = small_csv_texts()
    texts["panel.csv"] += row + "\n"
    return texts, texts["panel.csv"].count("\n")


def test_bad_month_in_late_panel_row_names_line_and_column(tmp_path):
    texts, line = _panel_with_late_row("BBB,AAA,2019-13,500000")
    with pytest.raises(DataValidationError, match=rf"^panel\.csv:{line}: column 'month'"):
        load_dataset(write_csv_dir(tmp_path / "bad", texts))


def test_bad_code_in_late_panel_row_names_line_and_column(tmp_path):
    texts, line = _panel_with_late_row("ab1,AAA,2013-01,500000")
    with pytest.raises(DataValidationError, match=rf"^panel\.csv:{line}: column 'sender'"):
        load_dataset(write_csv_dir(tmp_path / "bad", texts))


def test_diagnostic_names_physical_line_after_blank_line(tmp_path):
    data = tmp_path / "data"
    fixtures.generate_fixture(data, seed=3, n_origins=3, n_destinations=2)
    path = data / "panel.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines.insert(3, "")  # physical line 4 is blank
    sender, recipient, _, amount = lines[14].split(",")  # physical line 15
    lines[14] = f"{sender},{recipient},2019-13,{amount}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataValidationError, match=r"^panel\.csv:15: column 'month'"):
        load_dataset(data)


def test_valid_month_outside_the_grid_loads(tmp_path):
    texts, _ = _panel_with_late_row("BBB,AAA,2021-05,500000")
    dataset = load_dataset(write_csv_dir(tmp_path / "data", texts))
    assert dataset.panel[-1].month == month_index("2021-05") == 136
