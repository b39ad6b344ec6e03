"""Loading, validation diagnostics, round-trips, and the stock spline."""
from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

import oracles
from oracles import fingerprint
from remitsim import dataio, fixtures
from remitsim.behavior import REFERENCE_PARAMS
from remitsim.dataio import (AFFECTED_SANITY_FACTOR, ANCHOR_YEARS, GLOBAL_SURPLUS, HAZARDS,
                             INCOME_GROUPS, MAX_AGE, N_AGES, PANEL_YEARS, SEXES, AgeProfile,
                             CountryEconomics, DataValidationError, Dataset, DisasterEvent,
                             FlowObservation, MigrantStockRecord, Stocks, SurplusProfile,
                             load_dataset, write_dataset)
from remitsim.engine import SimulationContext
from remitsim.months import WINDOW_MONTHS, month_index, year_of
from remitsim.population import interpolate_stocks_monthly

from conftest import monthly_by_key, small_csv_texts, write_csv_dir


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


def test_dataset_of_records_equals_the_loaded_one(desk_dataset, tmp_path):
    """A Dataset built from the loaded one's records equals it, and both write
    the same files, which load back to it."""
    write_dataset(desk_dataset, tmp_path / "loaded")
    loaded = load_dataset(tmp_path / "loaded")
    of_records = Dataset(*(tuple(getattr(loaded, name)) for name in RECORD_TABLES.values()))
    assert isinstance(of_records.stocks, Stocks) and of_records == loaded
    assert of_records.corridors == loaded.corridors
    write_dataset(of_records, tmp_path / "of_records")
    for name in dataio.SCHEMAS:
        assert ((tmp_path / "of_records" / name).read_bytes()
                == (tmp_path / "loaded" / name).read_bytes()), name
    assert load_dataset(tmp_path / "of_records") == loaded


def test_load_and_context_build_no_stock_or_flow_record(desk_dataset, tmp_path, monkeypatch):
    """load_dataset and SimulationContext read the stock table and the panel as
    columns, and run the anchor-year check once."""
    write_dataset(desk_dataset, tmp_path / "data")

    def no_record(*args, **kwargs):
        raise AssertionError("a record was built")
    checks = []
    check = dataio._check_anchor_years
    monkeypatch.setattr(dataio, "MigrantStockRecord", no_record)
    monkeypatch.setattr(dataio, "FlowObservation", no_record)
    monkeypatch.setattr(dataio, "_check_anchor_years", lambda stocks: checks.append(1) or check(stocks))
    dataset = load_dataset(tmp_path / "data")
    ctx = SimulationContext(dataset, start=24, end=35)
    assert len(checks) == 1 and ctx.n_corridors == len(desk_dataset.corridors)
    # the patched names are the ones that build records
    for table in (dataset.stocks, dataset.panel):
        with pytest.raises(AssertionError, match="record was built"):
            next(iter(table))


def test_stocks_table_records_in_and_out(small_dataset):
    records = list(small_dataset.stocks)
    assert all(type(r) is MigrantStockRecord for r in records)
    stocks = Stocks.from_columns(*zip(*records))
    assert stocks == small_dataset.stocks and tuple(stocks) == tuple(records)
    assert stocks[-1] == records[-1] and list(stocks[1:4]) == records[1:4]
    assert stocks.codes == ("AAA", "BBB", "CCC") and stocks.corridors == small_dataset.corridors
    assert stocks != stocks.replace(count=stocks.count * 2.0)
    for name in MigrantStockRecord._fields:
        with pytest.raises(ValueError):
            getattr(stocks, name)[0] = getattr(stocks, name)[1]
    with pytest.raises(AttributeError):
        stocks.count = stocks.count


RECORD_TABLES = {CountryEconomics: "economics", MigrantStockRecord: "stocks",
                 AgeProfile: "age_profiles", SurplusProfile: "surplus_profiles",
                 DisasterEvent: "disasters", FlowObservation: "panel"}


@pytest.mark.parametrize("record_type", RECORD_TABLES, ids=lambda t: t.__name__)
def test_records_are_immutable_values(desk_dataset, tmp_path, record_type):
    """Input records compare and hash by value, refuse assignment, build by keyword
    and survive the write/load round trip."""
    records = tuple(getattr(desk_dataset, RECORD_TABLES[record_type]))
    record = records[0]
    assert type(record) is record_type
    twin = record_type(**record._asdict())
    assert twin == record and hash(twin) == hash(record) and twin is not record
    assert len(set(records) | {twin}) == len(records)
    assert twin._replace(**{record._fields[-1]: None}) != record
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], "XXX")
    assert repr(record) == f"{record_type.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in record._asdict().items()) + ")"

    write_dataset(desk_dataset, tmp_path / "copy")
    again = tuple(getattr(load_dataset(tmp_path / "copy"), RECORD_TABLES[record_type]))
    assert again == records and {type(r) for r in again} == {record_type}


def test_flow_observation_defaults_to_unassigned():
    assert FlowObservation("AAA", "BBB", 3, 1.0) == FlowObservation(
        sender="AAA", recipient="BBB", month=3, amount_usd=1.0, split_tag="unassigned")


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
    return monthly_by_key(_records(a2010, a2015, a2020))[("AAA", "BBB", "male")]


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
    stocks = Stocks.from_columns(*zip(*_records(1, 2, 3)[:2]))
    with pytest.raises(DataValidationError, match="missing anchor"):
        interpolate_stocks_monthly(stocks)


def test_anchor_check_runs_on_records_given_to_a_dataset(small_dataset):
    stocks = [r for r in small_dataset.stocks
              if (r.destination, r.sex, r.anchor_year) != ("CCC", "male", 2015)]
    dataset = dataclasses.replace(small_dataset, stocks=tuple(stocks))
    with pytest.raises(DataValidationError,
                       match=r"^stocks\.csv: corridor AAA->CCC sex male missing anchor year\(s\) \[2015\]$"):
        SimulationContext(dataset)


def test_queries_on_nodes_return_the_anchors():
    """Months 0 and 60 hold the 2010 and 2015 anchors exactly."""
    anchors = np.array([[1.0, 2.0, 3.0], [0.1, 7e5, 0.3], [0.0, 0.0, 0.0]])
    records = [MigrantStockRecord("AAA", f"B{i}", "male", year, value)
               for i, row in enumerate(anchors.tolist()) for year, value in zip(ANCHOR_YEARS, row)]
    grid = interpolate_stocks_monthly(Stocks.from_columns(*zip(*records)))
    assert np.array_equal(grid[:, [0, 60], SEXES.index("male")], anchors[:, :2])


def test_a_sex_without_a_series_holds_positive_zero():
    """The anchors of a missing series are 0, and its spline is +0.0 bit for
    bit, also beside a series that dips below zero before the clamp."""
    for anchors in ((1e6, 1e3, 1e6), (0.0, 0.0, 1200.0)):
        stocks = Stocks.from_columns(*zip(*_records(*anchors)))
        male, female = SEXES.index("male"), SEXES.index("female")
        assert np.array_equal(stocks.anchors[0, male], anchors)
        assert np.array_equal(stocks.anchors[0, female], np.zeros(3))
        column = interpolate_stocks_monthly(stocks)[0, :, female]
        assert column.shape == (WINDOW_MONTHS,)
        assert not np.signbit(column).any() and (column == 0.0).all()


def test_anchor_error_names_the_first_short_series_by_sex_name(small_dataset):
    """Within a corridor, "female" sorts before "male"."""
    dropped = {("CCC", "male", 2015), ("CCC", "female", 2010), ("BBB", "female", 2020)}
    stocks = [r for r in small_dataset.stocks
              if (r.destination, r.sex, r.anchor_year) not in dropped]
    with pytest.raises(DataValidationError,
                       match=r"^stocks\.csv: corridor AAA->BBB sex female missing anchor year\(s\) \[2020\]$"):
        Stocks.from_columns(*zip(*stocks)).anchors
    stocks = [r for r in stocks if r.destination != "BBB"]
    with pytest.raises(DataValidationError,
                       match=r"^stocks\.csv: corridor AAA->CCC sex female missing anchor year\(s\) \[2010\]$"):
        Stocks.from_columns(*zip(*stocks)).anchors
    # a series whose rows are all of other years has none of the anchors
    stocks = [MigrantStockRecord("AAA", "DDD", "male", 2012, 5.0)]
    with pytest.raises(DataValidationError, match=r"AAA->DDD sex male .* \[2010, 2015, 2020\]$"):
        Stocks.from_columns(*zip(*stocks)).anchors


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
    got = monthly_by_key(desk_dataset.stocks)
    want = oracles.interpolate_stocks_monthly(desk_dataset.stocks)
    assert list(got) == list(want)
    for key, series in want.items():
        assert np.array_equal(got[key], series), key


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*[st.floats(min_value=0, max_value=1e9, allow_nan=False)] * 3),
                min_size=1, max_size=8))
@example([(1e6, 1e3, 1e6), (0.0, 0.0, 1200.0)])  # the second dips below zero: clamped
@example([(0.0, 0.0, 0.0), (5.0, 4.0, 3.0)])  # a zero series
def test_spline_equals_oracle_on_drawn_anchors(anchor_sets):
    records = [MigrantStockRecord("AAA", f"B{i:02d}", ("male", "female")[i % 2], year, value)
               for i, anchors in enumerate(anchor_sets)
               for year, value in zip((2010, 2015, 2020), anchors)]
    got = monthly_by_key(records)
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


# ---------------------------------------------------------------------------
# Diagnostics: each violation, planted in a late row after a blank line, names
# its physical line, column and reason exactly, through the comma split and,
# with an earlier field quoted, through the CSV reader

VIOLATIONS = [
    # economics.csv: country,year,gdp_per_capita,population,income_group
    ("economics.csv", "DDD,2012,abc,1000000,low",
     "column 'gdp_per_capita': not a number: 'abc'"),
    ("economics.csv", "DDD,2012,10000,inf,low", "column 'population': not finite: 'inf'"),
    ("economics.csv", "DDD,2012,0,1000000,low",
     "column 'gdp_per_capita': must be > 0.0, got 0.0"),
    ("economics.csv", "DDD,1800,10000,1000000,low", "column 'year': must be >= 1900, got 1800"),
    ("economics.csv", "DDD,2101,10000,1000000,low", "column 'year': must be <= 2100, got 2101"),
    ("economics.csv", "DDD,2012,10000,-0.0,low", "column 'population': must be > 0.0, got -0.0"),
    ("economics.csv", "DDD,20x2,10000,1000000,low", "column 'year': not an integer: '20x2'"),
    ("economics.csv", "DDD,2012,10000,1000000,middle",
     "column 'income_group': 'middle' not one of low/lower-middle/upper-middle/high"),
    ("economics.csv", "dd1,2012,10000,1000000,low",
     "column 'country': not an ISO-3166 alpha-3 code: 'dd1'"),
    ("economics.csv", "AAA,2012,10000,1000000,lower-middle",
     "column 'country': duplicate row for ('AAA', 2012)"),
    ("economics.csv", "AAA,02012,10000,1000000,lower-middle",
     "column 'country': duplicate row for ('AAA', 2012)"),
    ("economics.csv", "DDD,2012,10000", "wrong number of fields"),
    # numbers are ASCII, without spaces or _: int and float take more
    ("economics.csv", "DDD,\u0662\u0660\u0661\u0662,10000,1000000,low",
     "column 'year': not an integer: '\u0662\u0660\u0661\u0662'"),
    ("economics.csv", "DDD,2012,1_0000,1000000,low",
     "column 'gdp_per_capita': not a number: '1_0000'"),
    ("economics.csv", "DDD,2012,10000, 1000000 ,low",
     "column 'population': not a number: ' 1000000 '"),
    # stocks.csv: origin,destination,sex,anchor_year,count
    ("stocks.csv", "AAA,DDD,male,2010,x", "column 'count': not a number: 'x'"),
    ("stocks.csv", "AAA,DDD,male,2010,nan", "column 'count': not finite: 'nan'"),
    ("stocks.csv", "AAA,DDD,male,2010,-5", "column 'count': must be >= 0.0, got -5.0"),
    ("stocks.csv", "AAA,DDD,other,2010,5", "column 'sex': 'other' not one of male/female"),
    ("stocks.csv", "AAA,DDD,male,20x0,5", "column 'anchor_year': not an integer: '20x0'"),
    ("stocks.csv", "AAA,dd,male,2010,5",
     "column 'destination': not an ISO-3166 alpha-3 code: 'dd'"),
    ("stocks.csv", "AAA,DDD,male,2012,5",
     "column 'anchor_year': must be one of (2010, 2015, 2020), got 2012"),
    ("stocks.csv", "AAA,AAA,male,2010,5", "column 'destination': origin equals destination (AAA)"),
    ("stocks.csv", "AAA,BBB,male,2015,7",
     "column 'anchor_year': duplicate anchor for ('AAA', 'BBB', 'male')"),
    ("stocks.csv", "AAA,BBB,male,02015,7",
     "column 'anchor_year': duplicate anchor for ('AAA', 'BBB', 'male')"),
    ("stocks.csv", "AAA,DDD,male,2010,5,6", "wrong number of fields"),
    # age_profiles.csv: sex,age,share
    ("age_profiles.csv", "male,50,abc", "column 'share': not a number: 'abc'"),
    ("age_profiles.csv", "male,50,1.5", "column 'share': must be <= 1.0, got 1.5"),
    ("age_profiles.csv", "male,101,0.1", "column 'age': must be <= 100, got 101"),
    ("age_profiles.csv", "male,-1,0.1", "column 'age': must be >= 0, got -1"),
    ("age_profiles.csv", "male,50,-0.5", "column 'share': must be >= 0.0, got -0.5"),
    ("age_profiles.csv", "other,50,0.1", "column 'sex': 'other' not one of male/female"),
    ("age_profiles.csv", "male,30,0.1", "column 'age': duplicate row for ('male', 30)"),
    ("age_profiles.csv", "male,+30,0.1", "column 'age': duplicate row for ('male', 30)"),
    ("age_profiles.csv", "male,50", "wrong number of fields"),
    # surplus_profiles.csv: country,age,surplus
    ("surplus_profiles.csv", "DDD,50,-1", "column 'surplus': must be >= 0.0, got -1.0"),
    ("surplus_profiles.csv", "DDD,50,inf", "column 'surplus': not finite: 'inf'"),
    ("surplus_profiles.csv", "DDD,-1,0", "column 'age': must be >= 0, got -1"),
    ("surplus_profiles.csv", "DDD,101,0", "column 'age': must be <= 100, got 101"),
    ("surplus_profiles.csv", "DDD,x,0", "column 'age': not an integer: 'x'"),
    ("surplus_profiles.csv", "Global,50,1.0",
     "column 'country': not an ISO-3166 alpha-3 code: 'Global'"),
    ("surplus_profiles.csv", "DDD,10,0.5",
     "column 'surplus': must be 0 below age 16, got 0.5 at age 10"),
    ("surplus_profiles.csv", "GLOBAL_DEFAULT,50,1.0",
     "column 'age': duplicate row for ('GLOBAL_DEFAULT', 50)"),
    ("surplus_profiles.csv", "GLOBAL_DEFAULT,050,1.0",
     "column 'age': duplicate row for ('GLOBAL_DEFAULT', 50)"),
    ("surplus_profiles.csv", "DDD,50,1.0,2", "wrong number of fields"),
    # disasters.csv: event_id,country,onset_month,hazard,affected
    ("disasters.csv", ",AAA,2012-05,flood,100", "column 'event_id': must be non-empty"),
    ("disasters.csv", "EV2,AAA,2012-13,flood,100",
     "column 'onset_month': invalid month number in '2012-13'"),
    ("disasters.csv", "EV2,AAA,May 2012,flood,100",
     "column 'onset_month': invalid year-month 'May 2012', expected YYYY-MM"),
    ("disasters.csv", "EV2,AAA,2012-05,heatwave,100",
     "column 'hazard': 'heatwave' not one of drought/earthquake/flood/storm"),
    ("disasters.csv", "EV2,aaa,2012-05,flood,100",
     "column 'country': not an ISO-3166 alpha-3 code: 'aaa'"),
    ("disasters.csv", "EV1,AAA,2012-05,flood,100", "column 'event_id': duplicate event_id 'EV1'"),
    ("disasters.csv", "EV2,AAA,2012-05,flood,abc", "column 'affected': not a number: 'abc'"),
    ("disasters.csv", "EV2,AAA,2012-05,flood,-1", "column 'affected': must be >= 0.0, got -1.0"),
    ("disasters.csv", "EV2,DDD,2012-05,flood,100",
     "column 'country': no economics row for DDD in onset year 2012"),
    ("disasters.csv", "EV2,AAA,2025-05,flood,1",
     "column 'country': no economics row for AAA in onset year 2025"),
    ("disasters.csv", "EV2,AAA,2012-05,flood,10000001",
     "column 'affected': 10000001.0 exceeds 10x the population of AAA in 2012 (1000000.0)"),
    ("disasters.csv", "EV2,AAA,2012-05", "wrong number of fields"),
    # panel.csv: sender,recipient,month,amount_usd
    ("panel.csv", "BBB,AAA,2013-01,abc", "column 'amount_usd': not a number: 'abc'"),
    ("panel.csv", "BBB,AAA,2013-01,nan", "column 'amount_usd': not finite: 'nan'"),
    ("panel.csv", "BBB,AAA,2013-01,-1", "column 'amount_usd': must be >= 0.0, got -1.0"),
    ("panel.csv", "BBB,AAA,2019-13,1", "column 'month': invalid month number in '2019-13'"),
    ("panel.csv", "ab1,AAA,2013-01,1", "column 'sender': not an ISO-3166 alpha-3 code: 'ab1'"),
    ("panel.csv", "BBB,aaa,2013-01,1",
     "column 'recipient': not an ISO-3166 alpha-3 code: 'aaa'"),
    ("panel.csv", "BBB,AAA,2010-01,1",
     "column 'month': duplicate observation for BBB->AAA 2010-01"),
    ("panel.csv", "BBB,AAA,2013-01", "wrong number of fields"),
    ("panel.csv", "BBB,AAA,2013-01,\u0665\u0660\u0660\u0660\u0660\u0660",
     "column 'amount_usd': not a number: '\u0665\u0660\u0660\u0660\u0660\u0660'"),
    ("panel.csv", "\u00c4\u00d6\u00dc,AAA,2013-01,1",
     "column 'sender': not an ISO-3166 alpha-3 code: '\u00c4\u00d6\u00dc'"),
    ("panel.csv", 'BBB,AAA,"2013-01\n",1',
     "column 'month': invalid year-month '2013-01\\n', expected YYYY-MM"),
    ("panel.csv", "BBB,AAA,\u0662\u0660\u0661\u0663-\u0660\u0661,1",
     "column 'month': invalid year-month '\u0662\u0660\u0661\u0663-\u0660\u0661', "
     "expected YYYY-MM"),
    # texts that np.loadtxt reads otherwise than the rules: it cuts a text to
    # its fixed width, reads a number past float64 as inf, strips whitespace
    # around numbers and NUL at the end of a text, and skips blank lines
    ("panel.csv", "AAAA,AAA,2013-01,1", "column 'sender': not an ISO-3166 alpha-3 code: 'AAAA'"),
    ("panel.csv", "ABCDE,AAA,2013-01,1",
     "column 'sender': not an ISO-3166 alpha-3 code: 'ABCDE'"),
    ("panel.csv", "BBB,AAA,2013-01-31,1",
     "column 'month': invalid year-month '2013-01-31', expected YYYY-MM"),
    ("surplus_profiles.csv", "GLOBAL_DEFAULTX,50,1.0",
     "column 'country': not an ISO-3166 alpha-3 code: 'GLOBAL_DEFAULTX'"),
    ("disasters.csv", "EV#2,AAA,2012-05,flood,-1", "column 'affected': must be >= 0.0, got -1.0"),
    ("panel.csv", "BBB,AAA,2013-01,1e400", "column 'amount_usd': not finite: '1e400'"),
    ("stocks.csv", "AAA,DDD,male,2010,Infinity", "column 'count': not finite: 'Infinity'"),
    ("economics.csv", "DDD,2012.0,10000,1000000,low", "column 'year': not an integer: '2012.0'"),
    ("economics.csv", "DDD,99999999999999999999,10000,1000000,low",
     "column 'year': must be <= 2100, got 99999999999999999999"),
    ("panel.csv", "   ", "wrong number of fields"),
    ("panel.csv", "BBB,AAA\x00,2013-01,1",
     "column 'recipient': not an ISO-3166 alpha-3 code: 'AAA\\x00'"),
    ("panel.csv", "BBB,A\x00A,2013-01,1",
     "column 'recipient': not an ISO-3166 alpha-3 code: 'A\\x00A'"),
    ("panel.csv", "BBB,AAA,2013-01,-1\n\n", "column 'amount_usd': must be >= 0.0, got -1.0"),
    # rows with two violations: the one checked first is named
    ("stocks.csv", "AAA,AAA,male,2012,-5", "column 'count': must be >= 0.0, got -5.0"),
    ("stocks.csv", "AAA,AAA,male,2012,5",
     "column 'anchor_year': must be one of (2010, 2015, 2020), got 2012"),
    ("surplus_profiles.csv", "GLOBAL_DEFAULT,10,0.5",
     "column 'surplus': must be 0 below age 16, got 0.5 at age 10"),
    ("disasters.csv", ",AAA,2012-05,flood,-1", "column 'affected': must be >= 0.0, got -1.0"),
    ("disasters.csv", "EV1,DDD,2012-05,flood,1", "column 'event_id': duplicate event_id 'EV1'"),
    ("panel.csv", "BBB,AAA,2010-01,-1", "column 'amount_usd': must be >= 0.0, got -1.0"),
]


def _plant(name: str, *late_rows: str, quoted: bool = False) -> tuple[dict[str, str], int]:
    """The small fixture's texts with a blank physical line 3 in ``name`` and
    ``late_rows`` appended to it, and the physical line of the first of them.
    If ``quoted``, the first field of line 2 is quoted, which sends the file
    through the CSV reader."""
    texts = small_csv_texts()
    lines = texts[name].splitlines()
    if quoted:
        first, _, rest = lines[1].partition(",")
        lines[1] = f'"{first}",{rest}'
    lines.insert(2, "")
    line = len(lines) + 1
    texts[name] = "\n".join([*lines, *late_rows]) + "\n"
    return texts, line


def _end_line(line: int, rows: list[str], k: int) -> int:
    """The physical line that ``rows[k]`` ends on, when ``rows`` start on
    ``line``; blank lines after it are not part of it."""
    return line + "\n".join(rows[:k + 1]).rstrip("\n").count("\n")


READERS = pytest.mark.parametrize("quoted", [False, True], ids=["split", "csv"])


@READERS
@pytest.mark.parametrize("name,row,message", VIOLATIONS,
                         ids=[f"{name}:{row}" for name, row, _ in VIOLATIONS])
def test_violation_names_physical_line_column_and_reason(tmp_path, name, row, message, quoted):
    texts, line = _plant(name, row, quoted=quoted)
    with pytest.raises(DataValidationError) as caught:
        load_dataset(write_csv_dir(tmp_path / "bad", texts))
    assert str(caught.value) == f"{name}:{_end_line(line, [row], 0)}: {message}"


@pytest.mark.parametrize("name,rows,bad,message", [
    ("panel.csv", ["BBB,AAA,2013-01,-1", "BBB,AAA"], 0,
     "column 'amount_usd': must be >= 0.0, got -1.0"),
    ("panel.csv", ["BBB,AAA,2013-02,1", "CCC,AAA,2013-03,-1", "BBB,AAA,2013-02,1"], 1,
     "column 'amount_usd': must be >= 0.0, got -1.0"),
    ("panel.csv", ["BBB,AAA,2013-02,1", "BBB,AAA,2013-02,1", "ab1,AAA,2013-01,1"], 1,
     "column 'month': duplicate observation for BBB->AAA 2013-02"),
    # each refused row is named with its own text
    ("panel.csv", ["BBB,AAA,2013-02,x1", "BBB,AAA,2013-03,x2", "BBB,AAA,2013-04,x3"], 0,
     "column 'amount_usd': not a number: 'x1'"),
    ("stocks.csv", ["AAA,DDD,male,2011,5", "AAA,DDD,male"], 0,
     "column 'anchor_year': must be one of (2010, 2015, 2020), got 2011"),
    # keys compare as values: three rows, but 2015 twice and no 2020
    ("stocks.csv", ["AAA,DDD,male,2010,5", "AAA,DDD,male,2015,5", "AAA,DDD,male,02015,5"], 2,
     "column 'anchor_year': duplicate anchor for ('AAA', 'DDD', 'male')"),
    ("economics.csv", ["DDD,2012,1,1,middle", "EEE,2012,1,1,low,extra"], 0,
     "column 'income_group': 'middle' not one of low/lower-middle/upper-middle/high"),
    # a row holding a line break spans two physical lines; a row's line is the one it ends on
    ("disasters.csv", ['"EV\n9",AAA,2012-05,flood,100', "EV3,AAA,2012-05,flood,-1"], 1,
     "column 'affected': must be >= 0.0, got -1.0"),
])
@READERS
def test_first_bad_row_is_named_before_later_ones(tmp_path, name, rows, bad, message, quoted):
    texts, line = _plant(name, *rows, quoted=quoted)
    with pytest.raises(DataValidationError) as caught:
        load_dataset(write_csv_dir(tmp_path / "bad", texts))
    assert str(caught.value) == f"{name}:{_end_line(line, rows, bad)}: {message}"


def test_hash_in_a_field_is_data(tmp_path, monkeypatch):
    """A '#' starts no comment: it loads as part of its field, and a plain
    file with one needs no CSV reader."""
    texts = small_csv_texts()
    texts["disasters.csv"] += "EV#2,AAA,2013-05,storm,100\n"
    monkeypatch.setattr(dataio, "_csv_rows", None)
    assert load_dataset(write_csv_dir(tmp_path, texts)).disasters[-1].event_id == "EV#2"


def test_event_id_of_any_length_loads(tmp_path):
    texts = small_csv_texts()
    texts["disasters.csv"] += "EV" + "9" * 5000 + ",AAA,2013-05,storm,100\n"
    assert load_dataset(write_csv_dir(tmp_path, texts)).disasters[-1].event_id == "EV" + "9" * 5000


def test_load_peak_memory_under_three_times_the_input(tmp_path):
    """Load holds no Python object per field: its traced peak on the desk
    fixture stays under 3x the CSV bytes (12.5x when the text was split into
    one str per field)."""
    paths = write_dataset(fixtures.build_dataset(seed=7), tmp_path)
    size = sum(path.stat().st_size for path in paths)
    load_dataset(tmp_path)  # imports and first-call caches are not the load's
    tracemalloc.start()
    try:
        load_dataset(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * size, f"peak {peak} B for {size} B of CSV"


def test_quoted_copy_loads_equal(desk_dataset, tmp_path):
    """Every file with one field quoted loads through the CSV reader, to the same dataset."""
    for path in write_dataset(desk_dataset, tmp_path / "copy"):
        header, first, rest = path.read_text(encoding="utf-8").split("\n", 2)
        field, _, others = first.partition(",")
        path.write_text(f'{header}\n"{field}",{others}\n{rest}', encoding="utf-8")
    assert load_dataset(tmp_path / "copy") == desk_dataset


# ---------------------------------------------------------------------------
# Round trip of drawn datasets, edge floats included

EDGE_FLOATS = (5e-324, 1e308, 1e-05, 1.0)
POSITIVE = st.sampled_from(EDGE_FLOATS) | st.floats(min_value=0.0, max_value=1e308,
                                                    exclude_min=True)
NONNEGATIVE = st.sampled_from((0.0, -0.0)) | POSITIVE
ZERO = st.sampled_from((0.0, -0.0))
EVENT_IDS = st.text(alphabet='AZaz09 ,"-\n\r', min_size=1, max_size=6)


@st.composite
def datasets(draw) -> Dataset:
    origins = ["OAA", "OAB", "OAC"][:draw(st.integers(1, 3))]
    destinations = ["DAA", "DAB"][:draw(st.integers(1, 2))]
    countries = origins + destinations
    economics = tuple(CountryEconomics(c, y, draw(POSITIVE), draw(POSITIVE),
                                       draw(st.sampled_from(INCOME_GROUPS)))
                      for c in countries for y in PANEL_YEARS)
    corridors = draw(st.lists(st.sampled_from([(o, d) for o in origins for d in destinations]),
                              min_size=1, unique=True))
    stocks = tuple(MigrantStockRecord(o, d, sex, year, draw(NONNEGATIVE))
                   for o, d in corridors for sex in SEXES for year in ANCHOR_YEARS)
    age_profiles = []
    for sex in SEXES:
        ages = draw(st.lists(st.integers(0, MAX_AGE), min_size=1, max_size=4, unique=True))
        tiny = [draw(st.sampled_from((0.0, -0.0, 1e-05, 5e-324))) for _ in ages[1:]]
        shares = [1.0 - sum(tiny), *tiny]
        age_profiles += [AgeProfile(sex, age, share) for age, share in zip(ages, shares)]
    surplus_profiles = tuple(
        SurplusProfile(country, age, draw(ZERO if age < 16 else NONNEGATIVE))
        for country in [GLOBAL_SURPLUS, *draw(st.lists(st.sampled_from(destinations),
                                                       unique=True))]
        for age in range(N_AGES))
    population = {(r.country, r.year): r.population for r in economics}
    disasters = []
    for event_id in draw(st.lists(EVENT_IDS, max_size=3, unique=True)):
        country, onset = draw(st.sampled_from(origins)), draw(st.integers(0, WINDOW_MONTHS - 1))
        limit = AFFECTED_SANITY_FACTOR * population[(country, year_of(onset))]
        disasters.append(DisasterEvent(event_id, country, onset, draw(st.sampled_from(HAZARDS)),
                                       min(draw(NONNEGATIVE), limit)))
    keys = draw(st.lists(st.tuples(st.sampled_from(destinations), st.sampled_from(origins),
                                   st.integers(-12, 150)), max_size=8, unique=True))
    panel = tuple(FlowObservation(s, r, m, draw(NONNEGATIVE)) for s, r, m in keys)
    return Dataset(economics=economics, stocks=stocks, age_profiles=tuple(age_profiles),
                   surplus_profiles=surplus_profiles, disasters=tuple(disasters), panel=panel)


@settings(max_examples=40, deadline=None)
@given(datasets())
def test_drawn_dataset_round_trips(tmp_path_factory, dataset):
    directory = write_dataset(dataset, tmp_path_factory.mktemp("drawn"))[0].parent
    reloaded = load_dataset(directory)
    assert reloaded == dataset
    assert fingerprint(reloaded) == fingerprint(dataset)  # repr tells -0.0 from 0.0


def test_byte_order_mark_is_ignored(tmp_path, small_dataset):
    """Spreadsheet "CSV UTF-8" exports start each file with a byte-order mark."""
    texts = {name: "\ufeff" + text for name, text in small_csv_texts().items()}
    assert load_dataset(write_csv_dir(tmp_path / "bom", texts)) == small_dataset
    texts, line = _plant("panel.csv", "BBB,AAA,2013-01,-1")
    texts["panel.csv"] = "\ufeff" + texts["panel.csv"]
    with pytest.raises(DataValidationError) as caught:
        load_dataset(write_csv_dir(tmp_path / "bad", texts))
    assert str(caught.value) == f"panel.csv:{line}: column 'amount_usd': must be >= 0.0, got -1.0"
