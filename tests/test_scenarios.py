"""Counterfactual identities, attribution conventions, and summaries."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import oracles
from oracles import kernel_value
from remitsim import fixtures, scenarios
from remitsim.behavior import REFERENCE_PARAMS
from remitsim.dataio import (AgeProfile, CountryEconomics, Dataset, DisasterEvent,
                             MigrantStockRecord, SurplusProfile)
from remitsim.engine import SimulationContext, scenario_none
from remitsim.months import month_index, year_of

PARAMS = REFERENCE_PARAMS


def build_scenario_dataset(origins, dests, events) -> Dataset:
    """Origins are (code, gdp, stock, male_share); dests are (code, gdp).

    Constant populations of one million keep event magnitudes easy to state.
    """
    economics, stocks, ages = [], [], []
    for code, gdp, *_ in list(origins) + list(dests):
        for year in range(2010, 2020):
            economics.append(CountryEconomics(code, year, float(gdp), 1e6, "upper-middle"))
    for code, _, stock, male in origins:
        for dcode, _ in dests:
            for sex, frac in (("male", male), ("female", 1.0 - male)):
                for year in (2010, 2015, 2020):
                    stocks.append(MigrantStockRecord(code, dcode, sex, year, stock * frac))
    male_shares = fixtures._discretized_normal(30, 10, 1e-4)
    female_shares = fixtures._discretized_normal(38, 16, 1e-4)
    for sex, shares in (("male", male_shares), ("female", female_shares)):
        ages += [AgeProfile(sex, a, float(shares[a])) for a in range(101)]
    curve = fixtures._surplus_curve(1.0)
    surplus = tuple(SurplusProfile("GLOBAL_DEFAULT", a, float(curve[a])) for a in range(101))
    return Dataset(tuple(economics), tuple(stocks), tuple(ages), surplus, tuple(events), ())


@pytest.fixture(scope="module")
def two_corridor_event_dataset() -> Dataset:
    # one event in OGA; the OGB corridors must be untouched by it
    base = fixtures.build_dataset(seed=3, n_origins=2, n_destinations=2, with_events=False)
    pop = {c.country: c.population for c in base.economics}
    event = DisasterEvent("SOLO", "OGA", month_index("2013-04"), "flood", 0.3 * pop["OGA"])
    return dataclasses.replace(base, disasters=(event,))


# ---------------------------------------------------------------------------
# Counterfactual identities

def test_zero_event_dataset_induces_nothing():
    dataset = fixtures.build_dataset(seed=3, n_origins=2, n_destinations=2, with_events=False)
    result = scenarios.run_counterfactual(SimulationContext(dataset), PARAMS)
    assert (result.induced == 0.0).all()
    assert np.array_equal(result.factual, result.counterfactual)


def test_single_event_sign_pattern_and_window(two_corridor_event_dataset):
    ctx = SimulationContext(two_corridor_event_dataset)
    result = scenarios.run_counterfactual(ctx, PARAMS)
    event = two_corridor_event_dataset.disasters[0]
    onset = event.onset_month
    for c, (origin, _) in enumerate(ctx.corridors):
        if origin != event.country:
            assert (result.induced[c] == 0.0).all()  # locality, exact
            continue
        for k in range(12):
            sign = kernel_value(1.0, k, PARAMS)
            if sign > 0:
                assert result.induced[c, onset + k] > 0
            else:
                assert result.induced[c, onset + k] < 0
        outside = np.r_[result.induced[c, :onset], result.induced[c, onset + 12:]]
        assert (outside == 0.0).all()  # window confinement, exact


def test_null_scenario_reproduces_counterfactual_bit_exactly(two_corridor_event_dataset):
    ctx = SimulationContext(two_corridor_event_dataset)
    silenced = ctx.expected_flows(PARAMS, scenario_none())
    eventless = dataclasses.replace(two_corridor_event_dataset, disasters=())
    bare = SimulationContext(eventless).expected_flows(PARAMS)
    assert np.array_equal(silenced, bare)


def test_induced_is_factual_minus_counterfactual(two_corridor_event_dataset):
    result = scenarios.run_counterfactual(SimulationContext(two_corridor_event_dataset), PARAMS)
    assert np.array_equal(result.induced, result.factual - result.counterfactual)
    assert 0.0 <= result.total_induced() / result.total_factual() < 1.0


# ---------------------------------------------------------------------------
# Per-hazard attribution

def test_single_hazard_attribution_exhausts_total(two_corridor_event_dataset):
    report = scenarios.attribute_by_hazard(SimulationContext(two_corridor_event_dataset), PARAMS)
    by_hazard = {h.hazard: h for h in report.per_hazard}
    assert by_hazard["flood"].induced_usd == pytest.approx(report.total_induced, rel=1e-12)
    for hazard in ("storm", "earthquake", "drought"):
        assert by_hazard[hazard].induced_usd == 0.0
        assert by_hazard[hazard].usd_per_affected is None  # nobody affected
    assert report.interaction_residual == pytest.approx(0.0, abs=1e-6)


def _residual_ctx(scale: float) -> SimulationContext:
    events = [
        DisasterEvent("FL", "ORR", month_index("2012-03"), "flood", 100000.0 * scale),
        DisasterEvent("ST", "ORR", month_index("2012-05"), "storm", 120000.0 * scale),
    ]
    return SimulationContext(build_scenario_dataset(
        origins=[("ORR", 25000, 150000.0, 0.5)],
        dests=[("DSA", 40000), ("DSB", 34000)], events=events))


def test_small_event_residual_and_quadratic_scaling():
    full = scenarios.attribute_by_hazard(_residual_ctx(1.0), PARAMS)
    assert abs(full.interaction_residual) <= 0.01 * full.total_induced
    half = scenarios.attribute_by_hazard(_residual_ctx(0.5), PARAMS)
    ratio = full.interaction_residual / half.interaction_residual
    assert 3.5 <= ratio <= 4.5


def test_leave_one_out_convention_differs_but_agrees_on_total():
    ctx = _residual_ctx(1.0)
    only = scenarios.attribute_by_hazard(ctx, PARAMS, "only_hazard")
    loo = scenarios.attribute_by_hazard(ctx, PARAMS, "leave_one_out")
    assert only.total_induced == pytest.approx(loo.total_induced, rel=1e-12)
    flood_only = next(h for h in only.per_hazard if h.hazard == "flood")
    flood_loo = next(h for h in loo.per_hazard if h.hazard == "flood")
    assert flood_only.induced_usd != flood_loo.induced_usd
    with pytest.raises(ValueError):
        scenarios.attribute_by_hazard(ctx, PARAMS, "nope")


def test_per_person_ordering_earthquake_over_drought():
    # earthquakes affect fewer people but hit an activatable mid-probability
    # diaspora; the drought hits a small, already saturated one
    dataset = build_scenario_dataset(
        origins=[("ORQ", 22000, 200000.0, 0.5), ("ORW", 8000, 50000.0, 0.5)],
        dests=[("DSA", 40000), ("DSB", 34000)],
        events=[DisasterEvent("EQ", "ORQ", month_index("2014-03"), "earthquake", 80000.0),
                DisasterEvent("DR", "ORW", month_index("2012-06"), "drought", 400000.0)])
    report = scenarios.attribute_by_hazard(SimulationContext(dataset), PARAMS)
    eq = next(h for h in report.per_hazard if h.hazard == "earthquake")
    dr = next(h for h in report.per_hazard if h.hazard == "drought")
    assert eq.affected_persons < dr.affected_persons
    assert eq.usd_per_affected > dr.usd_per_affected


# ---------------------------------------------------------------------------
# Per-event attribution

def test_only_event_matches_counterfactual_total(two_corridor_event_dataset):
    ctx = SimulationContext(two_corridor_event_dataset)
    event = two_corridor_event_dataset.disasters[0]
    ev = scenarios.attribute_event(ctx, PARAMS, event.event_id)
    result = scenarios.run_counterfactual(ctx, PARAMS)
    assert ev.induced_usd_12m == pytest.approx(result.total_induced(), rel=1e-12)
    assert len(ev.months) == 12


def test_zero_affected_event_induces_nothing():
    dataset = build_scenario_dataset(
        origins=[("ORZ", 20000, 100000.0, 0.5)], dests=[("DSA", 40000)],
        events=[DisasterEvent("NIL", "ORZ", month_index("2015-02"), "storm", 0.0)])
    ev = scenarios.attribute_event(SimulationContext(dataset), PARAMS, "NIL")
    assert ev.induced_usd_12m == 0.0
    assert ev.induced_by_corridor == {}


def test_unknown_event_id():
    dataset = fixtures.build_dataset(seed=3, n_origins=2, n_destinations=2)
    with pytest.raises(KeyError):
        scenarios.attribute_event(SimulationContext(dataset), PARAMS, "MISSING")


def test_large_event_relative_increase_and_oracle():
    # large magnitude (clamped at 1), low-probability diaspora: the induced
    # share lands in the mid-teens over the following year
    dataset = build_scenario_dataset(
        origins=[("ORX", 8000, 500.0, 0.5), ("ORH", 22000, 120000.0, 0.97),
                 ("ORY", 30000, 500.0, 0.5)],
        dests=[("DSA", 40000), ("DSB", 34000)],
        events=[DisasterEvent("HQ", "ORH", month_index("2013-01"), "earthquake", 2e6)])
    ctx = SimulationContext(dataset)
    ev = scenarios.attribute_event(ctx, PARAMS, "HQ")
    assert 0.15 <= ev.relative_increase <= 0.25

    # brute-force monthly integration oracle over the 12-month window
    with_event = ctx.expected_flows(PARAMS, frozenset({"HQ"}))
    without = ctx.expected_flows(PARAMS, frozenset())
    months = list(ev.months)
    recipient_rows = [c for c, (o, _) in enumerate(ctx.corridors) if o == "ORH"]
    oracle_induced = float((with_event - without)[:, months].sum())
    oracle_baseline = float(without[np.ix_(recipient_rows, months)].sum())
    assert ev.induced_usd_12m == pytest.approx(oracle_induced, rel=1e-12)
    assert ev.baseline_usd_12m == pytest.approx(oracle_baseline, rel=1e-12)
    assert ev.relative_increase == pytest.approx(oracle_induced / oracle_baseline, rel=1e-12)


@pytest.mark.parametrize("window", [None, ("2016-07", "2016-12")])
def test_event_attribution_equals_full_grids(desk_dataset, desk_ctx, window):
    ctx = desk_ctx if window is None else SimulationContext(
        desk_dataset, start=month_index(window[0]), end=month_index(window[1]))
    empty = 0
    for event in desk_dataset.disasters:
        got = scenarios.attribute_event(ctx, PARAMS, event.event_id)
        assert got._asdict() == oracles.full_grid_event_attribution(
            ctx, PARAMS, event.event_id)
        empty += not got.months
    assert empty == (0 if window is None else 6)  # two events act in 2016-H2


@pytest.mark.parametrize("window", [None, ("2016-07", "2016-12"), ("2012-05", "2013-02")])
def test_event_attribution_from_the_no_event_grid_is_bit_identical(desk_dataset, window):
    """Reading the no-event flows from the shared grid gives every field of a
    fresh evaluation, bit for bit (repr tells -0.0 from 0.0)."""
    ctx = SimulationContext(desk_dataset) if window is None else SimulationContext(
        desk_dataset, start=month_index(window[0]), end=month_index(window[1]))
    no_event = scenarios.event_grids(ctx, PARAMS)[1]
    for event in desk_dataset.disasters:
        fresh = scenarios.attribute_event(ctx, PARAMS, event.event_id)
        shared = scenarios.attribute_event(ctx, PARAMS, event.event_id, no_event=no_event)
        assert repr(shared) == repr(fresh)


# ---------------------------------------------------------------------------
# Summaries

def test_single_group_share(two_corridor_event_dataset):
    result = scenarios.run_counterfactual(SimulationContext(two_corridor_event_dataset), PARAMS)
    rows = scenarios.summarize(result, two_corridor_event_dataset, "income-group")
    assert len(rows) == 1  # every fixture country is upper-middle income
    assert rows[0].induced_usd == pytest.approx(result.total_induced(), rel=1e-12)


def test_year_grouping_partitions_total(desk_dataset, desk_ctx):
    result = scenarios.run_counterfactual(desk_ctx, PARAMS)
    rows = scenarios.summarize(result, desk_dataset, "year")
    assert sorted(r.key for r in rows) == [str(y) for y in range(2010, 2020)]
    assert sum(r.induced_usd for r in rows) == pytest.approx(result.total_induced(), rel=1e-9)
    assert sum(r.factual_usd for r in rows) == pytest.approx(result.total_factual(), rel=1e-9)


def test_country_grouping_against_flat_summation(desk_dataset, desk_ctx):
    result = scenarios.run_counterfactual(desk_ctx, PARAMS)
    rows = scenarios.summarize(result, desk_dataset, "country")
    by_country = {}
    for c, (origin, _) in enumerate(result.corridors):
        by_country[origin] = by_country.get(origin, 0.0) + float(result.induced[c].sum())
    for row in rows:
        assert row.induced_usd == pytest.approx(by_country[row.key], rel=1e-9, abs=1e-6)
        assert row.per_capita is not None and row.per_gdp is not None


@pytest.mark.parametrize("grouping", ["hazard", "continent"])
def test_unknown_grouping_rejected(desk_dataset, desk_ctx, grouping):
    result = scenarios.run_counterfactual(desk_ctx, PARAMS)
    with pytest.raises(ValueError, match="unknown grouping"):
        scenarios.summarize(result, desk_dataset, grouping)


@pytest.mark.parametrize("window", [None, ("2016-07", "2017-03")])
@pytest.mark.parametrize("grouping", ["income-group", "country", "year"])
def test_summary_totals_equal_cell_by_cell_sums(desk_dataset, desk_ctx, grouping, window):
    ctx = desk_ctx if window is None else SimulationContext(
        desk_dataset, start=month_index(window[0]), end=month_index(window[1]))
    result = scenarios.run_counterfactual(ctx, PARAMS)
    induced, factual = oracles.summary_totals(result.corridors, result.months, result.induced,
                                              result.factual, desk_dataset, grouping)
    rows = scenarios.summarize(result, desk_dataset, grouping)
    assert [r.key for r in rows] == sorted(induced)
    assert [r.induced_usd for r in rows] == [induced[key] for key in sorted(induced)]
    assert [r.factual_usd for r in rows] == [factual[key] for key in sorted(factual)]


def test_magnitude_cache_keeps_only_shared_event_sets(desk_dataset):
    ctx = SimulationContext(desk_dataset)
    shared = [scenarios.attribute_event(ctx, PARAMS, e.event_id) for e in desk_dataset.disasters]
    scenarios.attribute_by_hazard(ctx, PARAMS)
    assert len(desk_dataset.disasters) > 2
    assert set(ctx._mag_cache) <= {None, frozenset()}
    fresh = [scenarios.attribute_event(SimulationContext(desk_dataset), PARAMS, e.event_id)
             for e in desk_dataset.disasters]
    assert shared == fresh
