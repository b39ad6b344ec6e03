"""Gravity baseline: per-migrant amounts, flows, exponent fit, comparison."""
from __future__ import annotations

import numpy as np
import pytest

import oracles
from conftest import aligned, gravity_grid, panel_of
from remitsim import baseline, fixtures
from remitsim.baseline import (annual_stocks, calibrate_gravity, compare_models, gravity_flows,
                               per_migrant)
from remitsim.dataio import FlowObservation
from remitsim.engine import SimulationContext
from remitsim.months import year_of
from remitsim.population import build_population


def _gravity(ctx, beta):
    """The context's gravity flows under ``beta``, from its own annual stocks."""
    return gravity_flows(ctx, beta, annual_stocks(ctx.stocks))


def _one(y_dest, y_origin, beta):
    """per_migrant of a single cell."""
    return float(per_migrant(np.array([y_dest], float), np.array([y_origin], float), beta)[0])


def test_per_migrant_branches():
    assert _one(8000, 10000, 0.75) == 10000.0
    # 10000 + 30000^0.75
    assert _one(40000, 10000, 0.75) == pytest.approx(12279.507057, rel=1e-9)
    assert _one(10000, 10000, 0.75) == 10000.0


def test_per_migrant_continuity_at_equality():
    eps = 1e-6
    below = _one(10000 - eps, 10000, 0.75)
    above = _one(10000 + eps, 10000, 0.75)
    assert below == pytest.approx(10000.0, abs=1e-9)
    assert above == pytest.approx(10000.0, abs=0.01)


def test_per_migrant_monotone_in_destination_income():
    values = per_migrant(np.linspace(9000, 60000, 40), np.full(40, 9000.0), 0.8).tolist()
    assert all(b > a for a, b in zip(values, values[1:]))


def test_per_migrant_domain():
    with pytest.raises(ValueError):
        _one(0, 10000, 0.75)


def test_per_migrant_equals_scalar_oracle():
    y_dest = np.array([[8000.0, 40000.0, 10000.0], [40000.0, 9000.5, 1e6]])
    y_origin = np.array([[10000.0, 10000.0, 10000.0], [10000.0, 9000.0, 3.5]])
    for beta in (0.01, 0.3713, 0.75, 1.9):
        got = per_migrant(y_dest, y_origin, beta)
        assert got.shape == y_dest.shape
        want = [[oracles.gravity_per_migrant(d, o, beta) for d, o in zip(*rows)]
                for rows in zip(y_dest.tolist(), y_origin.tolist())]
        assert repr(got.tolist()) == repr(want), beta


def test_gravity_flows_products(desk_dataset, desk_ctx):
    beta = 0.75
    stocks = annual_stocks(desk_ctx.stocks)
    flows = gravity_flows(desk_ctx, beta, stocks)
    y = 2014 - 2010
    for (sender, recipient) in [("DNA", "OGA"), ("DNE", "OGJ")]:
        c = desk_ctx.corridor_index(recipient, sender)
        amount = oracles.gravity_per_migrant(desk_dataset.gdp[(sender, 2014)],
                                             desk_dataset.gdp[(recipient, 2014)], beta)
        assert flows[c, y] == pytest.approx(amount * stocks[c, y], rel=1e-12)
    # recipient total is the sum over senders
    rows = desk_ctx.origin_groups["OGA"]
    manual = sum(flows[desk_ctx.corridor_index("OGA", d), y]
                 for d in ("DNA", "DNB", "DNC", "DND", "DNE"))
    assert sum(flows[rows, y]) == pytest.approx(manual, rel=1e-12)


def test_gravity_flow_linear_in_stocks(desk_dataset, desk_ctx):
    import dataclasses
    doubled = dataclasses.replace(
        desk_dataset,
        stocks=tuple(r._replace(count=2 * r.count) for r in desk_dataset.stocks))
    base = _gravity(desk_ctx, 0.6)
    double = _gravity(SimulationContext(doubled), 0.6)
    assert base.shape == double.shape == (desk_ctx.n_corridors, 10)
    for value, twice in zip(base.ravel().tolist(), double.ravel().tolist()):
        assert twice == pytest.approx(2 * value, rel=1e-12)


def _zeroed():
    import dataclasses
    dataset = fixtures.build_dataset(seed=3, n_origins=2, n_destinations=2)
    return SimulationContext(dataclasses.replace(
        dataset,
        stocks=tuple(r._replace(count=0.0) for r in dataset.stocks)))


def test_zero_stock_zero_flow():
    assert (_gravity(_zeroed(), 0.75) == 0.0).all()


def _gravity_panel(ctx, beta):
    """Monthly panel generated exactly by the gravity model (annual / 12)."""
    flows = _gravity(ctx, beta).tolist()
    panel = []
    for month in range(0, 120, 3):
        for (origin, dest), by_year in zip(ctx.corridors, flows):
            panel.append(FlowObservation(dest, origin, month, by_year[year_of(month) - 2010] / 12.0))
    return panel_of(panel)


def test_planted_beta_recovery(desk_ctx):
    panel = _gravity_panel(desk_ctx, 0.75)
    fit = calibrate_gravity(panel, desk_ctx, annual_stocks(desk_ctx.stocks))
    assert fit.beta_exp == pytest.approx(0.75, abs=0.01)
    assert fit.unimodal and not fit.at_boundary


def test_flat_loss_degenerate_warning(caplog):
    zeroed = _zeroed()
    panel = panel_of(FlowObservation("DNA", "OGA", m, 0.0) for m in range(12))
    with caplog.at_level("WARNING"):
        fit = calibrate_gravity(panel, zeroed, annual_stocks(zeroed.stocks))
    assert fit.sse == 0.0
    assert fit.at_boundary  # zero everywhere; grid argmin sits at the edge
    assert any("bracket edge" in r.message for r in caplog.records)


def test_boundary_optimum_flagged(desk_dataset, desk_ctx):
    # structural-model panels want a tiny exponent; the fit lands at the edge
    panel = desk_dataset.panel[:600]
    fit = calibrate_gravity(panel, desk_ctx, annual_stocks(desk_ctx.stocks))
    assert fit.at_boundary or fit.beta_exp > 0.011


def test_calibrate_gravity_requires_panel(desk_ctx):
    with pytest.raises(ValueError):
        calibrate_gravity(panel_of([]), desk_ctx, annual_stocks(desk_ctx.stocks))


# ---------------------------------------------------------------------------
# Model comparison

def _mk_panel(sender, recipient, yearly_usd, months):
    return [FlowObservation(sender, recipient, m, yearly_usd / 12.0) for m in months]


def _compare(structural, gravity, panel):
    """compare_models of ``structural`` and ``gravity`` as conftest's dicts align them."""
    corridors, grid = gravity_grid(gravity)
    return compare_models(aligned(structural, panel), grid, panel, corridors)


def test_identical_estimates_ratio_one():
    months = list(range(12))
    panel = panel_of(_mk_panel("BBB", "AAA", 120.0, months))
    structural = {("BBB", "AAA", m): 10.0 for m in months}
    gravity = {2010: {("BBB", "AAA"): 120.0}}
    report = _compare(structural, gravity, panel)
    row = report.rows[0]
    assert row.se_structural == row.se_gravity == 0.0
    assert report.mean_relative_error_ratio is None  # gravity error is zero


def test_benchmark_row_squared_errors():
    # observed 27.46, structural 26.49, gravity 123.28 (billions):
    # squared errors 0.9409 and 9181.47
    months = list(range(24))
    panel = panel_of(_mk_panel("USA", "MEX", 27.46, months))
    structural = {("USA", "MEX", m): 26.49 / 12.0 for m in months}
    gravity = {2010: {("USA", "MEX"): 123.28}, 2011: {("USA", "MEX"): 123.28}}
    report = _compare(structural, gravity, panel)
    row = report.rows[0]
    assert row.observed_usd == pytest.approx(27.46, rel=1e-12)
    assert row.se_structural == pytest.approx(0.95, rel=0.02)
    assert row.se_gravity == pytest.approx(9181.54, rel=0.02)
    # frozen direct values
    assert row.se_structural == pytest.approx(0.9409, rel=1e-9)
    assert row.se_gravity == pytest.approx(9181.4724, rel=1e-9)


def test_squared_errors_are_correctly_rounded_products():
    # glibc 2.36's pow rounds this square one ulp low: 583078584592.7798 ** 2
    # gives 3.399806358107194e+23, the correctly rounded product ...195e+23
    error = 583078584592.7798
    months = list(range(12))
    panel = panel_of(_mk_panel("BBB", "AAA", 0.0, months))
    structural = {("BBB", "AAA", m): 0.0 for m in months}
    gravity = {2010: {("BBB", "AAA"): error}}
    row, = _compare(structural, gravity, panel).rows
    assert (row.observed_usd, row.gravity_usd) == (0.0, error)
    assert row.se_gravity == error * error == 3.399806358107195e+23


def test_relative_error_ratio_45_percent():
    months = list(range(12))
    panel = panel_of(_mk_panel("AAA", "XXX", 100.0, months)
                     + _mk_panel("BBB", "XXX", 100.0, months))
    # structural off by 9% where gravity is off by 20%: ratio 0.45
    structural = {}
    for m in months:
        structural[("AAA", "XXX", m)] = 109.0 / 12.0
        structural[("BBB", "XXX", m)] = 91.0 / 12.0
    gravity = {2010: {("AAA", "XXX"): 120.0, ("BBB", "XXX"): 80.0}}
    report = _compare(structural, gravity, panel)
    assert report.mean_relative_error_ratio == pytest.approx(0.45, rel=1e-9)
    assert report.largest_overestimates[0] == ("AAA", "XXX")
    assert report.largest_underestimates[0] == ("BBB", "XXX")


def test_missing_corridor_excluded_and_counted():
    months = list(range(6))
    panel = panel_of(_mk_panel("AAA", "XXX", 50.0, months) + _mk_panel("BBB", "YYY", 60.0, months))
    structural = {("AAA", "XXX", m): 4.0 for m in months}
    gravity = {2010: {("AAA", "XXX"): 50.0}}
    report = _compare(structural, gravity, panel)
    assert report.n_excluded == 1
    assert len(report.rows) == 1


def _by_key(ctx, stocks):
    """An annual stock array as {(origin, destination, year): stock}."""
    return {(origin, dest, 2010 + y): value
            for (origin, dest), row in zip(ctx.corridors, stocks.tolist())
            for y, value in enumerate(row)}


def test_annual_stocks_equal_per_series_oracle(desk_dataset, desk_ctx):
    want = oracles.annual_stocks(desk_dataset)
    assert _by_key(desk_ctx, annual_stocks(build_population(desk_dataset))) == want
    assert _by_key(desk_ctx, annual_stocks(desk_ctx.stocks)) == want


def _panel_with_excluded_rows(dataset):
    """The desk panel plus one observation after 2019 and one of an unmodelled sender."""
    return panel_of([*dataset.panel, FlowObservation("DNA", "OGA", 130, 5.0e6),
                     FlowObservation("ZZZ", "OGA", 3, 1.0e6)])


def test_gravity_loss_equals_scalar_oracle(desk_dataset, desk_ctx):
    panel = _panel_with_excluded_rows(desk_dataset)
    stocks = oracles.annual_stocks(desk_dataset)
    loss, excluded = baseline._gravity_loss(panel, desk_ctx, annual_stocks(desk_ctx.stocks))
    assert excluded == 2
    for beta in [*np.linspace(0.01, 2.0, 41), 0.3713, 1.0]:
        assert loss(beta) == oracles.panel_sse(panel, desk_dataset, stocks, beta)[0], beta


def test_gravity_fit_identical_to_scalar_loss_fit(desk_dataset, desk_ctx, monkeypatch):
    panel = _panel_with_excluded_rows(desk_dataset)
    fit = calibrate_gravity(panel, desk_ctx, annual_stocks(desk_ctx.stocks))

    def scalar_loss(panel, ctx, _stocks):
        stocks = oracles.annual_stocks(ctx.dataset)
        excluded = oracles.panel_sse(panel, ctx.dataset, stocks, 1.0)[1]
        return (lambda beta: oracles.panel_sse(panel, ctx.dataset, stocks, beta)[0]), excluded

    monkeypatch.setattr(baseline, "_gravity_loss", scalar_loss)
    assert calibrate_gravity(panel, desk_ctx, annual_stocks(desk_ctx.stocks)) == fit
    assert fit.n_excluded == 2
