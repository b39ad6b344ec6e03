"""Acceptance criteria, one test per criterion, each printing a PASS line.

The heavyweight calibration criteria run against the 50-corridor, 120-month
synthetic panel generated by the expected-value path under the reference
parameter set; everything is seeded and deterministic.
"""
from __future__ import annotations

import dataclasses
import filecmp
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import aligned, aligned_halves, gravity_grid, panel_of
from oracles import (CovariateVector, activation_capacity, expected_flow, kernel_value,
                     probability, sample_flows, theta)
from remitsim import fixtures, scenarios
from remitsim.baseline import annual_stocks, calibrate_gravity, compare_models, gravity_flows
from remitsim.behavior import REFERENCE_PARAMS, BehaviorParams
from remitsim.calibration import CalibrationConfig, calibrate
from remitsim.cli import main as cli_main
from remitsim.dataio import DisasterEvent, FlowObservation
from remitsim.engine import SimulationContext
from remitsim.flows import _sample_cells, confidence_band
from remitsim.months import month_index

from test_scenarios import build_scenario_dataset


def _report(label: str) -> None:
    print(f"[PASS] {label}")


# ---------------------------------------------------------------------------

def test_criterion_disaster_kernel_shape():
    """Positive at offsets 0-8, peak at 4 +/- 1, negative at 9-11, zero outside."""
    values = [kernel_value(1.0, k, REFERENCE_PARAMS) for k in range(12)]
    assert all(v > 0 for v in values[:9])
    assert all(v < 0 for v in values[9:])
    assert abs(int(np.argmax(values)) - 4) <= 1
    assert kernel_value(1.0, -1, REFERENCE_PARAMS) == 0.0
    assert kernel_value(1.0, 12, REFERENCE_PARAMS) == 0.0
    assert kernel_value(1.0, 100, REFERENCE_PARAMS) == 0.0
    _report("disaster kernel shape (reference parameters)")


def test_criterion_score_and_probability_fixture():
    """Score 1.818 +/- 0.001 and probability 0.860 +/- 0.001 on the unit fixture."""
    cov = CovariateVector(surplus=1.2, family=0.3, delta_gdp=0.8, gdp_norm=0.1,
                          disaster_score=0.0)
    score = theta(cov, REFERENCE_PARAMS)
    # independent oracle: exact summation plus a separately written logistic
    oracle_score = math.fsum([0.02, 1.08 * 1.2, -4.65 * 0.3, 2.83 * 0.8, -3.67 * 0.1])
    oracle_prob = 1.0 / (1.0 + math.exp(-oracle_score))
    assert score == pytest.approx(oracle_score, abs=1e-12)
    assert abs(score - 1.818) <= 0.001
    assert abs(probability(score) - 0.860) <= 0.001
    assert probability(score) == pytest.approx(oracle_prob, abs=1e-12)
    _report("decision score and probability unit fixture")


def test_criterion_parameter_recovery():
    """Noiseless 50x120 panel: betas within 5%, rho within 2%, R^2 > 0.99."""
    dataset = fixtures.build_dataset(seed=7)
    assert len(dataset.corridors) == 50
    ctx = SimulationContext(dataset)
    config = CalibrationConfig(starts=1, max_iter=1500, tol=1e-13)
    result = calibrate(ctx, *aligned_halves(dataset.panel, ctx, 0.8, seed=11), config)
    for name in ("beta0", "beta1", "beta2", "beta3"):
        true = getattr(REFERENCE_PARAMS, name)
        got = getattr(result.params, name)
        assert abs(got - true) / abs(true) <= 0.05, (name, got, true)
    assert abs(result.params.rho - REFERENCE_PARAMS.rho) / REFERENCE_PARAMS.rho <= 0.02
    assert result.test_r2 > 0.99
    # recovered kernel values within 10% at every offset
    for k in range(12):
        true = kernel_value(1.0, k, REFERENCE_PARAMS)
        got = kernel_value(1.0, k, result.params)
        assert abs(got - true) <= 0.10 * abs(true), (k, got, true)
    _report(f"parameter recovery (test R^2 = {result.test_r2:.6f}, "
            f"{result.iterations} iterations)")


def test_criterion_heldout_fit_noisy_panel():
    """10% multiplicative noise: held-out R^2 >= 0.9."""
    dataset = fixtures.build_dataset(seed=7, noise=0.10)
    ctx = SimulationContext(dataset)
    config = CalibrationConfig(starts=1, max_iter=400, tol=1e-10)
    result = calibrate(ctx, *aligned_halves(dataset.panel, ctx, 0.8, seed=11), config)
    assert result.test_r2 >= 0.9
    _report(f"held-out fit on noisy panel (test R^2 = {result.test_r2:.4f})")


def test_criterion_sampler_oracle_equivalence():
    """Sampler mean within 3 SE of the exact mean and variance within 5%,
    for every fixture corridor."""
    dataset = fixtures.build_dataset(seed=7)
    ctx = SimulationContext(dataset)
    cube = ctx.probability_cube(REFERENCE_PARAMS)
    month = 60
    draws = 10_000
    for c in range(ctx.n_corridors):
        counts = np.rint(ctx.cohort_counts(c, month).ravel())
        probs = np.tile(cube[c, month], 2)
        gdpm = float(ctx.monthly_income[c, month])
        totals = sample_flows(counts, probs, REFERENCE_PARAMS, gdpm, seed=(900, c), draws=draws)
        exact_mean = expected_flow(counts, probs, REFERENCE_PARAMS, gdpm)
        scale = REFERENCE_PARAMS.rho * gdpm
        var_senders = float((counts * probs * (1 - probs)).sum())
        se = scale * math.sqrt(var_senders / draws)
        assert abs(totals.mean() - exact_mean) <= 3 * se + 1e-9
        emp_var = (totals / scale).var()
        assert abs(emp_var - var_senders) <= 0.05 * var_senders + 1e-9
    _report(f"sampler-oracle equivalence over {ctx.n_corridors} corridors")


def _production_draws(ctx, cube, c: int, month: int, seed: int, draws: int) -> np.ndarray:
    """Sampled USD totals of one corridor-month from the production sampler."""
    cell = np.zeros_like(cube[:1])
    cell[0, month] = cube[c, month]
    return _sample_cells(ctx, REFERENCE_PARAMS, np.array([c]), cell, seed, draws)[:, month]


def test_criterion_production_sampler_equivalence():
    """The production sampler's mean is within 3 SE of the exact mean and its
    variance within 5%, for every fixture corridor."""
    dataset = fixtures.build_dataset(seed=7)
    ctx = SimulationContext(dataset)
    cube = ctx.probability_cube(REFERENCE_PARAMS)
    month = 60
    draws = 10_000
    for c in range(ctx.n_corridors):
        counts = np.rint(ctx.cohort_counts(c, month).ravel())
        probs = np.tile(cube[c, month], 2)
        gdpm = float(ctx.monthly_income[c, month])
        totals = _production_draws(ctx, cube, c, month, seed=900, draws=draws)
        exact_mean = expected_flow(counts, probs, REFERENCE_PARAMS, gdpm)
        scale = REFERENCE_PARAMS.rho * gdpm
        var_senders = float((counts * probs * (1 - probs)).sum())
        se = scale * math.sqrt(var_senders / draws)
        assert abs(totals.mean() - exact_mean) <= 3 * se + 1e-9
        emp_var = (totals / scale).var()
        assert abs(emp_var - var_senders) <= 0.05 * var_senders + 1e-9
    _report(f"production sampler equivalence over {ctx.n_corridors} corridors")


def test_criterion_confidence_band_calibration():
    """The nominal 95% band contains 95% +/- 2% of fresh stochastic replicates."""
    dataset = fixtures.build_dataset(seed=7)
    ctx = SimulationContext(dataset)
    cube = ctx.probability_cube(REFERENCE_PARAMS)
    c = ctx.corridor_index("OGE", "DNC")
    month = 60
    counts = np.rint(ctx.cohort_counts(c, month).ravel())
    probs = np.tile(cube[c, month], 2)
    gdpm = float(ctx.monthly_income[c, month])
    draws = 10_000
    band_samples = sample_flows(counts, probs, REFERENCE_PARAMS, gdpm, seed=101, draws=draws)
    band = confidence_band(band_samples, "corridor")
    fresh = sample_flows(counts, probs, REFERENCE_PARAMS, gdpm, seed=202, draws=draws)
    inside = float(((fresh >= band.lower) & (fresh <= band.upper)).mean())
    assert 0.93 <= inside <= 0.97
    _report(f"confidence band calibration (inside fraction = {inside:.4f})")


def test_criterion_production_band_calibration():
    """The nominal 95% band of the production sampler contains 95% +/- 2% of
    fresh replicates from it."""
    dataset = fixtures.build_dataset(seed=7)
    ctx = SimulationContext(dataset)
    cube = ctx.probability_cube(REFERENCE_PARAMS)
    c = ctx.corridor_index("OGE", "DNC")
    band = confidence_band(_production_draws(ctx, cube, c, 60, seed=101, draws=10_000),
                           "corridor")
    fresh = _production_draws(ctx, cube, c, 60, seed=202, draws=10_000)
    inside = float(((fresh >= band.lower) & (fresh <= band.upper)).mean())
    assert 0.93 <= inside <= 0.97
    _report(f"production band calibration (inside fraction = {inside:.4f})")


def test_criterion_counterfactual_identities():
    """Null scenario, locality, window confinement, quadratic residual scaling."""
    eventless = fixtures.build_dataset(seed=3, n_origins=2, n_destinations=2, with_events=False)
    null = scenarios.run_counterfactual(SimulationContext(eventless), REFERENCE_PARAMS)
    assert (null.induced == 0.0).all()

    pop = {c.country: c.population for c in eventless.economics}
    solo = dataclasses.replace(eventless, disasters=(
        DisasterEvent("SOLO", "OGA", month_index("2013-04"), "flood", 0.3 * pop["OGA"]),))
    ctx = SimulationContext(solo)
    result = scenarios.run_counterfactual(ctx, REFERENCE_PARAMS)
    onset = month_index("2013-04")
    for c, (origin, _) in enumerate(ctx.corridors):
        if origin != "OGA":
            assert (result.induced[c] == 0.0).all()
        else:
            assert (result.induced[c, :onset] == 0.0).all()
            assert (result.induced[c, onset + 12:] == 0.0).all()
            assert (result.induced[c, onset: onset + 12] != 0.0).all()

    def residual(scale: float) -> float:
        events = (
            DisasterEvent("FL", "ORR", month_index("2012-03"), "flood", 100000.0 * scale),
            DisasterEvent("ST", "ORR", month_index("2012-05"), "storm", 120000.0 * scale),
        )
        ds = build_scenario_dataset(origins=[("ORR", 25000, 150000.0, 0.5)],
                                    dests=[("DSA", 40000), ("DSB", 34000)], events=events)
        return scenarios.attribute_by_hazard(SimulationContext(ds),
                                             REFERENCE_PARAMS).interaction_residual

    ratio = residual(1.0) / residual(0.5)
    assert 3.5 <= ratio <= 4.5
    _report(f"counterfactual identities (residual halving ratio = {ratio:.3f})")


def test_criterion_gravity_baseline_fixture():
    """Benchmark-row squared errors within 2% and planted-exponent recovery."""
    months = list(range(24))
    panel = panel_of(FlowObservation("USA", "MEX", m, 27.46 / 12.0) for m in months)
    structural = {("USA", "MEX", m): 26.49 / 12.0 for m in months}
    gravity = {2010: {("USA", "MEX"): 123.28}, 2011: {("USA", "MEX"): 123.28}}
    corridors, grid = gravity_grid(gravity)
    row = compare_models(aligned(structural, panel), grid, panel, corridors).rows[0]
    assert abs(row.se_structural - 0.95) / 0.95 <= 0.02
    assert abs(row.se_gravity - 9181.54) / 9181.54 <= 0.02

    ctx = SimulationContext(fixtures.build_dataset(seed=3, n_origins=2, n_destinations=2))
    stocks = annual_stocks(ctx.stocks)
    flows = gravity_flows(ctx, 0.75, stocks).tolist()
    planted = []
    for month in range(0, 120, 3):
        year = month // 12
        for (origin, dest), annual in zip(ctx.corridors, flows):
            planted.append(FlowObservation(dest, origin, month, annual[year] / 12.0))
    fit = calibrate_gravity(panel_of(planted), ctx, stocks)
    assert abs(fit.beta_exp - 0.75) <= 0.01
    _report(f"gravity baseline fixture (recovered exponent = {fit.beta_exp:.4f})")


def test_criterion_activation_maximum():
    """The probability gain from a shock peaks at minus half the shock."""
    grid = np.arange(-10.0, 10.0 + 1e-9, 0.01)
    for delta in (0.1, 0.34, 1.0):
        gains = np.array([activation_capacity(t, delta) for t in grid])
        best = float(grid[gains.argmax()])
        assert abs(best - (-delta / 2.0)) <= 0.01
    _report("activation capacity maximized at minus half the shock")


def test_criterion_end_to_end_reproducibility(tmp_path: Path):
    """Two seeded simulate + counterfactual runs produce byte-identical CSVs."""
    data = tmp_path / "data"
    assert cli_main(["fixtures", "generate", "--data-dir", str(data), "--seed", "3",
                     "--origins", "3", "--destinations", "2"]) == 0
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    window = ["--start", "2012-01", "--end", "2012-12"]
    for out in (out_a, out_b):
        assert cli_main(["calibrate", "--data-dir", str(data), "--output-dir", str(out),
                         "--starts", "1", "--max-iter", "10", "--seed", "5"]) == 0
        for command in ("simulate", "counterfactual"):
            assert cli_main([command, "--data-dir", str(data), "--output-dir", str(out),
                             "--seed", "17", *window]) == 0
    produced = sorted(p.name for p in out_a.glob("*.csv"))
    assert "flows.csv" in produced and "induced.csv" in produced and "bands.csv" in produced
    for name in produced:
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name
    _report(f"end-to-end reproducibility over {len(produced)} CSV files")
