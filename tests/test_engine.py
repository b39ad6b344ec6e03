"""Equivalence of the vectorized engine with the per-cohort scalar path."""
from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import kernel_value
from remitsim import fixtures
from remitsim.behavior import REFERENCE_PARAMS
from remitsim.calibration import flow_jacobian
from remitsim.dataio import Dataset
from remitsim.engine import (SimulationContext, probability_profile, scenario_none,
                             scenario_only_event, scenario_only_hazard, scenario_without_hazard)
from remitsim.months import month_index, year_of
from remitsim.population import build_population

from conftest import brute_force_flow


def test_expected_flows_match_brute_force(desk_dataset, desk_ctx):
    flows = desk_ctx.expected_flows(REFERENCE_PARAMS)
    rng = np.random.default_rng(4)
    for _ in range(12):
        c = int(rng.integers(desk_ctx.n_corridors))
        m = int(rng.integers(120))
        origin, dest = desk_ctx.corridors[c]
        oracle = brute_force_flow(desk_dataset, REFERENCE_PARAMS, origin, dest, m)
        assert flows[c, m] == pytest.approx(oracle, rel=1e-9)


def test_expected_flows_match_brute_force_small(small_dataset):
    ctx = SimulationContext(small_dataset)
    flows = ctx.expected_flows(REFERENCE_PARAMS)
    for c, (origin, dest) in enumerate(ctx.corridors):
        for m in (0, 27, 30, 119):  # months 27..38 overlap the EV1 window
            oracle = brute_force_flow(small_dataset, REFERENCE_PARAMS, origin, dest, m)
            assert flows[c, m] == pytest.approx(oracle, rel=1e-9)


def test_flow_jacobian_matches_finite_differences(desk_ctx):
    params = dataclasses.replace(REFERENCE_PARAMS, alpha=0.1, beta0=0.9, shift=-0.5, rho=0.2)
    at = np.ix_(np.arange(desk_ctx.n_corridors), np.arange(0, 120, 3))
    jac = flow_jacobian(desk_ctx, params, at)
    assert jac.shape == (desk_ctx.n_corridors * 40, 9)
    logit = np.log(params.rho / (1.0 - params.rho))

    def flows(i, delta):
        if i < 8:
            name = dataclasses.fields(params)[i].name
            moved = dataclasses.replace(params, **{name: getattr(params, name) + delta})
        else:  # the last coordinate is logit(rho)
            moved = dataclasses.replace(params, rho=1.0 / (1.0 + np.exp(-(logit + delta))))
        return desk_ctx.expected_flows(moved, None, at).ravel()

    for i in range(9):
        value = logit if i == 8 else getattr(params, dataclasses.fields(params)[i].name)
        h = 1e-3 * (1.0 + abs(value))
        oracle = (-flows(i, 2 * h) + 8 * flows(i, h) - 8 * flows(i, -h) + flows(i, -2 * h)) / (12 * h)
        assert np.abs(jac[:, i]).max() > 0
        assert np.abs(jac[:, i] - oracle).max() <= 1e-7 * np.abs(jac[:, i]).max(), i


def test_clamped_delta_gdp_path(small_dataset):
    ctx = SimulationContext(small_dataset, clamp_delta_gdp=True)
    flows = ctx.expected_flows(REFERENCE_PARAMS)
    c = ctx.corridor_index("AAA", "BBB")
    oracle = brute_force_flow(small_dataset, REFERENCE_PARAMS, "AAA", "BBB", 50, clamp=True)
    assert flows[c, 50] == pytest.approx(oracle, rel=1e-9)
    unclamped = SimulationContext(small_dataset).expected_flows(REFERENCE_PARAMS)
    assert flows[c, 50] != unclamped[c, 50]


def test_probability_cube_consistency(desk_ctx, desk_dataset):
    cube = desk_ctx.probability_cube(REFERENCE_PARAMS)
    assert cube.shape == (desk_ctx.n_corridors, 120, 101)
    assert (cube[:, :, :16] == 0.0).all()  # no earnings surplus below 16
    assert cube.min() >= 0.0 and cube.max() <= 1.0
    # flows recomputed from the cube agree with expected_flows
    flows = desk_ctx.expected_flows(REFERENCE_PARAMS)
    c, m = 7, 63
    counts = desk_ctx.cohort_counts(c, m)
    total = float((counts * cube[c, m][None, :]).sum())
    expected = REFERENCE_PARAMS.rho * desk_ctx.monthly_income[c, m] * total
    assert flows[c, m] == pytest.approx(expected, rel=1e-12)


def test_disaster_scores_match_kernel_sum(desk_ctx, desk_dataset):
    params = REFERENCE_PARAMS
    scores = desk_ctx.disaster_scores(params)
    by_country = oracles.events_by_country(desk_dataset)
    for c, (origin, dest) in enumerate(desk_ctx.corridors):
        events = by_country.get(origin, ())
        for m in (24, 29, 35, 80, 100):
            expected = 0.0
            for e in events:
                pop = desk_dataset.population[(e.country, year_of(e.onset_month))]
                expected += kernel_value(min(e.affected / pop, 1.0), m - e.onset_month, params)
            assert scores[c, m] == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_event_filters(desk_ctx, desk_dataset):
    all_ids = frozenset(e.event_id for e in desk_dataset.disasters)
    full = desk_ctx.expected_flows(REFERENCE_PARAMS, None)
    explicit = desk_ctx.expected_flows(REFERENCE_PARAMS, all_ids)
    assert np.array_equal(full, explicit)

    floods = scenario_only_hazard(desk_dataset, "flood")
    others = scenario_without_hazard(desk_dataset, "flood")
    assert floods | others == all_ids and not floods & others

    with pytest.raises(KeyError):
        scenario_only_event(desk_dataset, "NOPE")


def test_no_event_filter_equals_eventless_dataset(desk_dataset):
    ctx = SimulationContext(desk_dataset)
    silenced = ctx.expected_flows(REFERENCE_PARAMS, scenario_none())
    bare = dataclasses.replace(desk_dataset, disasters=())
    bare_flows = SimulationContext(bare).expected_flows(REFERENCE_PARAMS)
    assert np.array_equal(silenced, bare_flows)


def test_monotone_response_to_positive_kernel(desk_dataset, desk_ctx):
    # peak-month kernel value is positive, so the event cannot reduce the flow
    event = desk_dataset.disasters[0]
    peak = event.onset_month + 4
    with_events = desk_ctx.expected_flows(REFERENCE_PARAMS)
    without = desk_ctx.expected_flows(REFERENCE_PARAMS, scenario_none())
    rows = desk_ctx.origin_groups[event.country]
    assert (with_events[rows, peak] >= without[rows, peak]).all()
    assert (with_events[rows, peak] > without[rows, peak]).any()


def test_window_restriction_reports_same_values(desk_dataset):
    full = SimulationContext(desk_dataset)
    narrow = SimulationContext(desk_dataset, start=month_index("2012-01"), end=month_index("2012-12"))
    f_full = full.expected_flows(REFERENCE_PARAMS)
    f_narrow = narrow.expected_flows(REFERENCE_PARAMS)
    assert np.array_equal(f_full[:, narrow.window], f_narrow[:, narrow.window])
    assert list(narrow.window_months) == list(range(24, 36))


def test_window_validation(desk_dataset):
    with pytest.raises(ValueError):
        SimulationContext(desk_dataset, start=10, end=5)
    with pytest.raises(ValueError):
        SimulationContext(desk_dataset, start=0, end=200)


def _points(*args, **kwargs) -> list[tuple[float, float]]:
    """probability_profile as (cumulative fraction, probability) pairs."""
    cum, probs = probability_profile(*args, **kwargs)
    return list(zip(cum.tolist(), probs.tolist()))


def test_probability_profile_pools_the_diaspora(desk_ctx):
    origin = desk_ctx.corridors[0][0]
    pooled = _points(desk_ctx, REFERENCE_PARAMS, origin, 60)
    rows = desk_ctx.origin_groups[origin]
    assert len(rows) > 1  # one point per cohort with people, over every destination
    assert len(pooled) == sum(np.count_nonzero(desk_ctx.cohort_counts(c, 60)) for c in rows)
    assert pooled[-1][0] == pytest.approx(1.0)
    probs = [p for _, p in pooled]
    assert probs == sorted(probs, reverse=True)


def test_probability_profile_matches_scalar_oracle(desk_ctx):
    cube = desk_ctx.probability_cube(REFERENCE_PARAMS)
    for origin in ("OGA", "OGJ"):
        rows = desk_ctx.origin_groups[origin]
        want = oracles.probability_profile(
            np.concatenate([desk_ctx.cohort_counts(c, 59).ravel() for c in rows]),
            np.concatenate([np.tile(cube[c, 59], 2) for c in rows]))
        got = _points(desk_ctx, REFERENCE_PARAMS, origin, 59, cube=cube)
        assert [p for _, p in got] == [p for _, p in want]
        assert [x for x, _ in got] == pytest.approx([x for x, _ in want], rel=1e-12)


def test_window_cube_matches_full_grid(desk_dataset, desk_ctx):
    ctx = SimulationContext(desk_dataset, start=57, end=62)
    cube = ctx.probability_cube(REFERENCE_PARAMS, None, (slice(None), ctx.window))
    assert cube.shape == (ctx.n_corridors, 6, 101)
    assert np.array_equal(cube, desk_ctx.probability_cube(REFERENCE_PARAMS)[:, 57:63])
    for origin in ("OGA", "OGJ"):
        assert (_points(ctx, REFERENCE_PARAMS, origin, 59, cube=cube)
                == _points(desk_ctx, REFERENCE_PARAMS, origin, 59))
    with pytest.raises(ValueError, match="outside the window"):
        probability_profile(ctx, REFERENCE_PARAMS, "OGA", 63, cube=cube)


def test_oracles_do_not_import_the_code_they_check():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    imported = [f"{node.module}.{alias.name}" if isinstance(node, ast.ImportFrom) else alias.name
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    checked = ("remitsim.engine", "remitsim.flows", "remitsim.scenarios")
    assert imported and not [name for name in imported if name.startswith(checked)]
