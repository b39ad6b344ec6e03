"""Covariates, the disaster kernel, the decision score and its logistic."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (NEVER_REMITS, CovariateVector, activation_capacity, disaster_score,
                     kernel_value, probability, probability_profile, theta)
from oracles import delta_gdp as oracle_delta_gdp
from remitsim.behavior import BehaviorParams, REFERENCE_PARAMS, delta_gdp, gdp_norm
from remitsim.dataio import DisasterEvent
from remitsim.engine import SimulationContext
from remitsim.months import year_of


def _cov(surplus=1.0, family=0.0, dgdp=0.0, gnorm=0.0, score=0.0):
    return CovariateVector(surplus=surplus, family=family, delta_gdp=dgdp,
                           gdp_norm=gnorm, disaster_score=score)


# ---------------------------------------------------------------------------
# delta_gdp

def test_delta_gdp_examples():
    assert delta_gdp(30000, 30000) == 0.0
    assert delta_gdp(50000, 10000) == 4.0
    assert delta_gdp(10000, 50000) == -4.0


def test_delta_gdp_clamp_flag():
    assert delta_gdp(50000, 10000, clamp=True) == 1.0
    assert delta_gdp(10000, 50000, clamp=True) == -1.0
    assert delta_gdp(12000, 10000, clamp=True) == pytest.approx(0.2)


def test_delta_gdp_domain_error():
    with pytest.raises(ValueError):
        delta_gdp(0.0, 10000)
    with pytest.raises(ValueError):
        delta_gdp(10000, -1.0)


@settings(max_examples=100, deadline=None)
@given(a=st.floats(min_value=1e-3, max_value=1e9), b=st.floats(min_value=1e-3, max_value=1e9))
def test_delta_gdp_antisymmetric(a, b):
    assert delta_gdp(a, b) == pytest.approx(-delta_gdp(b, a), rel=1e-12, abs=1e-15)


GDP = st.floats(min_value=1e-150, max_value=1e150) | st.sampled_from((1.0, 2.0, 30000.0))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(GDP, GDP), min_size=1, max_size=12), st.booleans())
def test_delta_gdp_arrays_equal_the_scalar_oracle(pairs, clamp):
    dest, origin = np.array(pairs).T
    got = delta_gdp(dest, origin, clamp=clamp)
    want = np.array([oracle_delta_gdp(d, o, clamp=clamp) for d, o in pairs])
    assert got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_delta_gdp_names_the_first_nonpositive_pair():
    with pytest.raises(ValueError, match=r"got \(0\.0, 5\.0\)"):
        delta_gdp(np.array([1.0, 0.0, -1.0]), np.array([2.0, 5.0, 6.0]))


# ---------------------------------------------------------------------------
# gdp_norm

def test_gdp_norm_endpoints_and_midpoint():
    out = gdp_norm([1000.0, 3000.0, 5000.0])
    assert out[0] == 0.0
    assert out[2] == 1.0
    assert out[1] == pytest.approx(0.5)


def test_gdp_norm_degenerate_warns(caplog):
    with caplog.at_level("WARNING"):
        out = gdp_norm([7.0, 7.0, 7.0])
    assert (out == 0.0).all()
    assert any("identical" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# Disaster kernel

def test_kernel_frozen_values():
    # m=0.10, offset 4 is the peak month; offset 10 is in the negative tail
    assert kernel_value(0.10, 4, REFERENCE_PARAMS) == pytest.approx(0.0339990, abs=5e-7)
    assert kernel_value(0.10, 10, REFERENCE_PARAMS) == pytest.approx(-0.0039990, abs=5e-7)
    # direct evaluation of the printed form
    expected = 0.10 * (0.15 + 0.19 * math.sin(math.pi / 6 * (4 - 0.98)))
    assert kernel_value(0.10, 4, REFERENCE_PARAMS) == pytest.approx(expected, rel=1e-12)


def test_kernel_shape_with_reference_params():
    values = [kernel_value(1.0, k, REFERENCE_PARAMS) for k in range(12)]
    assert all(v > 0 for v in values[:9])
    assert all(v < 0 for v in values[9:])
    assert int(np.argmax(values)) in (3, 4, 5)
    assert kernel_value(1.0, -1, REFERENCE_PARAMS) == 0.0
    assert kernel_value(1.0, 12, REFERENCE_PARAMS) == 0.0


def _event(event_id="E", country="AAA", onset=24, hazard="flood", affected=100000.0):
    return DisasterEvent(event_id, country, onset, hazard, affected)


def test_disaster_score_empty_window():
    assert disaster_score([], month=10, population=1e6, params=REFERENCE_PARAMS) == 0.0
    ev = _event(onset=0)
    assert disaster_score([ev], month=12, population=1e6, params=REFERENCE_PARAMS) == 0.0
    assert disaster_score([ev], month=50, population=1e6, params=REFERENCE_PARAMS) == 0.0


def test_disaster_score_additive():
    e1 = _event("E1", onset=20)
    e2 = _event("E2", onset=24, hazard="storm", affected=50000.0)
    month = 26
    single1 = disaster_score([e1], month, 1e6, REFERENCE_PARAMS)
    single2 = disaster_score([e2], month, 1e6, REFERENCE_PARAMS)
    joint = disaster_score([e1, e2], month, 1e6, REFERENCE_PARAMS)
    assert joint == pytest.approx(single1 + single2, rel=1e-12)


def test_disaster_magnitude_clamped_with_warning(caplog, desk_dataset):
    ev = _event(affected=5e6)  # five times the population
    with caplog.at_level("WARNING"):
        score = disaster_score([ev], month=28, population=1e6, params=REFERENCE_PARAMS)
    assert score == pytest.approx(kernel_value(1.0, 4, REFERENCE_PARAMS), rel=1e-12)
    assert any("clamped" in r.message for r in caplog.records)

    # a context warns once, with the count and the first event ids
    events = tuple(e._replace(affected=3 * desk_dataset.population[(e.country,
                                                                    year_of(e.onset_month))])
                   for e in desk_dataset.disasters)
    caplog.clear()
    with caplog.at_level("WARNING"):
        ctx = SimulationContext(dataclasses.replace(desk_dataset, disasters=events))
    clamped = [r.getMessage() for r in caplog.records if "clamped" in r.getMessage()]
    assert len(events) == 8 and len(clamped) == 1
    assert clamped[0].startswith(f"8 event(s) affect more than their country's population, "
                                 f"e.g. {[e.event_id for e in events[:3]]}")
    assert [m for *_, m in ctx._events] == [1.0] * 8


def test_disaster_score_population_error():
    with pytest.raises(ValueError):
        disaster_score([], month=0, population=0.0, params=REFERENCE_PARAMS)


# ---------------------------------------------------------------------------
# Score and probability

def test_surplus_gate_and_sentinel():
    gated = theta(_cov(surplus=0.0, score=1000.0), REFERENCE_PARAMS)
    assert gated == NEVER_REMITS
    assert probability(gated) == 0.0
    assert theta(_cov(surplus=-0.5), REFERENCE_PARAMS) == NEVER_REMITS


def test_theta_unit_fixture():
    cov = _cov(surplus=1.2, family=0.3, dgdp=0.8, gnorm=0.1)
    score = theta(cov, REFERENCE_PARAMS)
    assert score == pytest.approx(1.818, abs=1e-3)
    assert probability(score) == pytest.approx(0.860, abs=1e-3)


def test_theta_constant_term():
    # vanishing surplus keeps the gate open while the linear terms drop out
    score = theta(_cov(surplus=1e-12), REFERENCE_PARAMS)
    assert score == pytest.approx(REFERENCE_PARAMS.alpha, abs=1e-9)


def test_probability_midpoint_and_monotone():
    assert probability(0.0) == 0.5
    grid = np.linspace(-20, 20, 401)
    values = [probability(t) for t in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_logistic_gradient_matches_finite_differences():
    h = 1e-6
    for t in np.arange(-10, 10.0001, 0.25):
        fd = (probability(t + h) - probability(t - h)) / (2 * h)
        analytic = probability(t) * (1 - probability(t))
        assert fd == pytest.approx(analytic, abs=1e-6)


def test_monotonic_in_covariates():
    # finite-difference sign checks under the reference coefficients
    base = _cov(surplus=1.0, family=0.5, dgdp=0.5, gnorm=0.5)
    p0 = probability(theta(base, REFERENCE_PARAMS))
    eps = 1e-4
    up_surplus = probability(theta(_cov(1.0 + eps, 0.5, 0.5, 0.5), REFERENCE_PARAMS))
    up_family = probability(theta(_cov(1.0, 0.5 + eps, 0.5, 0.5), REFERENCE_PARAMS))
    up_dgdp = probability(theta(_cov(1.0, 0.5, 0.5 + eps, 0.5), REFERENCE_PARAMS))
    up_gnorm = probability(theta(_cov(1.0, 0.5, 0.5, 0.5 + eps), REFERENCE_PARAMS))
    assert up_surplus > p0   # beta0 > 0
    assert up_family < p0    # beta1 < 0
    assert up_dgdp > p0      # beta2 > 0
    assert up_gnorm < p0     # beta3 < 0


def test_params_validation():
    with pytest.raises(ValueError):
        BehaviorParams(0, 0, 0, 0, 0, 0, 0, 0, rho=0.0)
    with pytest.raises(ValueError):
        BehaviorParams(0, 0, 0, 0, 0, 0, 0, 0, rho=1.0)
    with pytest.raises(ValueError):
        BehaviorParams(math.nan, 0, 0, 0, 0, 0, 0, 0, rho=0.5)


# ---------------------------------------------------------------------------
# Profiles and activation capacity

def test_profile_single_cohort():
    assert probability_profile([100.0], [0.7]) == [(1.0, 0.7)]


def test_profile_two_step():
    points = probability_profile([50.0, 50.0], [0.1, 0.9])
    assert points == [(0.5, 0.9), (1.0, 0.1)]


def test_profile_empty():
    assert probability_profile([], []) == []
    assert probability_profile([0.0, 0.0], [0.5, 0.6]) == []


def test_profile_sort_oracle():
    rng = np.random.default_rng(3)
    counts = rng.uniform(1, 100, size=40)
    probs = rng.uniform(0, 1, size=40)
    points = probability_profile(counts, probs)
    assert [p for _, p in points] == sorted(probs, reverse=True)
    assert points[-1][0] == pytest.approx(1.0)
    xs = [x for x, _ in points]
    assert all(b > a for a, b in zip(xs, xs[1:]))


def test_activation_null_shock():
    for t in (-5.0, 0.0, 5.0):
        assert activation_capacity(t, 0.0) == 0.0


def test_activation_maximum_at_half_delta():
    for delta in (0.1, 0.34, 1.0):
        grid = np.arange(-10, 10.0001, 0.01)
        gains = np.array([activation_capacity(t, delta) for t in grid])
        best = grid[gains.argmax()]
        assert best == pytest.approx(-delta / 2, abs=0.01)


def test_saturated_diaspora_barely_activates():
    assert activation_capacity(8.0, 0.5) < 0.005


def test_activation_negative_delta_rejected():
    with pytest.raises(ValueError):
        activation_capacity(0.0, -0.1)
