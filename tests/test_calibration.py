"""Panel splitting, the squared-error loss, the optimizer, and bootstrap CIs."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import aligned_halves, panel_of
from oracles import kernel_value
from remitsim import fixtures
from remitsim.behavior import PARAM_NAMES, REFERENCE_PARAMS, BehaviorParams
from remitsim.calibration import (CalibrationConfig, CalibrationError, DEFAULT_INIT, align_panel,
                                  calibrate, flow_jacobian, loss, minimize_lm, pack,
                                  param_confidence, split_panel, unpack, _canonical_kernel, _fit,
                                  _residuals, _sse)
from remitsim.dataio import FlowObservation
from remitsim.engine import SimulationContext


# ---------------------------------------------------------------------------
# Splitting

def _obs(i, amount=1.0):
    return FlowObservation(sender="BBB", recipient="AAA", month=i, amount_usd=amount)


def test_split_80_20_on_ten():
    train, test = split_panel(panel_of(_obs(i) for i in range(10)), 0.8, seed=0)
    assert len(train) == 8
    assert len(test) == 2


def test_split_half_on_thousand():
    panel = [_obs(i) for i in range(120)] + [
        FlowObservation("CCC", "AAA", i, 1.0) for i in range(120)]
    panel = panel * 5  # not unique, but split_panel only assigns
    train, test = split_panel(panel_of(panel[:1000]), 0.5, seed=3)
    assert len(train) == len(test) == 500


def test_split_deterministic_and_partition():
    panel = panel_of(_obs(i) for i in range(57))
    a = split_panel(panel, 0.8, seed=11)
    b = split_panel(panel, 0.8, seed=11)
    assert a == b
    c = split_panel(panel, 0.8, seed=12)
    assert a != c
    # train and test partition the panel, each half in panel order
    train, test = a
    assert sorted(train.month.tolist() + test.month.tolist()) == list(range(57))
    assert all((np.diff(half.month) > 0).all() for half in a)


def test_split_validation():
    with pytest.raises(ValueError):
        split_panel(panel_of([]), 0.8, seed=0)
    with pytest.raises(ValueError):
        split_panel(panel_of([_obs(0)]), 1.0, seed=0)


# ---------------------------------------------------------------------------
# Loss

def test_loss_zero_at_generating_params(small_dataset):
    ctx = SimulationContext(small_dataset)
    panel = fixtures.generate_panel(small_dataset, REFERENCE_PARAMS)
    value = loss(REFERENCE_PARAMS, panel, ctx)
    scale = sum(o.amount_usd**2 for o in panel)
    assert value <= 1e-12 * scale


def test_loss_single_observation_gap(small_dataset):
    # a 0.97e9 USD residual contributes (0.97e9)^2 = 0.9409e18 USD^2
    ctx = SimulationContext(small_dataset)
    sim = ctx.expected_flows(REFERENCE_PARAMS)
    c = ctx.corridor_index("AAA", "BBB")
    obs = FlowObservation("BBB", "AAA", 14, sim[c, 14] + 0.97e9)
    value = loss(REFERENCE_PARAMS, panel_of([obs]), ctx)
    assert value == pytest.approx(0.9409e18, rel=1e-9)


def test_loss_quadratic_scaling(small_dataset):
    ctx = SimulationContext(small_dataset)
    sim = ctx.expected_flows(REFERENCE_PARAMS)
    c = ctx.corridor_index("AAA", "CCC")
    single = panel_of([FlowObservation("CCC", "AAA", 5, sim[c, 5] + 1e6)])
    double = panel_of([FlowObservation("CCC", "AAA", 5, sim[c, 5] + 2e6)])
    assert loss(REFERENCE_PARAMS, double, ctx) == pytest.approx(
        4 * loss(REFERENCE_PARAMS, single, ctx), rel=1e-12)


def test_loss_excludes_unmodeled_corridors(small_dataset, caplog):
    ctx = SimulationContext(small_dataset)
    panel = [FlowObservation("YYY", "ZZZ", 3, 100.0),
             FlowObservation("BBB", "AAA", 3, 100.0)]
    with caplog.at_level("WARNING"):
        aligned = align_panel(panel_of(panel), ctx)
    assert aligned.n_excluded == 1
    assert aligned.amounts.size == 1
    assert any("excluded" in r.message and "('ZZZ', 'YYY')" in r.getMessage()
               for r in caplog.records)

    # a modeled corridor observed outside the window is warned about on its own
    caplog.clear()
    with caplog.at_level("WARNING"):
        aligned = align_panel(panel_of(panel + [FlowObservation("BBB", "AAA", 40, 100.0)]),
                              SimulationContext(small_dataset, start=0, end=11))
    assert aligned.n_excluded == 2
    messages = " | ".join(r.getMessage() for r in caplog.records)
    assert "excluded 1 panel observation(s) without modeled population" in messages
    assert "excluded 1 panel observation(s) outside the window 2010-01..2010-12" in messages


# ---------------------------------------------------------------------------
# Optimizer

def _noisy_small_fit(noise=0.05):
    """The 3 x 2 fixture with a noisy panel, aligned, and a mid-range point."""
    dataset = fixtures.build_dataset(seed=3, n_origins=3, n_destinations=2)
    ctx = SimulationContext(dataset)
    panel = fixtures.generate_panel(dataset, REFERENCE_PARAMS, noise=noise,
                                    rng=np.random.default_rng(5))
    aligned = align_panel(panel, ctx)
    x = pack(BehaviorParams(0.1, 0.9, -4.0, 2.5, -3.0, 0.12, 0.2, -0.5, 0.2))
    return ctx, aligned, x


def _lm_functions(ctx, aligned):
    residual = lambda x: _residuals(ctx, aligned, unpack(x))
    jacobian = lambda x: flow_jacobian(ctx, unpack(x), (aligned.corridor_idx, aligned.month_idx))
    return residual, jacobian


def test_gradient_matches_higher_order_oracle():
    # mid-range probabilities keep every coordinate's gradient well above
    # the float resolution of the loss
    ctx, aligned, x = _noisy_small_fit()
    f = lambda x: _sse(ctx, aligned, unpack(x))
    residual, jacobian = _lm_functions(ctx, aligned)
    g = 2.0 * jacobian(x).T @ residual(x)

    def five_point(i):
        h = 1e-4 * (1.0 + abs(x[i]))
        xs = [x.copy() for _ in range(4)]
        xs[0][i] += 2 * h
        xs[1][i] += h
        xs[2][i] -= h
        xs[3][i] -= 2 * h
        return (-f(xs[0]) + 8 * f(xs[1]) - 8 * f(xs[2]) + f(xs[3])) / (12 * h)

    for i in range(len(x)):
        oracle = five_point(i)
        assert g[i] == pytest.approx(oracle, rel=1e-4)


@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_lm_matches_scipy_least_squares(noise):
    from scipy.optimize import least_squares

    ctx, aligned, x0 = _noisy_small_fit(noise)
    residual, jacobian = _lm_functions(ctx, aligned)
    res = minimize_lm(residual, jacobian, x0, max_iter=200, tol=1e-15)
    # the oracle differentiates by finite differences, not through flow_jacobian
    oracle = least_squares(residual, x0, method="lm", x_scale="jac",
                           ftol=1e-15, xtol=1e-15, gtol=1e-15)
    assert res.converged
    if noise == 0.0:
        assert np.allclose(res.x, oracle.x, rtol=1e-9, atol=1e-12)
    else:
        # scipy's cost is half the SSE; at the noisy optimum the loss is flat to
        # rounding along a direction that moves alpha and shift by ~1e-5
        assert res.fx <= 2.0 * oracle.cost * (1.0 + 1e-14)
        assert np.allclose(res.x, oracle.x, rtol=1e-3)


def test_minimize_monotone_and_converges_on_quadratic():
    target = np.array([1.0, -2.0, 3.0])
    residual = lambda x: (x - target) * 1e3
    jacobian = lambda x: np.eye(3) * 1e3
    res = minimize_lm(residual, jacobian, np.zeros(3), max_iter=200, tol=1e-14)
    assert res.converged
    assert np.allclose(res.x, target, atol=1e-5)
    assert all(b <= a for a, b in zip(res.history, res.history[1:]))


def test_minimize_zero_iterations_echoes_start():
    res = minimize_lm(lambda x: x, lambda x: np.eye(1), np.array([3.0]), max_iter=0, tol=1e-9)
    assert res.iterations == 0
    assert not res.converged
    assert res.x[0] == 3.0


def test_minimize_rejects_nonfinite_start():
    residual = lambda x: np.full(2, np.inf)
    with pytest.raises(FloatingPointError):
        minimize_lm(residual, lambda x: np.eye(2), np.zeros(2), max_iter=10, tol=1e-9)


def _desk_train(desk_ctx, desk_dataset):
    return align_panel(split_panel(desk_dataset.panel, 0.8, seed=11)[0], desk_ctx)


def test_stop_reason_max_iter(desk_ctx, desk_dataset):
    res = _fit(desk_ctx, _desk_train(desk_ctx, desk_dataset), pack(DEFAULT_INIT), 1, 1e-9)
    assert res.iterations == 1
    assert res.stop_reason == "max_iter"
    assert not res.converged


def test_sign_flipped_jacobian_does_not_converge(desk_ctx, desk_dataset):
    residual, jacobian = _lm_functions(desk_ctx, _desk_train(desk_ctx, desk_dataset))
    res = minimize_lm(residual, lambda x: -jacobian(x), pack(DEFAULT_INIT), max_iter=50,
                      tol=1e-9)
    assert res.stop_reason == "no_decrease"
    assert not res.converged
    assert res.history == [res.fx]  # every step went uphill and was rejected


def test_canonical_kernel_keeps_the_kernel():
    for shape, shift in ((-0.19, 41.02), (0.19, -24.98), (-0.19, 5.02), (0.19, -0.98), (0.0, 6.0)):
        params = dataclasses.replace(REFERENCE_PARAMS, shape=shape, shift=shift)
        canonical = _canonical_kernel(params)
        assert canonical.shape >= 0.0 and -6.0 <= canonical.shift < 6.0
        for k in range(12):
            assert kernel_value(1.0, k, canonical) == pytest.approx(kernel_value(1.0, k, params),
                                                                    abs=1e-12)
    assert _canonical_kernel(REFERENCE_PARAMS) is REFERENCE_PARAMS


# split seed 1 lands on (shape, shift) = (-0.19, 41.02) before the kernel is made canonical
@pytest.mark.parametrize("split_seed", [11, 1])
def test_noiseless_desk_converges(desk_ctx, desk_dataset, split_seed):
    train, test = aligned_halves(desk_dataset.panel, desk_ctx, 0.8, seed=split_seed)
    result = calibrate(desk_ctx, train, test, CalibrationConfig(starts=1, max_iter=300, tol=1e-9))
    assert result.converged
    assert result.stop_reason in ("ftol", "no_decrease")
    assert result.iterations < 300
    assert result.jacobian_evals >= result.iterations
    assert result.loss_evals >= len(result.loss_history)
    for name in PARAM_NAMES:
        assert getattr(result.params, name) == pytest.approx(getattr(REFERENCE_PARAMS, name),
                                                             rel=1e-9, abs=1e-12)
    assert all(b < a for a, b in zip(result.loss_history, result.loss_history[1:]))


def test_calibrate_requires_split(small_dataset):
    # an empty train half has nothing to fit
    ctx = SimulationContext(small_dataset)
    panel = fixtures.generate_panel(small_dataset, REFERENCE_PARAMS)
    with pytest.raises(CalibrationError, match="train"):
        calibrate(ctx, align_panel(panel[:0], ctx), align_panel(panel, ctx),
                  CalibrationConfig(starts=1, max_iter=1))


def test_calibrate_fails_without_modeled_corridors(small_dataset):
    ctx = SimulationContext(small_dataset)
    halves = aligned_halves(panel_of(FlowObservation("YYY", "ZZZ", m, 10.0) for m in range(10)),
                            ctx, 0.8, 0)
    with pytest.raises(CalibrationError, match="modeled"):
        calibrate(ctx, *halves, CalibrationConfig(starts=1, max_iter=1))


def test_recovery_smoke_from_perturbed_start():
    dataset = fixtures.build_dataset(seed=3, n_origins=3, n_destinations=2)
    ctx = SimulationContext(dataset)
    halves = aligned_halves(dataset.panel, ctx, 0.8, seed=2)
    start = BehaviorParams(alpha=0.05, beta0=0.9, beta1=-5.2, beta2=2.4, beta3=-4.1,
                           height=0.12, shape=0.23, shift=-0.7, rho=0.15)
    config = CalibrationConfig(starts=1, max_iter=250, tol=1e-13, init=start)
    result = calibrate(ctx, *halves, config)
    assert result.test_r2 > 0.999
    for name in ("beta0", "beta1", "beta2", "beta3"):
        true = getattr(REFERENCE_PARAMS, name)
        assert getattr(result.params, name) == pytest.approx(true, rel=0.05)
    assert result.params.rho == pytest.approx(REFERENCE_PARAMS.rho, rel=0.02)
    assert all(b <= a for a, b in zip(result.loss_history, result.loss_history[1:]))


def test_multistart_picks_best(small_dataset):
    ctx = SimulationContext(small_dataset)
    halves = aligned_halves(fixtures.generate_panel(small_dataset, REFERENCE_PARAMS), ctx, 0.8, 1)
    config = CalibrationConfig(starts=3, max_iter=8, tol=1e-12, seed=4)
    result = calibrate(ctx, *halves, config)
    assert len(result.start_losses) == 3
    assert result.train_sse == min(result.start_losses)


# ---------------------------------------------------------------------------
# Bootstrap confidence intervals

def test_zero_noise_bootstrap_collapses(small_dataset):
    ctx = SimulationContext(small_dataset)
    train, test = aligned_halves(fixtures.generate_panel(small_dataset, REFERENCE_PARAMS), ctx,
                                 0.8, seed=5)
    config = CalibrationConfig(starts=1, max_iter=5, tol=1e-9, init=REFERENCE_PARAMS)
    result = calibrate(ctx, train, test, config)
    cis = param_confidence(result, train, ctx, replicates=12, seed=6, max_iter=5)
    for name in PARAM_NAMES:
        lo, hi = cis[name]
        point = getattr(result.params, name)
        assert lo <= point <= hi
        assert hi - lo <= 1e-9 * max(1.0, abs(point))


def test_bootstrap_interval_ordering_under_noise(small_dataset):
    ctx = SimulationContext(small_dataset)
    panel = fixtures.generate_panel(small_dataset, REFERENCE_PARAMS, noise=0.05,
                                    rng=np.random.default_rng(8))
    train, test = aligned_halves(panel, ctx, 0.8, seed=5)
    result = calibrate(ctx, train, test, CalibrationConfig(starts=1, max_iter=30, tol=1e-12,
                                                           init=REFERENCE_PARAMS))
    cis = param_confidence(result, train, ctx, replicates=15, seed=7, max_iter=15)
    assert set(cis) == set(PARAM_NAMES)
    for name in PARAM_NAMES:
        lo, hi = cis[name]
        assert lo <= getattr(result.params, name) <= hi


def test_bootstrap_coverage_experiment():
    """50 meta-trials on 2% multiplicative noise.

    Each trial re-runs the iteration-capped calibration from the generating
    parameters and bootstraps that same procedure (replicate_start), so the
    replicate spread mirrors the estimator's sampling spread. The frozen
    configuration was validated to give 0.913 mean coverage; the intervals
    stay non-degenerate.
    """
    dataset = fixtures.build_dataset(seed=12, n_origins=5, n_destinations=2)
    ctx = SimulationContext(dataset)
    true = REFERENCE_PARAMS
    trials = 50
    covered = np.zeros(len(PARAM_NAMES))
    beta0_widths = []
    for t in range(trials):
        rng = np.random.default_rng((1000, t))
        panel = fixtures.generate_panel(dataset, true, noise=0.02, rng=rng)
        panel = panel[(panel.month < 36) & (panel.month % 3 == 0)]
        train, test = aligned_halves(panel, ctx, 0.8, seed=t)
        config = CalibrationConfig(starts=1, max_iter=20, tol=1e-12, seed=t, init=true)
        result = calibrate(ctx, train, test, config)
        cis = param_confidence(result, train, ctx, replicates=29, seed=t, max_iter=20,
                               tol=1e-12, replicate_start=true)
        for i, name in enumerate(PARAM_NAMES):
            lo, hi = cis[name]
            covered[i] += (lo <= getattr(true, name) <= hi)
            if name == "beta0":
                beta0_widths.append(hi - lo)
    mean_coverage = covered.mean() / trials
    assert mean_coverage >= 0.90
    assert np.median(beta0_widths) > 0.02  # intervals genuinely move
