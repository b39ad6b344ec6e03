"""Fitting the behavioural parameters to an observed panel.

The objective is the summed squared error between expected-value flows and
train observations. Minimization is Levenberg-Marquardt over the analytic
Jacobian of the flows (:func:`flow_jacobian`), with Marquardt's
diagonal scaling; only steps that lower the loss are accepted, so the loss
history is strictly decreasing. The remitted-fraction parameter is optimized
through a logit reparameterization so it stays inside (0, 1). Uncertainty
comes from a nonparametric bootstrap over train observations.
"""
from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .behavior import DISASTER_WINDOW, BehaviorParams, CalibrationError, PARAM_NAMES
from .dataio import Panel
from .engine import SimulationContext, _row_sums, _unbuffered
from .months import month_label
from .reports import percentiles, sequential_sum

log = logging.getLogger(__name__)

DEFAULT_INIT = BehaviorParams(alpha=0.0, beta0=0.0, beta1=0.0, beta2=0.0, beta3=0.0,
                              height=0.1, shape=0.1, shift=0.0, rho=0.1)


class CalibrationConfig(NamedTuple):
    starts: int = 8
    max_iter: int = 500
    tol: float = 1e-9  # relative loss-change convergence threshold
    seed: int = 0
    init: BehaviorParams = DEFAULT_INIT


@dataclass
class CalibrationResult:
    params: BehaviorParams
    train_sse: float
    test_r2: float | None
    param_cis: dict[str, tuple[float, float]] | None
    iterations: int
    converged: bool
    stop_reason: str  # "ftol", "max_iter" or "no_decrease"; see minimize_lm
    loss_evals: int
    jacobian_evals: int
    grad_norm: float  # norm of the loss gradient at the estimate
    loss_history: list[float]
    n_train: int
    n_test: int
    n_excluded: int
    start_losses: list[float]


class PanelSlice(NamedTuple):
    """Panel observations aligned to (corridor, month) indices of a context.

    ``(corridor_idx, month_idx)`` indexes the context's grid at the
    observations' cells, one per observation and repeats allowed; the loss
    evaluates the model at those cells only.
    """

    corridor_idx: np.ndarray
    month_idx: np.ndarray
    amounts: np.ndarray
    n_excluded: int


def split_panel(panel: Panel, fraction: float = 0.8, seed: int = 0) -> tuple[Panel, Panel]:
    """The (train, test) halves of the panel by uniform random assignment,
    each in panel order.

    The train share is round(n * fraction), so proportions are within one
    observation of the requested fraction. Deterministic per seed.
    """
    if not panel:
        raise ValueError("panel is empty")
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    n = len(panel)
    train = np.zeros(n, dtype=bool)
    train[np.random.default_rng(seed).permutation(n)[:int(round(n * fraction))]] = True
    return panel[train], panel[~train]


def align_panel(panel: Panel, ctx: SimulationContext) -> PanelSlice:
    """Map observations onto context indices.

    Observations of unmodeled corridors and observations outside the
    context window are excluded; each kind is warned about with its count,
    and ``n_excluded`` counts both.
    """
    corridor = panel.corridor_index(ctx.corridors)
    unmodeled = np.flatnonzero(corridor < 0)
    in_window = (corridor >= 0) & (panel.month >= ctx.start) & (panel.month <= ctx.end)
    out_of_window = len(panel) - len(unmodeled) - int(np.count_nonzero(in_window))

    if len(unmodeled):
        # the distinct (origin, destination) code pairs in panel order
        corridors = list(dict.fromkeys(zip(panel.recipient[unmodeled].tolist(),
                                           panel.sender[unmodeled].tolist())))
        sample = [(panel.codes[origin], panel.codes[dest]) for origin, dest in corridors[:3]]
        log.warning("excluded %d panel observation(s) without modeled population in %d "
                    "corridor(s), e.g. %s", len(unmodeled), len(corridors), sample)
    if out_of_window:
        log.warning("excluded %d panel observation(s) outside the window %s..%s",
                    out_of_window, month_label(ctx.start), month_label(ctx.end))
    return PanelSlice(corridor[in_window], panel.month[in_window], panel.amount_usd[in_window],
                      len(unmodeled) + out_of_window)


def loss(params: BehaviorParams, panel: Panel, ctx: SimulationContext) -> float:
    """Sum of squared differences, simulated minus observed, in USD^2."""
    aligned = align_panel(panel, ctx)
    return _sse(ctx, aligned, params)


def _residuals(ctx: SimulationContext, aligned: PanelSlice, params: BehaviorParams) -> np.ndarray:
    at = aligned.corridor_idx, aligned.month_idx
    return ctx.expected_flows(params, None, at) - aligned.amounts


def _sse(ctx: SimulationContext, aligned: PanelSlice, params: BehaviorParams) -> float:
    resid = _residuals(ctx, aligned, params)
    return sequential_sum(resid * resid)


@_unbuffered
def flow_jacobian(ctx: SimulationContext, params: BehaviorParams, at) -> np.ndarray:
    """Derivatives of the expected flows at the cells ``at`` of the context's
    grid, any numpy index of it, as :meth:`SimulationContext.expected_flows`
    takes.

    Shape (cells, 9), the cells in the order of the grid's ``[at]`` flattened,
    one column per parameter in ``PARAM_NAMES`` order,
    except that the last is taken with respect to logit(rho); all events
    are active. Per cell, with sigma the logistic of a cohort of count n·w,
    S1 = sum n·w·sigma, S2 = sum n·w·sigma·(1 - sigma) and
    S3 = sum n·w·sigma·(1 - sigma)·surplus; the flow is rho·income·S1, and
    each score coefficient enters through rho·income·S2 times its covariate.
    The sums over ages and onset offsets add in the engine's fixed order.
    """
    base = ctx._base_scores(params, None, at).ravel()
    stocks = ctx.stocks[at].reshape(-1, 2)
    sums = np.zeros((3, base.size))  # S1, S2, S3
    for pos, active, surplus, blocks in ctx._group_probabilities(params, base, at):
        w_m, w_f = ctx.shares[:, active]
        weights = np.stack([w_m, w_f, w_m * surplus, w_f * surplus])
        n_m, n_f = stocks[pos].T
        group = np.empty((3, 2, len(pos)))  # per sum, per sex
        for cells, prob in blocks:
            group[0, :, cells] = _row_sums(prob, weights[:2])
            group[1:, :, cells] = _row_sums(prob * (1.0 - prob), weights).reshape(2, 2, -1)
        sums[:, pos] = group[:, 0] * n_m + group[:, 1] * n_f

    # per cell: summed magnitudes, and the kernel's sin and d(sin)/d(shift) terms
    phase = np.pi / 6.0 * (np.arange(DISASTER_WINDOW) + params.shift)
    terms = np.stack([np.ones(DISASTER_WINDOW), np.sin(phase), np.pi / 6.0 * np.cos(phase)])
    columns, by_term = ctx.event_sums(terms, None, at)
    ev = by_term[:, np.ravel(columns)]

    s1, s2, s3 = sums
    scale = params.rho * np.ravel(ctx.monthly_income[at])
    d_score = scale * s2  # derivative of the flow with respect to the score
    jac = np.empty((base.size, 9))
    jac[:, 0] = d_score
    jac[:, 1] = scale * s3
    jac[:, 2] = d_score * np.ravel(ctx.family[at])
    jac[:, 3] = d_score * np.ravel(ctx.delta_gdp[at])
    jac[:, 4] = d_score * np.ravel(ctx.gdp_norm[at])
    jac[:, 5] = d_score * ev[0]
    jac[:, 6] = d_score * ev[1]
    jac[:, 7] = d_score * params.shape * ev[2]
    jac[:, 8] = scale * s1 * (1.0 - params.rho)
    return jac


# ---------------------------------------------------------------------------
# Parameter vector packing (rho via logit)

def pack(params: BehaviorParams) -> np.ndarray:
    values = [getattr(params, name) for name in PARAM_NAMES[:-1]]
    values.append(math.log(params.rho / (1.0 - params.rho)))
    return np.array(values)


def unpack(x: np.ndarray) -> BehaviorParams:
    rho = 1.0 / (1.0 + math.exp(-x[-1]))
    # keep rho strictly inside (0, 1) under extreme optimizer excursions
    rho = min(max(rho, 1e-12), 1.0 - 1e-12)
    return BehaviorParams(*x[:-1], rho=rho)


class MinimizeResult(NamedTuple):
    x: np.ndarray
    fx: float
    iterations: int
    converged: bool
    history: list[float]
    stop_reason: str
    loss_evals: int
    jacobian_evals: int
    grad_norm: float


_LAMBDA_MIN, _LAMBDA_MAX = 1e-12, 1e20
# Steps this small are rounding: at the rounding floor of the noiseless desk
# fixture the Gauss-Newton step moves each coordinate by at most ~7 ulps.
_ROUNDING = 64.0 * np.finfo(float).eps


def _negligible(step: np.ndarray, x: np.ndarray) -> bool:
    """True if ``step`` moves no coordinate of ``x`` by more than rounding."""
    return bool(np.all(np.abs(step) <= _ROUNDING * (1.0 + np.abs(x))))


def minimize_lm(residual: Callable[[np.ndarray], np.ndarray],
                jacobian: Callable[[np.ndarray], np.ndarray], x0: np.ndarray, *,
                max_iter: int, tol: float) -> MinimizeResult:
    """Levenberg-Marquardt on the loss ``r @ r`` with ``r = residual(x)``.

    Each iteration evaluates ``J = jacobian(x)`` once and solves
    ``(J'J + lambda * diag(J'J)) step = -J'r`` (Marquardt's scaling). A step
    is accepted only if it lowers the loss, after which lambda falls tenfold;
    a rejected step raises it tenfold and is retried. The stop reason is

    - ``ftol``: an accepted step lowered the loss by at most ``tol`` relative;
    - ``no_decrease``: lambda grew until the step no longer moved x, and no
      step lowered the loss;
    - ``max_iter``: ``max_iter`` iterations ran without either of the above.

    ``converged`` is true for ``ftol``. For ``no_decrease`` it is true only
    when the Gauss-Newton step at the final point predicts a relative
    reduction of at most ``tol``, or moves no coordinate by more than
    rounding (the loss is at its rounding floor); otherwise the optimizer
    gave up. ``grad_norm`` is the norm of the loss gradient ``2 J'r`` at the
    returned point.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = residual(x)
    fx = float(r @ r)
    if not math.isfinite(fx):
        raise FloatingPointError(f"loss not finite at the starting point: {fx}")
    history = [fx]
    loss_evals, jacobian_evals = 1, 0
    lam = 1e-3
    stop = "max_iter"
    jac = None  # the Jacobian at x, once evaluated there
    iterations = 0
    for iterations in range(1, max_iter + 1):
        jac = jacobian(x)
        jacobian_evals += 1
        grad = jac.T @ r
        hess = jac.T @ jac
        if not (np.isfinite(grad).all() and np.isfinite(hess).all()):
            raise FloatingPointError("Jacobian not finite")
        scaling = np.diag(np.where(np.diag(hess) > 0, np.diag(hess), 1.0))
        accepted = False
        while lam <= _LAMBDA_MAX:
            try:
                step = np.linalg.solve(hess + lam * scaling, -grad)
            except np.linalg.LinAlgError:
                step = None
            if step is None or not np.isfinite(step).all():
                lam *= 10.0
                continue
            if _negligible(step, x):
                break
            trial = x + step
            r_trial = residual(trial)
            f_trial = float(r_trial @ r_trial)
            loss_evals += 1
            if math.isfinite(f_trial) and f_trial < fx:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            stop = "no_decrease"
            break
        lam = max(lam / 10.0, _LAMBDA_MIN)
        drop = fx - f_trial
        x, r, fx = trial, r_trial, f_trial
        history.append(fx)
        jac = None
        if drop <= tol * fx:
            stop = "ftol"
            break

    if jac is None:
        jac = jacobian(x)
        jacobian_evals += 1
    converged = stop == "ftol"
    if stop == "no_decrease":
        gn_step = np.linalg.lstsq(jac, -r, rcond=None)[0]
        predicted = fx - float(np.sum((r + jac @ gn_step) ** 2))
        converged = predicted <= tol * fx or _negligible(gn_step, x)
    return MinimizeResult(x=x, fx=fx, iterations=iterations, converged=converged,
                          history=history, stop_reason=stop, loss_evals=loss_evals,
                          jacobian_evals=jacobian_evals,
                          grad_norm=float(np.linalg.norm(2.0 * (jac.T @ r))))


# ---------------------------------------------------------------------------
# Calibration driver

def _canonical_kernel(params: BehaviorParams) -> BehaviorParams:
    """The same disaster kernel written with shape >= 0 and shift in [-6, 6).

    sin(pi/6 * (k + shift)) repeats when shift moves by 12 and changes sign
    when it moves by 6, so (shape, shift), (shape, shift + 12) and
    (-shape, shift + 6) are one kernel; the fit lands on any of them.
    """
    if params.shape >= 0.0 and -6.0 <= params.shift < 6.0:
        return params
    shift = params.shift + (6.0 if params.shape < 0.0 else 0.0)
    return dataclasses.replace(params, shape=abs(params.shape),
                               shift=(shift + 6.0) % 12.0 - 6.0)


def _start_points(config: CalibrationConfig) -> list[np.ndarray]:
    """Start 0 is the configured init; later starts perturb it by +/-50%.

    Parameters whose default is zero are perturbed additively on [-0.5, 0.5].
    """
    base = np.array([getattr(config.init, n) for n in PARAM_NAMES])
    points = [pack(config.init)]
    for k in range(1, config.starts):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, k)))
        u = rng.uniform(-0.5, 0.5, size=len(base))
        perturbed = np.where(base != 0.0, base * (1.0 + u), u)
        perturbed[-1] = min(max(perturbed[-1], 1e-6), 1.0 - 1e-6)  # rho stays in (0,1)
        points.append(pack(BehaviorParams(*perturbed[:-1], rho=perturbed[-1])))
    return points


def _fit(ctx: SimulationContext, aligned: PanelSlice, x0: np.ndarray, max_iter: int,
         tol: float) -> MinimizeResult:
    return minimize_lm(
        lambda x: _residuals(ctx, aligned, unpack(x)),
        lambda x: flow_jacobian(ctx, unpack(x), (aligned.corridor_idx, aligned.month_idx)),
        x0, max_iter=max_iter, tol=tol)


def calibrate(ctx: SimulationContext, train: PanelSlice, test: PanelSlice,
              config: CalibrationConfig = CalibrationConfig()) -> CalibrationResult:
    """Fit the nine parameters to the train half; report held-out R^2 on the test half.

    Both halves come from :func:`split_panel`, each aligned to ``ctx`` by
    :func:`align_panel`. The best of ``config.starts`` optimizer runs wins; a
    start whose loss turns non-finite is dropped, and calibration fails only
    if every start does.
    """
    if train.amounts.size == 0:
        raise CalibrationError("no train observation matches a modeled corridor")

    starts = _start_points(config)
    usable = []
    for x0 in starts:
        try:
            usable.append(_fit(ctx, train, x0, config.max_iter, config.tol))
        except FloatingPointError as exc:
            log.warning("optimizer start diverged: %s", exc)
    if not usable:
        raise CalibrationError(f"all {len(starts)} optimizer starts diverged")
    best = min(usable, key=lambda r: r.fx)
    # a zero-step run echoes the configured init exactly (the rho logit
    # round-trip would otherwise perturb it by an ulp)
    params = (config.init if np.array_equal(best.x, pack(config.init))
              else _canonical_kernel(unpack(best.x)))

    test_r2 = None
    if test.amounts.size >= 2 and test.amounts.std() > 0:
        sse = _sse(ctx, test, params)
        sst = float(((test.amounts - test.amounts.mean()) ** 2).sum())
        test_r2 = 1.0 - sse / sst

    return CalibrationResult(
        params=params, train_sse=best.fx, test_r2=test_r2, param_cis=None,
        iterations=best.iterations, converged=best.converged, stop_reason=best.stop_reason,
        loss_evals=best.loss_evals, jacobian_evals=best.jacobian_evals,
        grad_norm=best.grad_norm, loss_history=best.history,
        n_train=train.amounts.size, n_test=test.amounts.size,
        n_excluded=train.n_excluded + test.n_excluded,
        start_losses=[r.fx for r in usable])


def param_confidence(result: CalibrationResult, train: PanelSlice, ctx: SimulationContext,
                     replicates: int = 200, *,
                     seed: int = 0, max_iter: int = 60, tol: float = 1e-9,
                     replicate_start: BehaviorParams | None = None
                     ) -> dict[str, tuple[float, float]]:
    """95% bootstrap intervals: resample the aligned ``train`` observations
    with replacement, re-fit each replicate, take the 2.5/97.5 percentiles.

    Each replicate runs Levenberg-Marquardt for at most ``max_iter``
    iterations, from the point estimate by default; pass ``replicate_start``
    to re-run them from a common starting vector instead (bootstrapping the
    whole fitting procedure, start included, so the replicate distribution
    stays comparable to the estimator's even when ``max_iter`` stops the
    fits early). Diverged replicates are dropped and counted. Intervals are
    widened, if needed, to include the point estimate.
    """
    n = train.amounts.size
    if n == 0:
        raise CalibrationError("no train observations to bootstrap")
    x_hat = pack(result.params if replicate_start is None else replicate_start)

    kept = []
    for r in range(replicates):
        rng = np.random.default_rng(np.random.SeedSequence((seed, r)))
        take = rng.integers(0, n, size=n)
        resample = PanelSlice(train.corridor_idx[take], train.month_idx[take],
                              train.amounts[take], 0)
        try:
            kept.append(unpack(_fit(ctx, resample, x_hat, max_iter, tol).x))
        except FloatingPointError:
            pass
    dropped = replicates - len(kept)
    if dropped:
        log.warning("dropped %d of %d bootstrap replicate(s)", dropped, replicates)
    if not kept:
        raise CalibrationError("every bootstrap replicate diverged")
    cis = {}
    for name in PARAM_NAMES:
        values = np.array([getattr(p, name) for p in kept])
        lo, hi = percentiles(values, (2.5, 97.5))
        point = getattr(result.params, name)
        cis[name] = (min(lo, point), max(hi, point))
    return cis
