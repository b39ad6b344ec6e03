"""Gravity-model baseline estimator and the model-comparison harness.

The baseline assigns every migrant an annual per-migrant amount driven only
by origin and destination income levels, multiplied by the migrant stock.
Its single exponent is fitted by golden-section search against the observed
panel. The comparison harness scores both estimators on average yearly
corridor flows.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dataio import Dataset, FlowObservation, interpolate_stocks_monthly
from .months import year_of

log = logging.getLogger(__name__)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class GravityFit:
    beta_exp: float
    sse: float
    at_boundary: bool
    unimodal: bool
    n_excluded: int


def gravity_per_migrant(y_dest: float, y_origin: float, beta_exp: float) -> float:
    """Annual per-migrant amount: origin income, plus the income gap raised
    to the exponent when the destination is at least as rich."""
    if y_dest <= 0 or y_origin <= 0:
        raise ValueError(f"incomes must be positive, got ({y_dest}, {y_origin})")
    if y_dest < y_origin:
        return y_origin
    return y_origin + (y_dest - y_origin) ** beta_exp


def annual_stocks(dataset: Dataset) -> Mapping[tuple[str, str, int], float]:
    """Mean of the monthly interpolated stock (both sexes) per corridor-year."""
    series = interpolate_stocks_monthly(dataset.stocks)
    out: dict[tuple[str, str, int], float] = {}
    for (origin, dest, _sex), monthly in series.items():
        for year in range(2010, 2020):
            lo = (year - 2010) * 12
            key = (origin, dest, year)
            out[key] = out.get(key, 0.0) + float(monthly[lo: lo + 12].mean())
    return out


def gravity_flows(dataset: Dataset, beta_exp: float) -> dict[int, dict[tuple[str, str], float]]:
    """Annual bilateral flows per year: per-migrant amount times stock.

    Keyed year -> {(sender, recipient): USD/year}.
    """
    stocks = annual_stocks(dataset)
    out: dict[int, dict[tuple[str, str], float]] = {y: {} for y in range(2010, 2020)}
    for (origin, dest, year), stock in stocks.items():
        amount = gravity_per_migrant(dataset.gdp[(dest, year)], dataset.gdp[(origin, year)], beta_exp)
        out[year][(dest, origin)] = amount * stock
    return out


def _panel_sse(panel: Sequence[FlowObservation], dataset: Dataset,
               stocks: Mapping[tuple[str, str, int], float], beta_exp: float) -> tuple[float, int]:
    """SSE of monthly gravity estimates (annual / 12) against the panel; ``stocks``
    is :func:`annual_stocks` of ``dataset``, computed once per fit."""
    sse = 0.0
    excluded = 0
    for obs in panel:
        year = year_of(obs.month)
        key = (obs.recipient, obs.sender, year)
        stock = stocks.get(key)
        if stock is None:
            excluded += 1
            continue
        amount = gravity_per_migrant(dataset.gdp[(obs.sender, year)],
                                     dataset.gdp[(obs.recipient, year)], beta_exp)
        sse += (amount * stock / 12.0 - obs.amount_usd) ** 2
    return sse, excluded


def calibrate_gravity(panel: Sequence[FlowObservation], dataset: Dataset, *,
                      bracket: tuple[float, float] = (0.01, 2.0), grid: int = 41,
                      tol: float = 1e-4) -> GravityFit:
    """Fit the exponent by golden-section search on the bracketed SSE.

    A coarse grid scan checks unimodality first; a non-unimodal profile
    returns the best grid point with a warning. A boundary optimum widens
    the bracket (once upward) and is flagged if it persists.
    """
    if not panel:
        raise ValueError("panel is empty")
    stocks = annual_stocks(dataset)
    lo, hi = bracket
    for _ in range(2):  # allow one widening past the upper edge
        xs = np.linspace(lo, hi, grid)
        losses = [_panel_sse(panel, dataset, stocks, x)[0] for x in xs]
        best = int(np.argmin(losses))
        sign_changes = 0
        diffs = np.sign(np.diff(losses))
        for a, b in zip(diffs[:-1], diffs[1:]):
            if a != 0 and b != 0 and a != b:
                sign_changes += 1
        unimodal = sign_changes <= 1
        if not unimodal:
            log.warning("gravity loss not unimodal on [%g, %g]; returning best grid point", lo, hi)
            _, excl = _panel_sse(panel, dataset, stocks, xs[best])
            return GravityFit(float(xs[best]), float(losses[best]), at_boundary=False,
                              unimodal=False, n_excluded=excl)
        if best == grid - 1:
            lo, hi = hi * 0.9, hi * 3.0
            continue
        break

    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, grid - 1)]
    f = lambda x: _panel_sse(panel, dataset, stocks, x)[0]
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    beta = (a + b) / 2.0
    sse, excluded = _panel_sse(panel, dataset, stocks, beta)
    at_boundary = best in (0, grid - 1)
    if at_boundary:
        log.warning("gravity exponent optimum at bracket edge (beta=%g)", beta)
    return GravityFit(float(beta), float(sse), at_boundary=at_boundary, unimodal=True,
                      n_excluded=excluded)


@dataclass(frozen=True)
class ComparisonRow:
    sender: str
    recipient: str
    observed_usd: float  # average yearly
    structural_usd: float
    gravity_usd: float
    se_structural: float
    se_gravity: float


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[ComparisonRow, ...]
    mean_relative_error_ratio: float | None  # structural over gravity
    largest_overestimates: tuple[tuple[str, str], ...]  # by the gravity model
    largest_underestimates: tuple[tuple[str, str], ...]
    n_excluded: int


def compare_models(structural: Mapping[tuple[str, str, int], float],
                   gravity: Mapping[int, Mapping[tuple[str, str], float]],
                   panel: Sequence[FlowObservation]) -> ComparisonReport:
    """Average-yearly corridor comparison of both estimators against the panel.

    ``structural`` maps (sender, recipient, month index) to monthly USD;
    ``gravity`` maps year to annual corridor matrices. Corridors missing from
    either estimate are excluded and counted.
    """
    by_corridor: dict[tuple[str, str], list[FlowObservation]] = {}
    for obs in panel:
        by_corridor.setdefault((obs.sender, obs.recipient), []).append(obs)

    rows = []
    excluded = 0
    rel_s: list[float] = []
    rel_g: list[float] = []
    for (sender, recipient), group in sorted(by_corridor.items()):
        months = [o.month for o in group]
        years = sorted({year_of(m) for m in months})
        try:
            structural_monthly = [structural[(sender, recipient, m)] for m in months]
            gravity_yearly = [gravity[y][(sender, recipient)] for y in years]
        except KeyError:
            excluded += 1
            continue
        observed = 12.0 * float(np.mean([o.amount_usd for o in group]))
        struct = 12.0 * float(np.mean(structural_monthly))
        grav = float(np.mean(gravity_yearly))
        row = ComparisonRow(sender=sender, recipient=recipient, observed_usd=observed,
                            structural_usd=struct, gravity_usd=grav,
                            se_structural=(struct - observed) ** 2,
                            se_gravity=(grav - observed) ** 2)
        rows.append(row)
        if observed > 0:
            rel_s.append(abs(struct - observed) / observed)
            rel_g.append(abs(grav - observed) / observed)

    ratio = None
    if rel_g and float(np.mean(rel_g)) > 0:
        ratio = float(np.mean(rel_s)) / float(np.mean(rel_g))
    over = sorted(rows, key=lambda r: r.gravity_usd - r.observed_usd, reverse=True)
    under = sorted(rows, key=lambda r: r.gravity_usd - r.observed_usd)
    top = min(5, len(rows))
    return ComparisonReport(
        rows=tuple(sorted(rows, key=lambda r: -r.observed_usd)),
        mean_relative_error_ratio=ratio,
        largest_overestimates=tuple((r.sender, r.recipient) for r in over[:top]),
        largest_underestimates=tuple((r.sender, r.recipient) for r in under[:top]),
        n_excluded=excluded)
