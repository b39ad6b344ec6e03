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
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .dataio import SEXES, Dataset, Panel
from .dataio import interpolate_stocks_monthly  # unused here; perfbench/tracer.py wraps the name
from .months import WINDOW_MONTHS, year_of
from .reports import sequential_sum

log = logging.getLogger(__name__)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class GravityFit(NamedTuple):
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


def annual_stocks(dataset: Dataset, monthly: np.ndarray) -> dict[tuple[str, str, int], float]:
    """Mean of the monthly interpolated stock (both sexes) per corridor-year.

    ``monthly`` is the (corridors, 120 months, 2 sexes) stock grid of
    ``dataset.corridors``, as ``SimulationContext.stocks`` and
    ``Population.stocks`` hold it.
    """
    corridors = dataset.corridors
    years = range(year_of(0), year_of(WINDOW_MONTHS - 1) + 1)
    # each year's 12 months contiguous in the last axis, so every mean reduces
    # its 12 values as the mean of a 12-month slice does
    by_sex = np.ascontiguousarray(monthly.transpose(0, 2, 1))
    means = by_sex.reshape(len(corridors), len(SEXES), len(years), 12).mean(axis=3)
    totals = (0.0 + means[:, 0]) + means[:, 1]  # from 0.0, like a running sum: no -0.0
    return {(origin, dest, year): value
            for (origin, dest), row in zip(corridors, totals.tolist())
            for year, value in zip(years, row)}


def gravity_flows(dataset: Dataset, beta_exp: float,
                  stocks: Mapping[tuple[str, str, int], float]
                  ) -> dict[int, dict[tuple[str, str], float]]:
    """Annual bilateral flows per year: per-migrant amount times stock.

    Keyed year -> {(sender, recipient): USD/year}. ``stocks`` is
    :func:`annual_stocks` of ``dataset``.
    """
    out: dict[int, dict[tuple[str, str], float]] = {y: {} for y in range(2010, 2020)}
    for (origin, dest, year), stock in stocks.items():
        amount = gravity_per_migrant(dataset.gdp[(dest, year)], dataset.gdp[(origin, year)], beta_exp)
        out[year][(dest, origin)] = amount * stock
    return out


def _gravity_loss(panel: Panel, dataset: Dataset,
                  stocks: Mapping[tuple[str, str, int], float]
                  ) -> tuple[Callable[[float], float], int]:
    """(SSE as a function of the exponent, number of excluded observations).

    The SSE compares monthly gravity estimates (annual / 12) with the panel
    and adds the squared errors in panel order. The per-observation arrays
    are built once; observations without a modelled stock are excluded.
    """
    stock = panel.lookup(stocks, ("recipient", "sender", "year"))
    modelled = ~np.isnan(stock)
    included, stock = panel[modelled], stock[modelled]
    y_dest = included.lookup(dataset.gdp, ("sender", "year"))
    y_origin = included.lookup(dataset.gdp, ("recipient", "year"))
    observed = included.amount_usd
    if not ((y_dest > 0) & (y_origin > 0)).all():
        raise ValueError("incomes must be known and positive")
    richer = y_dest >= y_origin
    gaps, gap_of = np.unique(y_dest[richer] - y_origin[richer], return_inverse=True)
    gaps = gaps.tolist()

    def sse(beta_exp: float) -> float:
        per_migrant = y_origin.copy()
        # Python ** on each distinct gap, as in gravity_per_migrant: np.power may round differently
        per_migrant[richer] += np.array([gap ** beta_exp for gap in gaps])[gap_of]
        error = per_migrant * stock / 12.0 - observed
        return sequential_sum(error * error)

    return sse, len(panel) - len(included)


def calibrate_gravity(panel: Panel, dataset: Dataset,
                      stocks: Mapping[tuple[str, str, int], float], *,
                      bracket: tuple[float, float] = (0.01, 2.0), grid: int = 41,
                      tol: float = 1e-4) -> GravityFit:
    """Fit the exponent by golden-section search on the bracketed SSE.

    A coarse grid scan checks unimodality first; a non-unimodal profile
    returns the best grid point with a warning. A boundary optimum widens
    the bracket (once upward) and is flagged if it persists. ``stocks`` is
    :func:`annual_stocks` of ``dataset``.
    """
    if not panel:
        raise ValueError("panel is empty")
    f, excluded = _gravity_loss(panel, dataset, stocks)
    lo, hi = bracket
    for _ in range(2):  # allow one widening past the upper edge
        xs = np.linspace(lo, hi, grid)
        losses = [f(x) for x in xs]
        best = int(np.argmin(losses))
        sign_changes = 0
        diffs = np.sign(np.diff(losses))
        for a, b in zip(diffs[:-1], diffs[1:]):
            if a != 0 and b != 0 and a != b:
                sign_changes += 1
        unimodal = sign_changes <= 1
        if not unimodal:
            log.warning("gravity loss not unimodal on [%g, %g]; returning best grid point", lo, hi)
            return GravityFit(float(xs[best]), float(losses[best]), at_boundary=False,
                              unimodal=False, n_excluded=excluded)
        if best == grid - 1:
            lo, hi = hi * 0.9, hi * 3.0
            continue
        break

    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, grid - 1)]
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
    at_boundary = best in (0, grid - 1)
    if at_boundary:
        log.warning("gravity exponent optimum at bracket edge (beta=%g)", beta)
    return GravityFit(float(beta), float(f(beta)), at_boundary=at_boundary, unimodal=True,
                      n_excluded=excluded)


def _means(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``np.mean`` of each run ``values[start:start + length]``, bit for bit.

    The runs of one length are averaged as the rows of one array, and numpy
    sums each row pairwise, as it sums a 1-D array; ``np.add.reduceat``
    would sum them in sequence.
    """
    means = np.empty(len(starts))
    # the distinct lengths, ascending, by bincount (not np.unique: see dataio._present)
    for length in np.flatnonzero(np.bincount(lengths)).tolist():
        which = np.flatnonzero(lengths == length)
        means[which] = values[starts[which, None] + np.arange(length)].mean(axis=1)
    return means


class ComparisonRow(NamedTuple):
    sender: str
    recipient: str
    observed_usd: float  # average yearly
    structural_usd: float
    gravity_usd: float
    se_structural: float
    se_gravity: float


class ComparisonReport(NamedTuple):
    rows: tuple[ComparisonRow, ...]
    mean_relative_error_ratio: float | None  # structural over gravity
    largest_overestimates: tuple[tuple[str, str], ...]  # by the gravity model
    largest_underestimates: tuple[tuple[str, str], ...]
    n_excluded: int


def compare_models(structural: np.ndarray, gravity: Mapping[int, Mapping[tuple[str, str], float]],
                   panel: Panel) -> ComparisonReport:
    """Average-yearly corridor comparison of both estimators against the panel.

    ``structural`` holds each observation's simulated monthly USD, in panel
    order, NaN where there is none; ``gravity`` maps year to annual corridor
    matrices. Corridors missing from either estimate are excluded and counted.
    """
    # corridors in (sender, recipient) order, their observations in panel order
    corridor = panel.sender * len(panel.codes) + panel.recipient
    order = np.argsort(corridor, kind="stable")
    _, starts, lengths = np.unique(corridor[order], return_index=True, return_counts=True)
    simulated = _means(structural[order], starts, lengths)  # NaN where any value is
    years = panel.year[order]
    groups = zip(map(panel.codes.__getitem__, panel.sender[order[starts]].tolist()),
                 map(panel.codes.__getitem__, panel.recipient[order[starts]].tolist()),
                 starts.tolist(), (starts + lengths).tolist(),
                 (12.0 * _means(panel.amount_usd[order], starts, lengths)).tolist(),
                 (12.0 * simulated).tolist(), np.isnan(simulated).tolist())

    rows = []
    excluded = 0
    rel_s: list[float] = []
    rel_g: list[float] = []
    for sender, recipient, lo, hi, observed, struct, unsimulated in groups:
        gravity_yearly = [gravity.get(y, {}).get((sender, recipient))
                          for y in sorted(set(years[lo:hi].tolist()))]
        if unsimulated or None in gravity_yearly:
            excluded += 1
            continue
        grav = float(np.mean(gravity_yearly))
        # squares by product: ** 2 calls the C library's pow, which may round differently
        err_s, err_g = struct - observed, grav - observed
        row = ComparisonRow(sender=sender, recipient=recipient, observed_usd=observed,
                            structural_usd=struct, gravity_usd=grav,
                            se_structural=err_s * err_s, se_gravity=err_g * err_g)
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
