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
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .dataio import PANEL_YEARS, SEXES, Panel
from .dataio import interpolate_stocks_monthly  # unused here; perfbench/tracer.py wraps the name
from .engine import SimulationContext
from .reports import sequential_sum

log = logging.getLogger(__name__)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class GravityFit(NamedTuple):
    beta_exp: float
    sse: float
    at_boundary: bool
    unimodal: bool
    n_excluded: int


def per_migrant(y_dest: np.ndarray, y_origin: np.ndarray, beta_exp: float) -> np.ndarray:
    """Annual per-migrant amount per cell: the origin income, plus the income
    gap raised to the exponent where the destination is at least as rich."""
    if not ((y_dest > 0) & (y_origin > 0)).all():
        raise ValueError("incomes must be positive")
    richer = y_dest >= y_origin
    gaps, gap_of = np.unique(y_dest[richer] - y_origin[richer], return_inverse=True)
    amount = y_origin.copy()
    # Python ** on each distinct gap: np.power may round differently
    amount[richer] += np.array([gap ** beta_exp for gap in gaps.tolist()])[gap_of]
    return amount


def annual_stocks(monthly: np.ndarray) -> np.ndarray:
    """Mean of the monthly interpolated stock (both sexes) per (corridor, year),
    shape (corridors, 10 years from 2010).

    ``monthly`` is a context's (corridors, 120 months, 2 sexes) stock grid,
    ``SimulationContext.stocks``.
    """
    # each year's 12 months contiguous in the last axis, so every mean reduces
    # its 12 values as the mean of a 12-month slice does
    by_sex = np.ascontiguousarray(monthly.transpose(0, 2, 1))
    means = by_sex.reshape(len(monthly), len(SEXES), len(PANEL_YEARS), 12).mean(axis=3)
    return (0.0 + means[:, 0]) + means[:, 1]  # from 0.0, like a running sum: no -0.0


def gravity_flows(ctx: SimulationContext, beta_exp: float, stocks: np.ndarray) -> np.ndarray:
    """Annual flow per (corridor, year) of the context, in USD: the
    per-migrant amount times the stock. ``stocks`` is :func:`annual_stocks`
    of ``ctx.stocks``."""
    return per_migrant(ctx.dest_gdp, ctx.origin_gdp, beta_exp) * stocks


def _cells(panel: Panel, corridors: Sequence[tuple[str, str]]
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each observation's row in ``corridors`` and year index since 2010, and
    the mask of the observations with a modelled stock: a corridor of
    ``corridors`` in one of the years 2010-2019."""
    row, year = panel.corridor_index(corridors), panel.year - PANEL_YEARS[0]
    return row, year, (row >= 0) & (year >= 0) & (year < len(PANEL_YEARS))


def _gravity_loss(panel: Panel, ctx: SimulationContext, stocks: np.ndarray
                  ) -> tuple[Callable[[float], float], int]:
    """(SSE as a function of the exponent, number of excluded observations).

    The SSE compares monthly gravity estimates (annual / 12) with the panel
    and adds the squared errors in panel order. The incomes and stocks of the
    observed (corridor, year) cells are gathered once; observations without a
    modelled stock are excluded.
    """
    at, year, modelled = _cells(panel, ctx.corridors)
    # the distinct (corridor, year) cells observed, and each observation's cell
    cells, cell_of = np.unique(at[modelled] * len(PANEL_YEARS) + year[modelled],
                               return_inverse=True)
    y_dest, y_origin, stock = (grid.ravel()[cells] for grid in (ctx.dest_gdp, ctx.origin_gdp,
                                                                stocks))
    observed = panel.amount_usd[modelled]

    def sse(beta_exp: float) -> float:
        error = (per_migrant(y_dest, y_origin, beta_exp) * stock)[cell_of] / 12.0 - observed
        return sequential_sum(error * error)

    return sse, len(panel) - len(observed)


def calibrate_gravity(panel: Panel, ctx: SimulationContext, stocks: np.ndarray, *,
                      bracket: tuple[float, float] = (0.01, 2.0), grid: int = 41,
                      tol: float = 1e-4) -> GravityFit:
    """Fit the exponent by golden-section search on the bracketed SSE.

    A coarse grid scan checks unimodality first; a non-unimodal profile
    returns the best grid point with a warning. A boundary optimum widens
    the bracket (once upward) and is flagged if it persists. ``stocks`` is
    :func:`annual_stocks` of ``ctx.stocks``.
    """
    if not panel:
        raise ValueError("panel is empty")
    f, excluded = _gravity_loss(panel, ctx, stocks)
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


def compare_models(structural: np.ndarray, gravity: np.ndarray, panel: Panel,
                   corridors: Sequence[tuple[str, str]]) -> ComparisonReport:
    """Average-yearly corridor comparison of both estimators against the panel.

    ``structural`` holds each observation's simulated monthly USD, in panel
    order, NaN where there is none; ``gravity[c, y]`` is the annual USD of
    ``corridors[c]`` in year 2010 + y, as :func:`gravity_flows` gives it, NaN
    where there is none. Corridors missing from either estimate are excluded
    and counted.
    """
    # corridors in (sender, recipient) order, their observations in panel order
    corridor = panel.sender * len(panel.codes) + panel.recipient
    order = np.argsort(corridor, kind="stable")
    _, starts, lengths = np.unique(corridor[order], return_index=True, return_counts=True)
    simulated = _means(structural[order], starts, lengths)  # NaN where any value is

    # the gravity estimate of each corridor's distinct observed years, ascending
    at, year, modelled = _cells(panel, corridors)
    annual = np.full(len(panel), np.nan)
    annual[modelled] = gravity[at[modelled], year[modelled]]
    by_year = np.lexsort((year, corridor))
    first = np.ones(len(panel), dtype=bool)  # the first observation of each corridor-year
    first[1:] = (np.diff(corridor[by_year]) != 0) | (np.diff(year[by_year]) != 0)
    _, year_starts, year_counts = np.unique(corridor[by_year[first]], return_index=True,
                                            return_counts=True)
    estimated = _means(annual[by_year[first]], year_starts, year_counts)  # NaN where any is

    groups = zip(map(panel.codes.__getitem__, panel.sender[order[starts]].tolist()),
                 map(panel.codes.__getitem__, panel.recipient[order[starts]].tolist()),
                 (12.0 * _means(panel.amount_usd[order], starts, lengths)).tolist(),
                 (12.0 * simulated).tolist(), estimated.tolist(),
                 (np.isnan(simulated) | np.isnan(estimated)).tolist())

    rows = []
    excluded = 0
    rel_s: list[float] = []
    rel_g: list[float] = []
    for sender, recipient, observed, struct, grav, missing in groups:
        if missing:
            excluded += 1
            continue
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
