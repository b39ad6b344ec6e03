"""Monthly corridor stocks and diaspora-level demographics.

A natural cubic spline per corridor and sex takes the 2010/2015/2020 stock
anchors to one (corridors, 120 months, 2 sexes) grid. Monthly stocks are
distributed over ages proportionally to the per-sex age profiles; counts
stay fractional (expected-value math is exact on reals, the stochastic
sampler integerizes separately). The simulation context holds the stock
grid and the shares and gives the counts. Demographic quantities summarize
each corridor-month population pyramid.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .dataio import Dataset, N_AGES, SEXES, Stocks
from .months import WINDOW_MONTHS

YOUNG_MAX_AGE = 24  # "young" band: ages 0..24
PARENTING_MIN_AGE = 25  # "parenting" band: ages 25..50 inclusive
PARENTING_MAX_AGE = 50


def interpolate_stocks_monthly(stocks: Stocks) -> np.ndarray:
    """The read-only (corridors, 120 months, 2 sexes) grid of monthly stocks
    over ``stocks.corridors``: per corridor and sex, the natural cubic spline
    through its :attr:`~remitsim.dataio.Stocks.anchors` at months 0, 60 and
    120, clamped at zero. Months 0 and 60 hold their anchors exactly; a sex
    without a series, whose anchors are 0, holds +0.0. The second derivative
    is 0 at both ends and m1 = 6((y2 - y1)/h - (y1 - y0)/h) / (2(h + h)) in
    the middle. Each interval, months 0-59 and 60-119, is written in place.
    """
    y, h = stocks.anchors[..., None, :], 60  # (corridors, 2 sexes, 1, 3 anchors); months apart
    m1 = 6.0 * ((y[..., 2] - y[..., 1]) / h - (y[..., 1] - y[..., 0]) / h) / (2.0 * (h + h))
    b = np.arange(h, dtype=float)  # months since the interval's first node
    a = h - b
    grid = np.empty((len(y), WINDOW_MONTHS, len(SEXES)))
    series = grid.transpose(0, 2, 1)  # months last: the ufunc loops run along them
    for i, (ml, mu) in enumerate([(0.0, m1), (m1, 0.0)]):
        yl, yu = y[..., i], y[..., i + 1]
        block = series[..., i * h:(i + 1) * h]
        np.add((ml * a**3 + mu * b**3) / (6.0 * h) + (yl / h - h * ml / 6.0) * a,
               (yu / h - h * mu / 6.0) * b, out=block)
        block[..., :1] = yl  # the node month
        np.maximum(block, 0.0, out=block)
    grid.flags.writeable = False
    return grid


def build_population(dataset: Dataset) -> np.ndarray:
    """The (corridors, 120 months, 2 sexes) grid of interpolated monthly stocks
    of ``dataset.corridors``. A cohort's count is its sex's stock times its age
    share: :meth:`remitsim.engine.SimulationContext.cohort_counts`."""
    return interpolate_stocks_monthly(dataset.stocks)


def _sym_grid(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    tot = a + b
    return np.divide(2.0 * np.minimum(a, b), tot, out=np.zeros_like(tot), where=tot > 0)


def demographics_arrays(stocks: np.ndarray, shares: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(age_symmetry, sex_symmetry, asymmetry) per (corridor, month) of the
    :func:`build_population` grid ``stocks``, with ``shares`` the (2 sexes,
    101 ages) age shares.

    Age symmetry is min(young, parenting) / mean(young, parenting), with ages
    0-24 young, 25-50 parenting and 51+ in neither band; sex symmetry is the
    same ratio over male and female stocks; either is 0 when both of its
    parts are empty. The family proxy is 1 - sex symmetry * age symmetry,
    so empty corridor-months get asymmetry 1 (their flow is zero regardless).
    """
    young_frac = np.array([row[: YOUNG_MAX_AGE + 1].sum() for row in shares])
    parenting_frac = np.array([row[PARENTING_MIN_AGE: PARENTING_MAX_AGE + 1].sum()
                               for row in shares])
    men, women = stocks[..., 0], stocks[..., 1]
    # products added elementwise, not by a BLAS product, whose rounding varies by CPU kernel
    age_sym = _sym_grid(men * young_frac[0] + women * young_frac[1],
                        men * parenting_frac[0] + women * parenting_frac[1])
    sex_sym = _sym_grid(men, women)
    return age_sym, sex_sym, 1.0 - sex_sym * age_sym


class SenderDemographicsRow(NamedTuple):
    group: str  # origin income group, or ALL
    expected_senders: float
    male_share: float
    female_share: float
    mean_age: float
    share_20_39: float
    share_under_40: float
    empty: bool


def sender_demographics(weights: np.ndarray, groups: Sequence[str]) -> list[SenderDemographicsRow]:
    """Expected-sender-weighted composition, overall and by origin income group.

    ``weights[i, s, age]`` is a cohort's count times its sending probability
    in corridor-month ``i``, shape (n, 2 sexes, 101 ages); ``groups[i]`` is
    the income group of that corridor-month's origin in its calendar year.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape[1:] != (len(SEXES), N_AGES) or len(weights) != len(groups):
        raise ValueError("weights must have shape (len(groups), 2, 101)")
    labels = np.asarray(groups)
    rows = []
    for group in ["ALL", *sorted(set(groups))]:
        by_cohort = (weights if group == "ALL" else weights[labels == group]).sum(axis=0)
        total = float(by_cohort.sum())
        if total == 0:
            rows.append(SenderDemographicsRow(group, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, empty=True))
            continue
        male = float(by_cohort[0].sum())
        by_age = by_cohort.sum(axis=0)
        age_sum = np.add.accumulate(by_age * np.arange(N_AGES))[-1]  # left to right, not BLAS
        rows.append(SenderDemographicsRow(
            group=group, expected_senders=total, male_share=male / total,
            female_share=1.0 - male / total, mean_age=float(age_sum) / total,
            share_20_39=float(by_age[20:40].sum()) / total,
            share_under_40=float(by_age[:40].sum()) / total, empty=False))
    return rows
