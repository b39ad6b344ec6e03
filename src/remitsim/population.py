"""Synthetic cohort population and diaspora-level demographics.

Monthly corridor stocks are distributed over ages proportionally to the
per-sex age profiles; counts stay fractional (expected-value math is exact
on reals, the stochastic sampler integerizes separately). Demographic
quantities summarize each corridor-month population pyramid.
"""
from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .dataio import Dataset, N_AGES, SEXES, interpolate_stocks_monthly, stock_grid

YOUNG_MAX_AGE = 24  # "young" band: ages 0..24
PARENTING_MIN_AGE = 25  # "parenting" band: ages 25..50 inclusive
PARENTING_MAX_AGE = 50


class Population:
    """Cohort counts for every corridor-month, stored as dense arrays.

    ``stocks[c, m, s]`` is the interpolated stock of sex ``s`` for corridor
    ``c`` in month ``m``; age cohorts are the outer product with the global
    per-sex age shares and are materialized lazily.
    """

    def __init__(self, corridors: Sequence[tuple[str, str]], stocks: np.ndarray,
                 shares: Mapping[str, np.ndarray]):
        self.corridors = tuple(corridors)
        self.stocks = stocks
        self.shares = {sex: np.asarray(shares[sex], dtype=float) for sex in SEXES}
        self.n_months = stocks.shape[1]
        self._index = {c: i for i, c in enumerate(self.corridors)}

    def corridor_index(self, origin: str, destination: str) -> int:
        return self._index[(origin, destination)]

    def counts(self, corridor: int, month: int) -> np.ndarray:
        """Cohort counts for one corridor-month, shape (2 sexes, 101 ages)."""
        return self.stocks[corridor, month, :, None] * np.vstack([self.shares[s] for s in SEXES])

    def cohorts(self) -> list[tuple[str, int]]:
        """(sex, age) of every cohort with a nonzero age share, by sex then age."""
        return [(sex, age) for sex in SEXES for age in np.flatnonzero(self.shares[sex]).tolist()]

    def cohort_counts(self, corridor: int, months: Sequence[int]) -> np.ndarray:
        """Counts of the :meth:`cohorts` of one corridor in ``months``,
        shape (len(months), len(cohorts))."""
        months = list(months)
        return np.concatenate([np.multiply.outer(self.stocks[corridor, months, s],
                                                 self.shares[sex][self.shares[sex] != 0])
                               for s, sex in enumerate(SEXES)], axis=1)


def build_population(dataset: Dataset) -> Population:
    """Distribute interpolated monthly stocks across ages 0-100 per sex."""
    stocks = stock_grid(dataset.stocks, interpolate_stocks_monthly(dataset.stocks))
    return Population(dataset.corridors, stocks, dataset.age_shares)


def _sym_grid(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    tot = a + b
    return np.divide(2.0 * np.minimum(a, b), tot, out=np.zeros_like(tot), where=tot > 0)


def demographics_arrays(population: Population) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(age_symmetry, sex_symmetry, asymmetry) per (corridor, month).

    Age symmetry is min(young, parenting) / mean(young, parenting), with ages
    0-24 young, 25-50 parenting and 51+ in neither band; sex symmetry is the
    same ratio over male and female stocks; either is 0 when both of its
    parts are empty. The family proxy is 1 - sex symmetry * age symmetry,
    so empty corridor-months get asymmetry 1 (their flow is zero regardless).
    """
    shares = population.shares
    young_frac = np.array([shares[sex][: YOUNG_MAX_AGE + 1].sum() for sex in SEXES])
    parenting_frac = np.array(
        [shares[sex][PARENTING_MIN_AGE: PARENTING_MAX_AGE + 1].sum() for sex in SEXES])
    men, women = population.stocks[..., 0], population.stocks[..., 1]
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
