"""Synthetic desk-scale dataset generation.

Builds a fully self-consistent input directory (economics, stocks, age and
surplus profiles, disasters, and a model-generated panel) so the engine is
runnable and testable with zero external data. The panel is produced by the
expected-value path under :data:`behavior.REFERENCE_PARAMS`, optionally with
multiplicative noise, which makes parameter-recovery experiments possible.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .behavior import REFERENCE_PARAMS, BehaviorParams
from .dataio import (AgeProfile, CountryEconomics, Dataset, DisasterEvent, GLOBAL_SURPLUS,
                     MigrantStockRecord, N_AGES, Panel, SEXES, SurplusProfile, write_dataset)
from .months import WINDOW_MONTHS, month_index

# GDP levels are chosen so the GDP-gap covariate spans roughly [-4, +14]:
# a few saturated corridors, most in the informative logistic range.
DESTINATIONS = (
    ("DNA", 54000.0, 330e6), ("DNB", 48000.0, 83e6), ("DNC", 42000.0, 60e6),
    ("DND", 36000.0, 45e6), ("DNE", 30000.0, 110e6),
)
ORIGINS = (
    ("OGA", 9000.0, 95e6), ("OGB", 12000.0, 48e6), ("OGC", 16000.0, 160e6),
    ("OGD", 20000.0, 30e6), ("OGE", 25000.0, 68e6), ("OGF", 31000.0, 21e6),
    ("OGG", 38000.0, 125e6), ("OGH", 46000.0, 9e6), ("OGI", 56000.0, 38e6),
    ("OGJ", 68000.0, 5e6),
)
# (event_id, origin index, onset, hazard, affected share of population)
EVENTS = (
    ("EV-FL-1", 0, "2012-06", "flood", 0.38),
    ("EV-ST-1", 1, "2013-11", "storm", 0.24),
    ("EV-FL-2", 2, "2016-07", "flood", 0.19),
    ("EV-EQ-1", 3, "2010-03", "earthquake", 0.31),
    ("EV-DR-1", 4, "2011-05", "drought", 0.42),
    ("EV-ST-2", 5, "2017-09", "storm", 0.12),
    ("EV-EQ-2", 6, "2018-02", "earthquake", 0.09),
    ("EV-DR-2", 7, "2015-08", "drought", 0.21),
)
# per-origin male share of the diaspora, cycled; extremes exercise the family proxy
MALE_SHARES = (0.5, 0.65, 0.35, 0.8, 0.2, 0.9, 0.1, 0.55, 0.45, 0.7)


def _income_group(gdp: float) -> str:
    if gdp < 1100:
        return "low"
    if gdp < 4500:
        return "lower-middle"
    if gdp < 14000:
        return "upper-middle"
    return "high"


def _discretized_normal(mean: float, sd: float, floor: float) -> np.ndarray:
    ages = np.arange(N_AGES, dtype=float)
    w = np.exp(-0.5 * ((ages - mean) / sd) ** 2) + floor
    return w / w.sum()


def _surplus_curve(scale: float) -> np.ndarray:
    ages = np.arange(N_AGES, dtype=float)
    curve = np.interp(ages, [16, 24, 40, 55, 70, 85, 100],
                      [0.10, 0.90, 1.30, 1.10, 0.40, 0.12, 0.08])
    curve[:16] = 0.0
    return np.round(curve * scale, 6)


def build_dataset(seed: int = 0, *, n_origins: int = 10, n_destinations: int = 5,
                  noise: float = 0.0, with_events: bool = True,
                  params: BehaviorParams = REFERENCE_PARAMS) -> Dataset:
    """Assemble the synthetic dataset in memory; the panel is model-generated."""
    if not 1 <= n_origins <= len(ORIGINS) or not 1 <= n_destinations <= len(DESTINATIONS):
        raise ValueError("fixture size out of range")
    rng = np.random.default_rng(seed)
    origins = ORIGINS[:n_origins]
    destinations = DESTINATIONS[:n_destinations]

    economics = []
    for code, base, pop in list(destinations) + list(origins):
        growth = rng.uniform(0.005, 0.035)
        for year in range(2010, 2020):
            gdp = round(base * (1.0 + growth) ** (year - 2010), 2)
            economics.append(CountryEconomics(code, year, gdp, pop, _income_group(base)))

    stocks = []
    for oi, (origin, _, _) in enumerate(origins):
        for dest, _, _ in destinations:
            base = 10.0 ** rng.uniform(3.6, 5.2)
            male = MALE_SHARES[oi % len(MALE_SHARES)]
            for sex, frac in zip(SEXES, (male, 1.0 - male)):
                a2010 = base * frac
                a2015 = a2010 * rng.uniform(0.75, 1.5)
                a2020 = a2015 * rng.uniform(0.75, 1.5)
                for year, count in ((2010, a2010), (2015, a2015), (2020, a2020)):
                    stocks.append(MigrantStockRecord(origin, dest, sex, year, round(count, 3)))

    age_profiles = []
    male_shares = _discretized_normal(30.0, 10.0, 1e-4)
    female_shares = _discretized_normal(36.0, 15.0, 1e-4)
    for sex, shares in zip(SEXES, (male_shares, female_shares)):
        for age in range(N_AGES):
            age_profiles.append(AgeProfile(sex, age, float(shares[age])))

    surplus_profiles = []
    for country, scale in ((GLOBAL_SURPLUS, 1.0), ("DNA", 1.25), ("DNB", 0.9), ("DNE", 0.8)):
        if country != GLOBAL_SURPLUS and country not in {d for d, _, _ in destinations}:
            continue
        curve = _surplus_curve(scale)
        for age in range(N_AGES):
            surplus_profiles.append(SurplusProfile(country, age, float(curve[age])))

    disasters = []
    if with_events:
        pop_of = {c.country: c.population for c in economics}
        for event_id, oi, onset, hazard, share in EVENTS:
            if oi < n_origins:
                code = origins[oi][0]
                disasters.append(DisasterEvent(event_id, code, month_index(onset), hazard,
                                               round(share * pop_of[code], 0)))

    partial = Dataset(economics=tuple(economics), stocks=tuple(stocks),
                      age_profiles=tuple(age_profiles), surplus_profiles=tuple(surplus_profiles),
                      disasters=tuple(disasters), panel=())
    panel = generate_panel(partial, params, noise=noise, rng=rng)
    return Dataset(economics=partial.economics, stocks=partial.stocks,
                   age_profiles=partial.age_profiles, surplus_profiles=partial.surplus_profiles,
                   disasters=partial.disasters, panel=panel)


def generate_panel(dataset: Dataset, params: BehaviorParams, *, noise: float = 0.0,
                   rng: np.random.Generator | None = None) -> Panel:
    """Model-generated panel: one observation per corridor-month.

    ``noise`` applies a multiplicative 1 + noise * N(0,1) factor, floored at
    0.05 to keep amounts non-negative; the draws run corridor by corridor.
    """
    from .engine import SimulationContext  # deferred: fixtures is imported by engine tests

    ctx = SimulationContext(dataset)
    flows = ctx.expected_flows(params)
    if rng is None:
        rng = np.random.default_rng(0)
    factors = (1.0 + noise * rng.standard_normal(flows.shape)) if noise else np.ones(flows.shape)
    return Panel.from_columns([d for _, d in ctx.corridors for _ in range(WINDOW_MONTHS)],
                              [o for o, _ in ctx.corridors for _ in range(WINDOW_MONTHS)],
                              np.tile(np.arange(WINDOW_MONTHS), ctx.n_corridors),
                              (flows * np.maximum(0.05, factors)).ravel())


def generate_fixture(data_dir: str | Path, seed: int = 0, *, n_origins: int = 10,
                     n_destinations: int = 5, noise: float = 0.0,
                     with_events: bool = True) -> Dataset:
    """Write the synthetic dataset to ``data_dir`` and return it."""
    dataset = build_dataset(seed, n_origins=n_origins, n_destinations=n_destinations,
                            noise=noise, with_events=with_events)
    write_dataset(dataset, data_dir)
    return dataset
