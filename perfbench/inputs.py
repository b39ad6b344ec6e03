"""Seeded, offline input generation for the benchmark workloads.

Two datasets: the desk fixture that ``remitsim fixtures generate`` writes
(10 x 5 corridors, 8 events), and a scale dataset built here from the
``dataio`` dataclasses, because ``fixtures.build_dataset`` stops at 10 x 5.
Both panels are noiseless and generated by ``fixtures.generate_panel`` under
``REFERENCE_PARAMS``. Next to each dataset sits a ``calibration.json`` with
the reference parameters, so that workloads which simulate do not depend on
``calibrate``, and a ``run.config``.
"""
from __future__ import annotations

import json
import string
from pathlib import Path

import numpy as np

from remitsim import fixtures
from remitsim.behavior import REFERENCE_PARAMS
from remitsim.dataio import (AgeProfile, CountryEconomics, Dataset, DisasterEvent,
                             GLOBAL_SURPLUS, HAZARDS, MigrantStockRecord, N_AGES, SEXES,
                             SurplusProfile, write_dataset)
from remitsim.fixtures import _discretized_normal, _income_group, _surplus_curve
from remitsim.months import WINDOW_MONTHS

BAND_DRAWS = 1000  # band draws of the desk runs; the scale runs draw none
SCALE_ORIGINS = 40
SCALE_DESTINATIONS = 20
SCALE_EVENTS = 50
SCALE_PANEL_FROM = 96  # the scale panel observes 2018-01..2019-12


def _codes(prefix: str, n: int) -> list[str]:
    """``n`` three-letter codes starting with ``prefix``: OAA, OAB, ..."""
    letters = string.ascii_uppercase
    return [prefix + letters[i // 26] + letters[i % 26] for i in range(n)]


def build_scale_dataset(seed: int) -> Dataset:
    """Every origin sends migrants to every destination; events cycle the hazards.

    Event onsets are uniform over the grid and origins are drawn at random,
    so some origins carry overlapping 12-month windows and others a single
    isolated event.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 800)))
    origins = [(code, float(rng.uniform(9000.0, 68000.0)), float(rng.uniform(5e6, 160e6)))
               for code in _codes("O", SCALE_ORIGINS)]
    destinations = [(code, float(rng.uniform(30000.0, 54000.0)), float(rng.uniform(45e6, 330e6)))
                    for code in _codes("D", SCALE_DESTINATIONS)]

    economics = []
    for code, base, pop in destinations + origins:
        growth = rng.uniform(0.005, 0.035)
        for year in range(2010, 2020):
            gdp = round(base * (1.0 + growth) ** (year - 2010), 2)
            economics.append(CountryEconomics(code, year, gdp, round(pop, 0), _income_group(base)))

    stocks = []
    for origin, _, _ in origins:
        male = rng.uniform(0.1, 0.9)
        for dest, _, _ in destinations:
            base = 10.0 ** rng.uniform(3.6, 5.2)
            for sex, frac in zip(SEXES, (male, 1.0 - male)):
                a2010 = base * frac
                a2015 = a2010 * rng.uniform(0.75, 1.5)
                a2020 = a2015 * rng.uniform(0.75, 1.5)
                for year, count in ((2010, a2010), (2015, a2015), (2020, a2020)):
                    stocks.append(MigrantStockRecord(origin, dest, sex, year, round(count, 3)))

    age_profiles = [AgeProfile(sex, age, float(shares[age]))
                    for sex, shares in zip(SEXES, (_discretized_normal(30.0, 10.0, 1e-4),
                                                   _discretized_normal(36.0, 15.0, 1e-4)))
                    for age in range(N_AGES)]

    surplus_profiles = []
    scaled = [(GLOBAL_SURPLUS, 1.0)] + [(destinations[i][0], s)
                                        for i, s in ((0, 1.25), (1, 0.9), (4, 0.8))]
    for country, scale in scaled:
        curve = _surplus_curve(scale)
        surplus_profiles.extend(SurplusProfile(country, age, float(curve[age])) for age in range(N_AGES))

    pop_of = {(c.country, c.year): c.population for c in economics}
    disasters = []
    for k in range(SCALE_EVENTS):
        code = origins[int(rng.integers(SCALE_ORIGINS))][0]
        onset = int(rng.integers(WINDOW_MONTHS))
        share = rng.uniform(0.05, 0.45)
        disasters.append(DisasterEvent(f"EV-{k:03d}", code, onset, HAZARDS[k % len(HAZARDS)],
                                       round(share * pop_of[(code, 2010 + onset // 12)], 0)))

    partial = Dataset(economics=tuple(economics), stocks=tuple(stocks),
                      age_profiles=tuple(age_profiles), surplus_profiles=tuple(surplus_profiles),
                      disasters=tuple(disasters), panel=())
    panel = tuple(obs for obs in fixtures.generate_panel(partial, REFERENCE_PARAMS)
                  if obs.month >= SCALE_PANEL_FROM)
    return Dataset(economics=partial.economics, stocks=partial.stocks,
                   age_profiles=partial.age_profiles, surplus_profiles=partial.surplus_profiles,
                   disasters=partial.disasters, panel=panel)


def write_reference_calibration(path: Path) -> Path:
    """A calibration.json holding the parameters that generated the panels."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"params": REFERENCE_PARAMS.as_dict()}, indent=2, sort_keys=True)
                    + "\n", encoding="utf-8")
    return path


def write_run_config(path: Path, **values) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    return path


def make_inputs(kind: str, seed: int, data_dir: Path) -> Path:
    """Write the ``kind`` ("desk" or "scale") dataset for ``seed`` into ``data_dir``.

    Returns the path of the reference calibration.json written beside it.
    """
    if kind == "desk":
        fixtures.generate_fixture(data_dir, seed=seed)
    elif kind == "scale":
        write_dataset(build_scale_dataset(seed), data_dir)
    else:
        raise ValueError(f"unknown input kind {kind!r}")
    write_run_config(data_dir / "run.config", band_draws=0 if kind == "scale" else BAND_DRAWS)
    return write_reference_calibration(data_dir / "reference" / "calibration.json")
