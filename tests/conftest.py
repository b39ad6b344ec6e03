"""Shared fixtures: a tiny hand-written dataset, the desk-scale synthetic
dataset, and a per-cohort brute-force flow oracle independent of the engine."""
from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np
import pytest
from hypothesis import settings

import oracles
from remitsim import behavior, fixtures
from remitsim.behavior import BehaviorParams
from remitsim.dataio import (PANEL_YEARS, SEXES, Dataset, FlowObservation, Panel, Stocks,
                             load_dataset)
from remitsim.engine import SimulationContext
from remitsim.months import year_of
from remitsim.population import build_population, interpolate_stocks_monthly

# Under HYPOTHESIS_PROFILE=ci the properties draw the same examples on every
# run and print the blob that replays a failure, so a CI failure reproduces.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# ---------------------------------------------------------------------------
# Minimal hand-written CSV fixture (2 corridors, 1 event)

def _surplus_rows(country: str, adult_value: float = 1.0) -> str:
    lines = []
    for age in range(101):
        value = 0.0 if age < 16 else adult_value
        lines.append(f"{country},{age},{value}")
    return "\n".join(lines)


def small_csv_texts() -> dict[str, str]:
    economics = ["country,year,gdp_per_capita,population,income_group"]
    for year in range(2010, 2020):
        economics.append(f"AAA,{year},10000,1000000,lower-middle")
        economics.append(f"BBB,{year},40000,2000000,high")
        economics.append(f"CCC,{year},30000,5000000,upper-middle")
    stocks = [
        "origin,destination,sex,anchor_year,count",
        "AAA,BBB,male,2010,1000", "AAA,BBB,male,2015,1200", "AAA,BBB,male,2020,1400",
        "AAA,BBB,female,2010,800", "AAA,BBB,female,2015,900", "AAA,BBB,female,2020,1000",
        "AAA,CCC,male,2010,500", "AAA,CCC,male,2015,450", "AAA,CCC,male,2020,400",
        "AAA,CCC,female,2010,500", "AAA,CCC,female,2015,550", "AAA,CCC,female,2020,600",
    ]
    ages = [
        "sex,age,share",
        "male,30,0.6", "male,40,0.4",
        "female,20,0.5", "female,35,0.5",
    ]
    surplus = ["country,age,surplus", _surplus_rows("GLOBAL_DEFAULT")]
    disasters = [
        "event_id,country,onset_month,hazard,affected",
        "EV1,AAA,2012-03,flood,100000",
    ]
    panel = ["sender,recipient,month,amount_usd"]
    for month in ("2010-01", "2010-02", "2010-03", "2011-06", "2012-03", "2012-07"):
        panel.append(f"BBB,AAA,{month},500000")
        panel.append(f"CCC,AAA,{month},200000")
    return {
        "economics.csv": "\n".join(economics) + "\n",
        "stocks.csv": "\n".join(stocks) + "\n",
        "age_profiles.csv": "\n".join(ages) + "\n",
        "surplus_profiles.csv": "\n".join(surplus) + "\n",
        "disasters.csv": "\n".join(disasters) + "\n",
        "panel.csv": "\n".join(panel) + "\n",
    }


def write_csv_dir(directory: Path, texts: dict[str, str]) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory


@pytest.fixture
def small_dir(tmp_path: Path) -> Path:
    return write_csv_dir(tmp_path / "data", small_csv_texts())


@pytest.fixture
def small_dataset(small_dir: Path) -> Dataset:
    return load_dataset(small_dir)


@pytest.fixture(scope="session")
def desk_dataset() -> Dataset:
    return fixtures.build_dataset(seed=7)


@pytest.fixture(scope="session")
def desk_ctx(desk_dataset: Dataset) -> SimulationContext:
    return SimulationContext(desk_dataset)


# ---------------------------------------------------------------------------
# Brute-force oracle: per-cohort scalar evaluation, independent of the engine

def brute_force_flow(dataset: Dataset, params: BehaviorParams, origin: str, dest: str,
                     month: int, *, clamp: bool = False,
                     active_ids: frozenset | None = None) -> float:
    """Expected corridor-month flow summed cohort by cohort via the scalar ops."""
    cohorts = oracles.cohorts(dataset, build_population(dataset), origin, dest, month)
    demo = oracles.family_probability(cohorts)
    family = demo.family if demo is not None else 1.0
    year = year_of(month)
    gap = oracles.delta_gdp(dataset.gdp[(dest, year)], dataset.gdp[(origin, year)], clamp=clamp)

    origins = sorted({o for o, _ in dataset.corridors})
    years = sorted(range(2010, 2020))
    normed = behavior.gdp_norm([dataset.gdp[(o, y)] for o in origins for y in years])
    gnorm = float(normed[origins.index(origin) * len(years) + years.index(year)])

    score = 0.0
    for event in oracles.events_by_country(dataset).get(origin, ()):
        if active_ids is not None and event.event_id not in active_ids:
            continue
        pop = dataset.population[(event.country, year_of(event.onset_month))]
        magnitude = min(event.affected / pop, 1.0)
        score += oracles.kernel_value(magnitude, month - event.onset_month, params)

    surplus = oracles.surplus_profile(dataset, dest)
    monthly_income = dataset.gdp[(dest, year)] / 12.0
    total = 0.0
    for cohort in cohorts:
        cov = oracles.CovariateVector(surplus=float(surplus[cohort.age]), family=family,
                                      delta_gdp=gap, gdp_norm=gnorm, disaster_score=score)
        p = oracles.probability(oracles.theta(cov, params))
        total += cohort.count * p * params.rho * monthly_income
    return total


def monthly_by_key(stocks) -> dict[tuple[str, str, str], np.ndarray]:
    """The monthly series of ``interpolate_stocks_monthly(stocks)``, a Stocks
    table or a sequence of records, by (origin, destination, sex), at each
    series present, in corridor order and then SEXES order."""
    table = stocks if isinstance(stocks, Stocks) else Stocks.from_columns(*zip(*stocks))
    grid = interpolate_stocks_monthly(table)
    present = sorted(set(zip(table._corridor_keys[1].tolist(), table.sex.tolist())))
    return {(*table.corridors[c], SEXES[s]): grid[c, :, s] for c, s in present}


def aligned(mapping: Mapping[tuple[str, str, int], float], panel: Panel) -> np.ndarray:
    """``mapping[(sender, recipient, month)]`` per observation, in panel order;
    NaN where ``mapping`` has no value."""
    return np.array([mapping.get(obs[:3], np.nan) for obs in panel], dtype=float)


def gravity_grid(gravity: Mapping[int, Mapping[tuple[str, str], float]]
                 ) -> tuple[list[tuple[str, str]], np.ndarray]:
    """A year -> {(sender, recipient): annual USD} mapping as
    ``baseline.compare_models`` takes it: (origin, destination) corridors and
    their (corridors, 10 years) array from 2010, NaN where the mapping has no value."""
    pairs = sorted({pair for by_pair in gravity.values() for pair in by_pair})
    grid = np.full((len(pairs), len(PANEL_YEARS)), np.nan)
    for year, by_pair in gravity.items():
        for pair, value in by_pair.items():
            grid[pairs.index(pair), year - PANEL_YEARS[0]] = value
    return [(recipient, sender) for sender, recipient in pairs], grid


def panel_of(records: Iterable[FlowObservation]) -> Panel:
    """A Panel of FlowObservation records, split tags included."""
    records = tuple(records)
    return Panel.from_columns(*(zip(*records) if records else [()] * len(Panel._COLUMNS)))
