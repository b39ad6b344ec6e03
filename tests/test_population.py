"""Cohort allocation, pyramid symmetries, and sender demographics."""
from __future__ import annotations

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import MigrantCohort, age_symmetry, family_probability, sex_symmetry
from remitsim.dataio import N_AGES, SEXES
from remitsim.months import month_label, year_of
from remitsim.population import (Population, build_population, demographics_arrays,
                                 sender_demographics)
from remitsim.reports import demographics_grid, fmt_cell, population_grid

from conftest import monthly_by_key


def _cohort(count, *, sex="male", age=30, origin="AAA", dest="BBB", month=0):
    return MigrantCohort(origin, dest, sex, age, month, float(count))


def _weights(cohorts, probs, dataset):
    """sender_demographics arguments with each cohort in its own weight row."""
    weights = np.zeros((len(cohorts), len(SEXES), N_AGES))
    for i, (c, p) in enumerate(zip(cohorts, probs, strict=True)):
        weights[i, SEXES.index(c.sex), c.age] = c.count * p
    groups = [dataset.income_group[(c.origin, year_of(c.month))] for c in cohorts]
    return weights, groups


def _band_cohorts(young=0.0, parenting=0.0, older=0.0, sex="male"):
    out = []
    if young:
        out.append(_cohort(young, sex=sex, age=20))
    if parenting:
        out.append(_cohort(parenting, sex=sex, age=30))
    if older:
        out.append(_cohort(older, sex=sex, age=60))
    return out


# ---------------------------------------------------------------------------
# Proportional allocation

def test_degenerate_profile_single_age():
    shares = {"male": np.zeros(101), "female": np.zeros(101)}
    shares["male"][30] = 1.0
    shares["female"][30] = 1.0
    stocks = np.zeros((1, 1, 2))
    stocks[0, 0, 0] = 1000.0
    pop = Population([("AAA", "BBB")], stocks, shares)
    cohorts = [c for c in oracles.cohorts(pop, "AAA", "BBB", 0) if c.count > 0]
    assert len(cohorts) == 1
    assert cohorts[0].age == 30 and cohorts[0].count == 1000.0


def test_uniform_profile_split():
    shares = {"male": np.zeros(101), "female": np.zeros(101)}
    shares["male"][:100] = 0.01  # uniform over 100 ages
    shares["female"][:100] = 0.01
    stocks = np.zeros((1, 1, 2))
    stocks[0, 0, 0] = 1000.0
    pop = Population([("AAA", "BBB")], stocks, shares)
    counts = pop.counts(0, 0)
    assert np.allclose(counts[0, :100], 10.0)
    assert counts[0, 100] == 0.0


def test_counts_equal_stock_times_share(small_dataset):
    pop = build_population(small_dataset)
    series = monthly_by_key(small_dataset.stocks)
    for month in (0, 17, 60, 119):
        counts = pop.counts(pop.corridor_index("AAA", "BBB"), month)
        for s, sex in enumerate(("male", "female")):
            stock = series[("AAA", "BBB", sex)][month]
            expected = stock * small_dataset.age_shares[sex]
            assert np.allclose(counts[s], expected, rtol=1e-12)


def test_mass_conservation(desk_dataset):
    pop = build_population(desk_dataset)
    series = monthly_by_key(desk_dataset.stocks)
    rng = np.random.default_rng(0)
    for _ in range(25):
        c = int(rng.integers(len(pop.corridors)))
        m = int(rng.integers(120))
        origin, dest = pop.corridors[c]
        counts = pop.counts(c, m)
        for s, sex in enumerate(("male", "female")):
            stock = series[(origin, dest, sex)][m]
            assert counts[s].sum() == pytest.approx(stock, rel=1e-6)


# ---------------------------------------------------------------------------
# Symmetries and the family proxy

def test_age_symmetry_examples():
    assert age_symmetry(_band_cohorts(young=500, parenting=500)) == 1.0
    assert age_symmetry(_band_cohorts(young=100, parenting=300)) == 0.5
    assert age_symmetry(_band_cohorts(young=0, parenting=400)) == 0.0


def test_age_band_boundaries():
    # 24 young; 25 and 50 parenting; 51+ in neither band
    assert age_symmetry([_cohort(100, age=24), _cohort(100, age=25)]) == 1.0
    assert age_symmetry([_cohort(100, age=50), _cohort(100, age=24)]) == 1.0
    assert age_symmetry([_cohort(100, age=51), _cohort(100, age=30)]) == 0.0
    assert age_symmetry([_cohort(100, age=51)]) == 0.0  # zero denominator


def test_sex_symmetry_examples():
    assert sex_symmetry([_cohort(50, sex="male"), _cohort(50, sex="female")]) == 1.0
    assert sex_symmetry([_cohort(30, sex="male"), _cohort(10, sex="female")]) == 0.5
    assert sex_symmetry([_cohort(30, sex="male")]) == 0.0


def test_family_probability_examples():
    balanced = [_cohort(250, sex="male", age=20), _cohort(250, sex="male", age=30),
                _cohort(250, sex="female", age=20), _cohort(250, sex="female", age=30)]
    demo = family_probability(balanced)
    assert demo.asymmetry == pytest.approx(0.0)
    assert demo.family == demo.asymmetry

    # sex symmetry 0.5 and age symmetry 0.5 combine to asymmetry 0.75
    skewed = [_cohort(30, sex="male", age=20), _cohort(90, sex="male", age=30),
              _cohort(10, sex="female", age=20), _cohort(30, sex="female", age=30)]
    demo = family_probability(skewed)
    assert demo.sex_symmetry == pytest.approx(0.5)
    assert demo.age_symmetry == pytest.approx(0.5)
    assert demo.asymmetry == pytest.approx(0.75)

    all_male_young = [_cohort(500, sex="male", age=20)]
    assert family_probability(all_male_young).family == 1.0


def test_family_probability_empty():
    assert family_probability([]) is None
    assert family_probability([_cohort(0.0)]) is None


def test_zero_denominator_settled_population():
    # nobody under 51: age symmetry 0 so asymmetry is 1
    demo = family_probability([_cohort(100, sex="male", age=60), _cohort(100, sex="female", age=70)])
    assert demo.age_symmetry == 0.0
    assert demo.asymmetry == 1.0


counts = st.floats(min_value=0, max_value=1e9, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(young=counts, parenting=counts, male_extra=counts)
def test_symmetry_bounds_and_permutation(young, parenting, male_extra):
    # the age-60 cohort sits outside both age bands
    cohorts = [_cohort(young, sex="male", age=20), _cohort(parenting, sex="male", age=30),
               _cohort(male_extra, sex="female", age=60)]
    a = age_symmetry(cohorts)
    s = sex_symmetry(cohorts)
    assert 0.0 <= a <= 1.0
    assert 0.0 <= s <= 1.0
    # swapping the bands leaves the age symmetry unchanged
    swapped = [_cohort(parenting, sex="male", age=20), _cohort(young, sex="male", age=30),
               _cohort(male_extra, sex="female", age=60)]
    assert age_symmetry(swapped) == pytest.approx(a, abs=1e-12)
    # swapping the sexes leaves the sex symmetry unchanged
    flipped = [_cohort(young, sex="female", age=20), _cohort(parenting, sex="female", age=30),
               _cohort(male_extra, sex="male", age=60)]
    assert sex_symmetry(flipped) == pytest.approx(s, abs=1e-12)
    demo = family_probability(cohorts)
    if demo is not None:
        assert 0.0 <= demo.asymmetry <= 1.0
        assert demo.family == demo.asymmetry


def test_vectorized_demographics_match_scalar(desk_dataset):
    pop = build_population(desk_dataset)
    age_sym, sex_sym, asym = demographics_arrays(pop)
    rng = np.random.default_rng(1)
    for _ in range(20):
        c = int(rng.integers(len(pop.corridors)))
        m = int(rng.integers(120))
        origin, dest = pop.corridors[c]
        demo = family_probability(oracles.cohorts(pop, origin, dest, m))
        if demo is None:
            continue
        assert age_sym[c, m] == pytest.approx(demo.age_symmetry, rel=1e-9)
        assert sex_sym[c, m] == pytest.approx(demo.sex_symmetry, rel=1e-9)
        assert asym[c, m] == pytest.approx(demo.asymmetry, rel=1e-9)


def test_demographics_grid_omits_empty_and_keeps_the_window(small_dataset):
    pop = build_population(small_dataset)
    rows = list(demographics_grid(pop, 0, pop.n_months - 1).cells())
    assert len(rows) == 2 * 120  # both corridors populated every month
    assert all(0.0 <= r[6] <= 1.0 for r in rows)
    empty = Population(pop.corridors, pop.stocks.copy(), pop.shares)
    empty.stocks[1, 5:] = 0.0
    rows = list(demographics_grid(empty, 3, 9).cells())
    assert [(r[1], r[2]) for r in rows] == [
        *((pop.corridors[0][1], month_label(m)) for m in range(3, 10)),
        *((pop.corridors[1][1], month_label(m)) for m in range(3, 5))]


def test_demographics_grid_equals_cell_by_cell_rows(desk_dataset):
    pop = build_population(desk_dataset)
    age_sym, sex_sym, asym = demographics_arrays(pop)
    want = [[origin, dest, month_label(m), float(age_sym[c, m]), float(sex_sym[c, m]),
             float(asym[c, m]), float(asym[c, m])]
            for c, (origin, dest) in enumerate(pop.corridors) for m in range(24, 60)
            if pop.stocks[c, m].sum() > 0]
    assert list(demographics_grid(pop, 24, 59).cells()) == want
    buffer = io.StringIO(newline="")
    csv.writer(buffer, lineterminator="\n").writerows([fmt_cell(v) for v in row] for row in want)
    assert b"".join(demographics_grid(pop, 24, 59).blocks()) == buffer.getvalue().encode()


# ---------------------------------------------------------------------------
# Sender demographics

def test_uniform_probabilities_reproduce_population_shares(small_dataset):
    pop = build_population(small_dataset)
    cohorts = oracles.cohorts(pop, "AAA", "BBB", 0)
    probs = [0.4] * len(cohorts)
    rows = sender_demographics(*_weights(cohorts, probs, small_dataset))
    total = sum(c.count for c in cohorts)
    male = sum(c.count for c in cohorts if c.sex == "male")
    all_row = next(r for r in rows if r.group == "ALL")
    assert all_row.male_share == pytest.approx(male / total)
    assert all_row.expected_senders == pytest.approx(0.4 * total)


def test_degenerate_sender_shares():
    cohorts = [_cohort(60, sex="male"), _cohort(40, sex="female")]
    rows = sender_demographics(*_weights(cohorts, [1.0, 0.0], _income_dataset()))
    all_row = next(r for r in rows if r.group == "ALL")
    assert all_row.male_share == 1.0
    assert all_row.female_share == 0.0


def test_weighted_average_oracle(desk_dataset):
    pop = build_population(desk_dataset)
    cohorts = []
    for corridor in [("OGA", "DNA"), ("OGC", "DNE"), ("OGJ", "DNB")]:
        cohorts.extend(oracles.cohorts(pop, *corridor, 36))
    rng = np.random.default_rng(2)
    probs = rng.uniform(0, 1, size=len(cohorts)).tolist()
    rows = sender_demographics(*_weights(cohorts, probs, desk_dataset))
    # brute-force per-cohort summation
    w = [c.count * p for c, p in zip(cohorts, probs)]
    total = sum(w)
    male = sum(wi for wi, c in zip(w, cohorts) if c.sex == "male")
    mean_age = sum(wi * c.age for wi, c in zip(w, cohorts)) / total
    band = sum(wi for wi, c in zip(w, cohorts) if 20 <= c.age <= 39)
    all_row = next(r for r in rows if r.group == "ALL")
    assert all_row.male_share == pytest.approx(male / total, rel=1e-9)
    assert all_row.mean_age == pytest.approx(mean_age, rel=1e-9)
    assert all_row.share_20_39 == pytest.approx(band / total, rel=1e-9)
    groups = {r.group for r in rows}
    assert "ALL" in groups and len(groups) > 1


def test_zero_expected_senders_flagged():
    cohorts = [_cohort(100, sex="male")]
    rows = sender_demographics(*_weights(cohorts, [0.0], _income_dataset()))
    assert all(r.empty for r in rows)
    assert all(r.expected_senders == 0.0 for r in rows)


def _income_dataset():
    """Tiny stand-in exposing just the income_group mapping."""
    class Stub:
        income_group = {("AAA", year): "lower-middle" for year in range(2010, 2020)}
    return Stub()


def test_population_grid_equals_cell_by_cell_rows(desk_dataset):
    pop = build_population(desk_dataset)
    months = [59, 60, 119]
    want = []
    for c, (origin, destination) in enumerate(pop.corridors):
        for month in months:
            for s, sex in enumerate(SEXES):
                for age in np.nonzero(pop.shares[sex])[0]:
                    count = pop.stocks[c, month, s] * pop.shares[sex][age]
                    want.append((origin, destination, sex, str(age), month_label(month),
                                 repr(float(count))))
    assert [tuple(fmt_cell(v) for v in row) for row in population_grid(pop, months).cells()] == want
    buffer = io.StringIO(newline="")
    csv.writer(buffer, lineterminator="\n").writerows(want)
    assert b"".join(population_grid(pop, months).blocks()) == buffer.getvalue().encode()
