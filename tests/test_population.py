"""Cohort allocation, pyramid symmetries, and sender demographics."""
from __future__ import annotations

import csv
import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import MigrantCohort, age_symmetry, family_probability, sex_symmetry
from remitsim.dataio import N_AGES, SEXES, AgeProfile
from remitsim.engine import SimulationContext
from remitsim.months import month_label, year_of
from remitsim.population import build_population, demographics_arrays, sender_demographics
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

def _with_ages(dataset, male: dict[int, float], female: dict[int, float]) -> SimulationContext:
    """A context of ``dataset`` under the age shares ``male`` and ``female`` (age: share)."""
    profiles = [AgeProfile(sex, age, share) for sex, shares in zip(SEXES, (male, female))
                for age, share in shares.items()]
    return SimulationContext(dataclasses.replace(dataset, age_profiles=tuple(profiles)))


def test_degenerate_profile_single_age(small_dataset):
    ctx = _with_ages(small_dataset, {30: 1.0}, {30: 1.0})
    c = ctx.corridor_index("AAA", "BBB")
    cohorts = [x for x in oracles.cohorts(ctx.dataset, ctx.stocks, "AAA", "BBB", 0) if x.count > 0]
    assert [(c.sex, c.age) for c in cohorts] == [("male", 30), ("female", 30)]
    counts = ctx.cohort_counts(c, 0)
    assert counts.shape == (2, 101)
    assert np.flatnonzero(counts[0]).tolist() == [30] and counts[0, 30] == ctx.stocks[c, 0, 0]


def test_uniform_profile_split(small_dataset):
    uniform = dict.fromkeys(range(100), 0.01)  # uniform over 100 ages
    ctx = _with_ages(small_dataset, uniform, uniform)
    c = ctx.corridor_index("AAA", "BBB")
    counts = ctx.cohort_counts(c, 0)
    assert np.allclose(counts[0, :100], ctx.stocks[c, 0, 0] / 100)
    assert counts[0, 100] == 0.0


def test_counts_equal_stock_times_share(small_dataset):
    ctx = SimulationContext(small_dataset)
    series = monthly_by_key(small_dataset.stocks)
    for month in (0, 17, 60, 119):
        counts = ctx.cohort_counts(ctx.corridor_index("AAA", "BBB"), month)
        for s, sex in enumerate(("male", "female")):
            stock = series[("AAA", "BBB", sex)][month]
            expected = stock * small_dataset.age_shares[sex]
            assert np.allclose(counts[s], expected, rtol=1e-12)


def test_cohort_counts_index_as_numpy_does(desk_ctx):
    """One corridor-month, rows at one month, all rows over a window: the
    products of the corridor-month's counts, in the stock grid's layout."""
    rows = desk_ctx.origin_groups["OGA"]
    one = desk_ctx.cohort_counts(3, 40)
    assert one.shape == (2, 101) and one.size == 202
    assert _bits(desk_ctx.cohort_counts(rows, 40)) == _bits(
        np.stack([desk_ctx.cohort_counts(c, 40) for c in rows]))
    window = desk_ctx.cohort_counts(slice(None), slice(38, 41))
    assert window.shape == (desk_ctx.n_corridors, 3, 2, 101)
    assert _bits(window[3, 2]) == _bits(one)
    for s in range(2):
        assert _bits(one[s]) == _bits(desk_ctx.stocks[3, 40, s] * desk_ctx.shares[s])


def _bits(arr: np.ndarray) -> bytes:
    return arr.dtype.str.encode() + arr.tobytes()


def test_mass_conservation(desk_dataset, desk_ctx):
    series = monthly_by_key(desk_dataset.stocks)
    rng = np.random.default_rng(0)
    for _ in range(25):
        c = int(rng.integers(desk_ctx.n_corridors))
        m = int(rng.integers(120))
        origin, dest = desk_ctx.corridors[c]
        counts = desk_ctx.cohort_counts(c, m)
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


def test_vectorized_demographics_match_scalar(desk_dataset, desk_ctx):
    age_sym, sex_sym, asym = demographics_arrays(desk_ctx.stocks, desk_ctx.shares)
    assert _bits(asym) == _bits(desk_ctx.family)
    rng = np.random.default_rng(1)
    for _ in range(20):
        c = int(rng.integers(desk_ctx.n_corridors))
        m = int(rng.integers(120))
        origin, dest = desk_ctx.corridors[c]
        demo = family_probability(oracles.cohorts(desk_dataset, desk_ctx.stocks, origin, dest, m))
        if demo is None:
            continue
        assert age_sym[c, m] == pytest.approx(demo.age_symmetry, rel=1e-9)
        assert sex_sym[c, m] == pytest.approx(demo.sex_symmetry, rel=1e-9)
        assert asym[c, m] == pytest.approx(demo.asymmetry, rel=1e-9)


def test_demographics_grid_omits_empty_and_keeps_the_window(small_dataset):
    ctx = SimulationContext(small_dataset)
    rows = list(demographics_grid(ctx).cells())
    assert len(rows) == 2 * 120  # both corridors populated every month
    assert all(0.0 <= r[6] <= 1.0 for r in rows)
    empty = SimulationContext(small_dataset, start=3, end=9)
    empty.stocks = empty.stocks.copy()
    empty.stocks[1, 5:] = 0.0
    rows = list(demographics_grid(empty).cells())
    assert [(r[1], r[2]) for r in rows] == [
        *((ctx.corridors[0][1], month_label(m)) for m in range(3, 10)),
        *((ctx.corridors[1][1], month_label(m)) for m in range(3, 5))]


def test_demographics_grid_equals_cell_by_cell_rows(desk_dataset):
    ctx = SimulationContext(desk_dataset, start=24, end=59)
    age_sym, sex_sym, asym = demographics_arrays(ctx.stocks, ctx.shares)
    want = [[origin, dest, month_label(m), float(age_sym[c, m]), float(sex_sym[c, m]),
             float(asym[c, m]), float(asym[c, m])]
            for c, (origin, dest) in enumerate(ctx.corridors) for m in range(24, 60)
            if ctx.stocks[c, m].sum() > 0]
    assert list(demographics_grid(ctx).cells()) == want
    buffer = io.StringIO(newline="")
    csv.writer(buffer, lineterminator="\n").writerows([fmt_cell(v) for v in row] for row in want)
    assert b"".join(demographics_grid(ctx).blocks()) == buffer.getvalue().encode()


# ---------------------------------------------------------------------------
# Sender demographics

def test_uniform_probabilities_reproduce_population_shares(small_dataset):
    cohorts = oracles.cohorts(small_dataset, build_population(small_dataset), "AAA", "BBB", 0)
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
    stocks = build_population(desk_dataset)
    cohorts = []
    for corridor in [("OGA", "DNA"), ("OGC", "DNE"), ("OGJ", "DNB")]:
        cohorts.extend(oracles.cohorts(desk_dataset, stocks, *corridor, 36))
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


@pytest.mark.parametrize("start, end", [(59, 60), (119, 119)])
def test_population_grid_equals_cell_by_cell_rows(desk_dataset, start, end):
    ctx = SimulationContext(desk_dataset, start=start, end=end)
    shares = desk_dataset.age_shares
    want = []
    for c, (origin, destination) in enumerate(ctx.corridors):
        for month in range(start, end + 1):
            for s, sex in enumerate(SEXES):
                for age in np.nonzero(shares[sex])[0]:
                    count = ctx.stocks[c, month, s] * shares[sex][age]
                    want.append((origin, destination, sex, str(age), month_label(month),
                                 repr(float(count))))
    assert [tuple(fmt_cell(v) for v in row) for row in population_grid(ctx).cells()] == want
    buffer = io.StringIO(newline="")
    csv.writer(buffer, lineterminator="\n").writerows(want)
    assert b"".join(population_grid(ctx).blocks()) == buffer.getvalue().encode()
