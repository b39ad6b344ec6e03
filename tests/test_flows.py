"""Expected flows, the binomial sampler, its per-cell draw, the induced
coupling, and percentile bands."""
from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

import oracles
from oracles import expected_flow, sample_flows
from remitsim import flows as flows_module
from remitsim import reports
from remitsim.behavior import REFERENCE_PARAMS, BehaviorParams
from remitsim.dataio import N_AGES
from remitsim.engine import SimulationContext, scenario_none
from remitsim.flows import (UncertaintyBand, confidence_band, corridor_seed,
                            sample_induced_totals, sample_monthly_totals)
from remitsim.months import month_index

from conftest import brute_force_flow

PARAMS = REFERENCE_PARAMS
BANDS_WINDOW = (month_index("2016-07"), month_index("2016-12"))


def test_expected_flow_closed_form():
    # 1000 migrants at P=0.5, rho 0.18, monthly income 3000
    value = expected_flow([1000.0], [0.5], PARAMS, 3000.0)
    assert value == pytest.approx(270_000.0, rel=1e-12)


def test_expected_flow_zero_probability():
    assert expected_flow([500.0, 600.0], [0.0, 0.0], PARAMS, 3000.0) == 0.0


def test_expected_flow_linear_in_cohorts():
    one = expected_flow([100.0], [0.3], PARAMS, 2500.0)
    two = expected_flow([40.0], [0.7], PARAMS, 2500.0)
    both = expected_flow([100.0, 40.0], [0.3, 0.7], PARAMS, 2500.0)
    assert both == pytest.approx(one + two, rel=1e-12)


def test_expected_flow_shape_mismatch():
    with pytest.raises(ValueError):
        expected_flow([1.0, 2.0], [0.5], PARAMS, 100.0)


# ---------------------------------------------------------------------------
# Flow grids

def test_single_corridor_matrix(small_dataset):
    ctx = SimulationContext(small_dataset)
    flows = ctx.expected_flows(PARAMS)
    assert flows.shape[1] == 120
    month = 30
    entry = flows[ctx.corridor_index("AAA", "BBB"), month]
    oracle = brute_force_flow(small_dataset, PARAMS, "AAA", "BBB", month)
    assert entry == pytest.approx(oracle, rel=1e-9)


def test_matrices_match_brute_force(desk_dataset, desk_ctx):
    flows = desk_ctx.expected_flows(PARAMS)
    rng = np.random.default_rng(5)
    for _ in range(8):
        c = int(rng.integers(desk_ctx.n_corridors))
        m = int(rng.integers(120))
        origin, dest = desk_ctx.corridors[c]
        oracle = brute_force_flow(desk_dataset, PARAMS, origin, dest, m)
        assert flows[c, m] == pytest.approx(oracle, rel=1e-9)


def test_empty_filter_is_identity(desk_ctx, desk_dataset):
    all_ids = frozenset(e.event_id for e in desk_dataset.disasters)
    with_all = desk_ctx.expected_flows(PARAMS, all_ids)
    default = desk_ctx.expected_flows(PARAMS, None)
    assert np.array_equal(with_all, default)


# ---------------------------------------------------------------------------
# Sampler

def test_two_agent_enumeration():
    # two agents at P=0.5: senders are 0/1/2 with probability 1/4, 1/2, 1/4
    params = BehaviorParams(0, 0, 0, 0, 0, 0, 0, 0, rho=0.5)
    totals = sample_flows([1.0, 1.0], [0.5, 0.5], params, 2.0, seed=9, draws=100_000)
    senders = np.rint(totals / (params.rho * 2.0)).astype(int)
    freq = np.bincount(senders, minlength=3) / senders.size
    # 4 sigma of a binomial proportion at 100k draws is under 0.007
    assert freq[0] == pytest.approx(0.25, abs=0.007)
    assert freq[1] == pytest.approx(0.50, abs=0.007)
    assert freq[2] == pytest.approx(0.25, abs=0.007)


def test_certain_senders_zero_variance():
    totals = sample_flows([10.0, 5.0], [1.0, 1.0], PARAMS, 1000.0, seed=1, draws=500)
    assert totals.std() == 0.0
    assert totals[0] == pytest.approx(15 * PARAMS.rho * 1000.0)


def test_sampler_mean_within_clt_bound():
    rng = np.random.default_rng(6)
    counts = np.rint(rng.uniform(20, 400, size=150))
    probs = rng.uniform(0.05, 0.95, size=150)
    gdpm = 2800.0
    draws = 10_000
    totals = sample_flows(counts, probs, PARAMS, gdpm, seed=77, draws=draws)
    exact_mean = expected_flow(counts, probs, PARAMS, gdpm)
    var_senders = float((counts * probs * (1 - probs)).sum())
    se = PARAMS.rho * gdpm * np.sqrt(var_senders / draws)
    assert abs(totals.mean() - exact_mean) <= 3 * se


def test_sampler_variance_matches_formula():
    rng = np.random.default_rng(7)
    counts = np.rint(rng.uniform(20, 400, size=100))
    probs = rng.uniform(0.05, 0.95, size=100)
    totals = sample_flows(counts, probs, PARAMS, 1000.0, seed=13, draws=100_000)
    senders = totals / (PARAMS.rho * 1000.0)
    expected_var = float((counts * probs * (1 - probs)).sum())
    assert senders.var() == pytest.approx(expected_var, rel=0.05)


def test_sampler_determinism():
    a = sample_flows([50.0, 60.0], [0.3, 0.6], PARAMS, 900.0, seed=42, draws=200)
    b = sample_flows([50.0, 60.0], [0.3, 0.6], PARAMS, 900.0, seed=42, draws=200)
    assert np.array_equal(a, b)
    c = sample_flows([50.0, 60.0], [0.3, 0.6], PARAMS, 900.0, seed=43, draws=200)
    assert not np.array_equal(a, c)


def test_sampler_rejects_zero_draws():
    with pytest.raises(ValueError):
        sample_flows([1.0], [0.5], PARAMS, 100.0, seed=0, draws=0)


# ---------------------------------------------------------------------------
# The same sampler identities through the production sampler, which merges the
# two sexes of an age and draws one binomial per age

def _production_totals(small_dataset, monkeypatch, counts, probs, params, seed, draws):
    """Sampled USD totals of one corridor-month with (2, 101) cohort ``counts`` and
    per-age ``probs``, drawn by ``flows._sample_cells``; and the monthly income."""
    month = 30
    ctx = SimulationContext(small_dataset, start=month, end=month)
    monkeypatch.setattr(ctx, "cohort_counts", lambda c, m: counts)
    cube = np.zeros((ctx.n_corridors, 1, N_AGES))
    cube[0, 0] = probs
    totals = flows_module._sample_cells(ctx, params, np.arange(ctx.n_corridors), cube, seed,
                                        draws)[:, 0]
    return totals, float(ctx.monthly_income[0, month])


def test_two_agent_enumeration_production(small_dataset, monkeypatch):
    # two agents of different ages at P=0.5: senders are 0/1/2 with probability 1/4, 1/2, 1/4
    params = BehaviorParams(0, 0, 0, 0, 0, 0, 0, 0, rho=0.5)
    counts = np.zeros((2, N_AGES))
    counts[0, 30] = counts[1, 45] = 1.0
    probs = np.zeros(N_AGES)
    probs[[30, 45]] = 0.5
    totals, gdpm = _production_totals(small_dataset, monkeypatch, counts, probs, params,
                                      seed=9, draws=100_000)
    senders = np.rint(totals / (params.rho * gdpm)).astype(int)
    freq = np.bincount(senders, minlength=3) / senders.size
    # 4 sigma of a binomial proportion at 100k draws is under 0.007
    assert freq[0] == pytest.approx(0.25, abs=0.007)
    assert freq[1] == pytest.approx(0.50, abs=0.007)
    assert freq[2] == pytest.approx(0.25, abs=0.007)


def test_sampler_mean_within_clt_bound_production(small_dataset, monkeypatch):
    rng = np.random.default_rng(6)
    counts = np.rint(rng.uniform(20, 400, size=(2, N_AGES)))
    probs = rng.uniform(0.05, 0.95, size=N_AGES)
    draws = 10_000
    totals, gdpm = _production_totals(small_dataset, monkeypatch, counts, probs, PARAMS,
                                      seed=77, draws=draws)
    exact_mean = expected_flow(counts.ravel(), np.tile(probs, 2), PARAMS, gdpm)
    var_senders = float((counts * probs * (1 - probs)).sum())
    se = PARAMS.rho * gdpm * np.sqrt(var_senders / draws)
    assert abs(totals.mean() - exact_mean) <= 3 * se


def test_sampler_variance_matches_formula_production(small_dataset, monkeypatch):
    rng = np.random.default_rng(7)
    counts = np.zeros((2, N_AGES))
    counts[0, :100] = np.rint(rng.uniform(20, 400, size=100))
    probs = np.zeros(N_AGES)
    probs[:100] = rng.uniform(0.05, 0.95, size=100)
    totals, gdpm = _production_totals(small_dataset, monkeypatch, counts, probs, PARAMS,
                                      seed=13, draws=100_000)
    senders = totals / (PARAMS.rho * gdpm)
    expected_var = float((counts * probs * (1 - probs)).sum())
    assert senders.var() == pytest.approx(expected_var, rel=0.05)


# ---------------------------------------------------------------------------
# The cell draw: the pmf from the characteristic function, the inverse-CDF
# draw, memory

def _direct_pmf(n: np.ndarray, p: np.ndarray) -> tuple[int, np.ndarray]:
    """The pmf of the sum over ages of Bin(n, |p|) with the sign of p, by direct
    convolution of scipy's binomial pmfs: its least value and the probabilities
    from there. Each table, and each partial convolution, is cut to where it
    exceeds 1e-40, which drops less than 1e-30 of mass in all."""
    from scipy.stats import binom
    low, pmf = 0, np.ones(1)
    for ni, pi in zip(n.tolist(), p.tolist()):
        table = binom.pmf(np.arange(ni + 1), ni, abs(pi))
        support = np.flatnonzero(table > 1e-40)
        table = table[support[0]:support[-1] + 1]
        if pi < 0:
            table, low = table[::-1], low - int(support[-1])
        else:
            low += int(support[0])
        pmf = np.convolve(pmf, table)
        support = np.flatnonzero(pmf > 1e-40)
        low, pmf = low + int(support[0]), pmf[support[0]:support[-1] + 1]
    return low, pmf


def _total_variation(low: int, pmf: np.ndarray, want_low: int,
                     want: np.ndarray) -> tuple[float, float]:
    """The total-variation distance between two pmfs given by their least
    values, and the mass of the second outside the values the first covers."""
    start = min(low, want_low)
    got = np.zeros(max(low + pmf.size, want_low + want.size) - start)
    ref = np.zeros_like(got)
    got[low - start:low - start + pmf.size] = pmf
    ref[want_low - start:want_low - start + want.size] = want
    covered = ref[low - start:low - start + pmf.size].sum()
    return 0.5 * float(np.abs(got - ref).sum()), float(ref.sum() - covered)


_SIGMAS = np.geomspace(0.3, 45.0, 16)
_MIXED = np.random.default_rng(23)
_WIDE = np.random.default_rng(31)


@pytest.mark.parametrize("n, p", [
    ([200], [0.3]),
    # sigma from 0.3 to 45, half the ages flipped
    (np.rint(_SIGMAS**2 / 0.09), np.tile([0.1, 0.9], 8)),
    ([10**6], [0.5]),
    ([10**4], [1e-9]),
    ([40], [1.0]),  # the flipped age n - Bin(n, 0)
    (_MIXED.integers(1, 3000, 16),
     _MIXED.choice([-1.0, 1.0], 16) * _MIXED.uniform(0.05, 0.95, 16)),
    ([1], [0.3]), ([50], [0.5]), ([6691], [0.3]), ([10**6], [0.3]),
    # 101 ages, n from 1 to 10^6
    (np.rint(np.geomspace(1, 10**6, 101)),
     _WIDE.choice([-1.0, 1.0], 101) * _WIDE.uniform(0.05, 0.95, 101))],
    ids=["one-age", "sigma-0.3-to-45", "n-1e6", "p-1e-9", "p-1", "mixed-signs", "n-1",
         "n-50-p-0.5", "n-6691", "n-1e6-p-0.3", "101-ages-mixed-signs"])
def test_cell_pmf_is_the_convolution_of_its_binomials(n, p):
    """A cell's pmf is within 1e-12 in total variation of the direct convolution
    of scipy's binomial pmfs, and the convolution's mass outside the values that
    the pmf covers is below 1e-15 (the alias bound)."""
    n, p = np.asarray(n, dtype=np.int64), np.asarray(p, dtype=float)
    low, pmf = flows_module._cell_pmf(n, p)
    distance, outside = _total_variation(low, pmf, *_direct_pmf(n, p))
    assert (pmf >= 0).all()
    assert distance <= 1e-12
    assert outside < 1e-15


def test_cell_draws_are_independent():
    """Two cells drawn one after the other on one stream, and each cell's
    draws against themselves one draw on, are uncorrelated within 4 /
    sqrt(draws). Each cell's mean lies within 4 standard errors of sum n p,
    and its variance within 4 relative standard errors, 4 sqrt(2 / (draws -
    1)), of sum n |p| (1 - |p|)."""
    draws = 10_000
    n = np.arange(20, 340, 20)
    p = np.linspace(-0.55, 0.95, 16)
    rng = np.random.default_rng(5)
    rows = [flows_module._cell_draws(rng, n, p, draws) for _ in range(2)]
    mean = float((n * p).sum())
    var = float((n * np.abs(p) * (1 - np.abs(p))).sum())
    bound = 4 / np.sqrt(draws)
    assert abs(np.corrcoef(rows[0], rows[1])[0, 1]) <= bound
    for row in rows:
        assert row.shape == (draws,)
        assert abs(np.corrcoef(row[:-1], row[1:])[0, 1]) <= bound
        assert abs(row.mean() - mean) <= 4 * np.sqrt(var / draws)
        assert row.var() == pytest.approx(var, rel=4 * np.sqrt(2 / (draws - 1)))


@pytest.fixture(scope="module")
def desk_window_cells(desk_dataset):
    """The ages that the sampler draws as one sum, (n, p), at every sampled
    corridor-month of the desk fixture's band window: the factual cube's
    cells, then the induced (no-disaster) delta's."""
    cells = []
    draw = flows_module._cell_draws

    def recording_draws(rng, n, p, draws):
        cells.append((n.copy(), p.copy()))
        return draw(rng, n, p, draws)

    ctx = SimulationContext(desk_dataset, start=BANDS_WINDOW[0], end=BANDS_WINDOW[1])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flows_module, "_cell_draws", recording_draws)
        sample_monthly_totals(ctx, PARAMS, None, 1, 1)
        factual = len(cells)
        sample_induced_totals(ctx, PARAMS, scenario_none(), 1, 1)
    assert 0 < factual < len(cells)
    return cells


def test_desk_window_pmfs_are_the_convolutions_of_their_binomials(desk_window_cells):
    """At every sampled cell of the desk fixture's band window, factual and
    induced, the pmf is within 1e-12 in total variation of the direct
    convolution of scipy's binomial pmfs."""
    for n, p in desk_window_cells:
        distance, _ = _total_variation(*flows_module._cell_pmf(n, p), *_direct_pmf(n, p))
        assert distance <= 1e-12


def test_desk_window_pmf_moments_are_the_sums(desk_window_cells):
    """At every sampled cell of the desk fixture's band window, factual and
    induced, the pmf's mean and variance are sum n p and sum n |p| (1 - |p|)
    to 1e-9 relative."""
    for n, p in desk_window_cells:
        low, pmf = flows_module._cell_pmf(n, p)
        values = low + np.arange(pmf.size)
        mean = float((values * pmf).sum())
        var = float(((values - mean) ** 2 * pmf).sum())
        assert mean == pytest.approx(float((n * p).sum()), rel=1e-9)
        assert var == pytest.approx(float((n * np.abs(p) * (1 - np.abs(p))).sum()), rel=1e-9)


# ---------------------------------------------------------------------------
# Confidence bands

def test_band_constant_samples():
    band = confidence_band(np.full(2000, 7.5), "const")
    assert band.lower == band.mean == band.upper == 7.5


def test_band_two_point_distribution():
    samples = np.tile([0.0, 100.0], 600)
    band = confidence_band(samples, "twopoint")
    assert band.lower == 0.0
    assert band.upper == 100.0
    assert band.mean == pytest.approx(50.0)


def test_band_requires_enough_samples():
    with pytest.raises(ValueError, match="1000"):
        confidence_band(np.zeros(999))


def test_band_matches_exact_binomial_quantiles():
    rng = np.random.default_rng(8)
    n, p = 100, 0.3
    samples = rng.binomial(n, p, size=50_000).astype(float)
    band = confidence_band(samples, "binomial")
    from scipy.stats import binom
    lo, hi = binom.ppf(0.025, n, p), binom.ppf(0.975, n, p)
    assert abs(band.lower - lo) <= 1.0  # discreteness tolerance
    assert abs(band.upper - hi) <= 1.0
    assert band.mean == pytest.approx(n * p, rel=0.02)


def _drawn_samples(rng: np.random.Generator, n: int, kind: int) -> np.ndarray:
    """``n`` samples: floats over many orders of magnitude, ties of integers,
    one constant, shifted binomial totals, all signs; or (kind 4) mostly
    zeros of both signs, tied with each other."""
    if kind == 0:
        return rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(-700.0, 700.0, n))
    if kind == 1:
        return rng.integers(-50, 50, size=n).astype(float)
    if kind == 2:
        return np.full(n, rng.normal())
    if kind == 3:
        return rng.binomial(1000, 0.3, size=n) * 12.5 - 3000.0
    return np.round(rng.normal(size=n) * 0.03, 1)


@pytest.mark.parametrize("level", [0.9, 0.95, 0.99])
def test_band_ends_are_np_percentile_bit_for_bit(level):
    """The band's ends come from a partition, not from np.percentile (which
    imports numpy.ma), with np.percentile's linear rule and its bits, also for
    a handful of samples. Where -0.0 and +0.0 tie at the ranks read, the two
    may differ in the sign of a zero only, so those compare as floats."""
    rng = np.random.default_rng(19)
    tail = 100.0 * (1.0 - level) / 2.0
    sizes = [flows_module.MIN_BAND_SAMPLES, 1001, 20_000, *rng.integers(1000, 20_001, 80),
             *range(1, 41), 124, 125]
    signed_zeros = 0
    for trial, n in enumerate(sizes):
        kind = trial % 5
        samples = _drawn_samples(rng, int(n), kind)
        want = np.percentile(samples, [tail, 100.0 - tail])
        got = np.array(reports.percentiles(samples, (tail, 100.0 - tail)))
        if kind == 4:
            assert got.tolist() == want.tolist(), (n, kind)
            signed_zeros += np.signbit(samples).any() and not np.signbit(samples).all()
        else:
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), (n, kind)
    assert signed_zeros  # some samples held zeros of both signs


@pytest.mark.parametrize("value", [0.4524340367192432, 0.1, -3.7, 1e300, 5e-324, 0.0])
def test_band_of_identical_samples_is_that_value(value):
    """The mean of identical samples can round an ulp away from them (it does
    for the first value here); the band holds the value three times."""
    band = confidence_band(np.full(1000, value))
    assert (band.lower, band.mean, band.upper) == (value, value, value)


def test_band_mean_adds_samples_left_to_right():
    """The band's mean is the left-to-right sum over the count, as the output
    sums are; numpy's pairwise mean differs in the last bits here."""
    samples = np.random.default_rng(0).lognormal(0.0, 3.0, 1000)
    want = reports.sequential_sum(samples) / samples.size
    assert float(samples.mean()) != want
    assert confidence_band(samples).mean == want


def test_band_ordering_enforced():
    with pytest.raises(ValueError):
        UncertaintyBand("x", 0.95, lower=2.0, mean=1.0, upper=3.0)


# ---------------------------------------------------------------------------
# Global sampling

def test_monthly_totals_deterministic_and_sized(small_dataset):
    ctx = SimulationContext(small_dataset, start=24, end=35)
    a = sample_monthly_totals(ctx, PARAMS, None, seed=3, draws=64)
    b = sample_monthly_totals(ctx, PARAMS, None, seed=3, draws=64)
    assert a.shape == (64, 12)
    assert np.array_equal(a, b)


def test_monthly_totals_mean_tracks_expected(small_dataset):
    ctx = SimulationContext(small_dataset, start=24, end=29)
    draws = 3000
    totals = sample_monthly_totals(ctx, PARAMS, None, seed=21, draws=draws)
    expected = ctx.expected_flows(PARAMS)[:, ctx.window].sum(axis=0)
    # integerized counts shift the mean slightly; 2% is generous at this scale
    assert np.allclose(totals.mean(axis=0), expected, rtol=0.02)


def test_common_random_numbers_reduce_difference_variance(small_dataset):
    ctx = SimulationContext(small_dataset, start=26, end=31)
    draws = 1500
    factual = sample_monthly_totals(ctx, PARAMS, None, seed=5, draws=draws)
    counter = sample_monthly_totals(ctx, PARAMS, scenario_none(), seed=5, draws=draws)
    paired_var = (factual - counter).sum(axis=1).var()
    independent = sample_monthly_totals(ctx, PARAMS, scenario_none(), seed=6, draws=draws)
    indep_var = (factual - independent).sum(axis=1).var()
    assert paired_var < indep_var


def test_corridor_seed_stability():
    a = np.random.default_rng(corridor_seed(1, 0, 0)).integers(0, 1 << 30, 4)
    b = np.random.default_rng(corridor_seed(1, 0, 0)).integers(0, 1 << 30, 4)
    c = np.random.default_rng(corridor_seed(1, 1, 0)).integers(0, 1 << 30, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# Merged cohorts and the induced coupling, drawn at the event cells


def _coupling_moments(ctx, params, active_ids):
    """The exact mean and variance of the induced window total under the
    coupling: sum n dp w and sum n |dp| (1 - |dp|) w^2 over every corridor-month
    and age, with n the integerized count, dp = p_f - p_c and w = rho x the
    monthly income."""
    factual = ctx.probability_cube(params, None)[:, ctx.window]
    counter = ctx.probability_cube(params, active_ids)[:, ctx.window]
    mean = var = 0.0
    for c in range(ctx.n_corridors):
        for mi, month in enumerate(ctx.window_months):
            n = np.rint(ctx.cohort_counts(c, month)).sum(axis=0)
            dp = factual[c, mi] - counter[c, mi]
            w = params.rho * float(ctx.monthly_income[c, month])
            mean += float((n * dp).sum()) * w
            var += float((n * np.abs(dp) * (1.0 - np.abs(dp))).sum()) * w * w
    return mean, var


def _desk_induced(desk_dataset, seed: int, draws: int):
    ctx = SimulationContext(desk_dataset, start=BANDS_WINDOW[0], end=BANDS_WINDOW[1])
    return ctx, sample_induced_totals(ctx, PARAMS, scenario_none(), seed, draws)


def test_induced_mean_within_clt_bound_of_the_coupling(desk_dataset):
    """The induced window total's mean over 4,000 draws lies within 4 standard
    errors of sum n dp w, the mean of the coupling: the senders whose decision
    the disasters change, n |dp| per age, gained where dp > 0 and lost where
    dp < 0."""
    draws = 4000
    ctx, induced = _desk_induced(desk_dataset, 11, draws)
    assert induced.shape == (draws, 6)
    mean, var = _coupling_moments(ctx, PARAMS, scenario_none())
    window = induced.sum(axis=1)
    assert abs(window.mean() - mean) <= 4 * np.sqrt(var / draws)


def test_induced_variance_matches_the_coupling_formula(desk_dataset):
    """The induced window total's variance over 4,000 draws is within 10 % of
    sum n |dp| (1 - |dp|) w^2, the variance of independent Bin(n, |dp|) per age.
    A sample variance of 4,000 near-normal draws has a relative standard error
    of sqrt(2 / 3999) = 0.022, so 10 % is 4.5 of them."""
    ctx, induced = _desk_induced(desk_dataset, 12, 4000)
    _, var = _coupling_moments(ctx, PARAMS, scenario_none())
    assert induced.sum(axis=1).var() == pytest.approx(var, rel=0.10)


# strong, two-signed disaster effects on the small fixture, with sending
# probabilities near 0.5: dp runs from -0.12 to 0.27 over its event block
STRONG = dataclasses.replace(PARAMS, alpha=-4.0, height=5.0, shape=10.0)


def test_induced_totals_match_the_per_individual_oracle(small_dataset):
    """The sampler and a per-individual draw (one uniform per individual, tested
    against both thresholds) give the same induced window total in distribution
    over the event's 12-month block, 4,000 draws each: their means lie within 4
    standard errors of each other and of sum n dp w; their variances within 15 %
    of each other (a ratio of two independent sample variances of 4,000
    near-normal draws has a standard error of 0.032) and 10 % of the formula."""
    ctx = SimulationContext(small_dataset, start=26, end=37)
    draws = 4000
    sampled = sample_induced_totals(ctx, STRONG, scenario_none(), 21, draws).sum(axis=1)
    individual = oracles.individual_induced_totals(ctx, STRONG, scenario_none(), 22,
                                                   draws).sum(axis=1)
    mean, var = _coupling_moments(ctx, STRONG, scenario_none())
    assert abs(sampled.mean() - individual.mean()) <= 4 * np.sqrt(2 * var / draws)
    for totals in (sampled, individual):
        assert abs(totals.mean() - mean) <= 4 * np.sqrt(var / draws)
        assert totals.var() == pytest.approx(var, rel=0.10)
    assert sampled.var() / individual.var() == pytest.approx(1.0, abs=0.15)


def _patched_induced(small_dataset, monkeypatch, counts, p_f, p_c, seed, draws):
    """Induced senders of one corridor-month with the (2, 101) cohort ``counts``,
    per-age probabilities ``p_f`` under all events and ``p_c`` under none: the
    first affected row differs, every other row has ``p_c`` in both cubes."""
    month = 30
    ctx = SimulationContext(small_dataset, start=month, end=month)
    monkeypatch.setattr(ctx, "cohort_counts", lambda c, m: counts)

    def cube(params, active_ids=None, at=None):
        probs = np.tile(p_c, (len(at[0]), 1, 1))
        if active_ids is None:
            probs[0, 0] = p_f
        return probs

    monkeypatch.setattr(ctx, "probability_cube", cube)
    totals = sample_induced_totals(ctx, PARAMS, scenario_none(), seed, draws)[:, 0]
    c = ctx.affected_cells(None, scenario_none())[0][0][0]
    return totals / (PARAMS.rho * float(ctx.monthly_income[c, month]))


def test_induced_certain_ages_give_exactly_their_counts(small_dataset, monkeypatch):
    """An age with p_f = 1 and p_c = 0 gains all its n senders in every draw (its
    table is flipped: n - Bin(n, 0)), and one with p_f = 0 and p_c = 1 loses all
    of them."""
    counts = np.zeros((2, N_AGES))
    counts[:, 30] = 3.0, 4.0
    counts[:, 50] = 2.0, 0.0
    p_f, p_c = np.zeros(N_AGES), np.zeros(N_AGES)
    p_f[30] = p_c[50] = 1.0
    senders = _patched_induced(small_dataset, monkeypatch, counts, p_f, p_c, 3, 1000)
    assert np.abs(senders - (7 - 2)).max() <= 1e-9


def test_induced_mixed_signs_follow_the_coupling(small_dataset, monkeypatch):
    """Ages that gain senders and ages that lose them, 20,000 draws of one
    corridor-month: every draw lies between minus the losing ages' counts and
    the gaining ages' counts, the mean lies within 4 standard errors of sum n
    dp, and the variance is within 5 % of sum n |dp| (1 - |dp|) (a relative
    standard error of sqrt(2 / 19999) = 0.01)."""
    rng = np.random.default_rng(4)
    counts = np.zeros((2, N_AGES))
    counts[:, 20:60] = np.rint(rng.uniform(10, 300, size=(2, 40)))
    p_c = np.zeros(N_AGES)
    p_c[20:60] = rng.uniform(0.05, 0.95, size=40)
    p_f = p_c.copy()
    p_f[20:60] = np.clip(p_c[20:60] + rng.uniform(-0.3, 0.3, size=40), 0.0, 1.0)
    draws = 20_000
    senders = np.rint(_patched_induced(small_dataset, monkeypatch, counts, p_f, p_c, 8,
                                       draws))
    n = counts.sum(axis=0)
    dp = p_f - p_c
    assert (dp > 0).sum() > 10 and (dp < 0).sum() > 10
    assert senders.min() >= -n[dp < 0].sum() and senders.max() <= n[dp > 0].sum()
    var = float((n * np.abs(dp) * (1 - np.abs(dp))).sum())
    assert abs(senders.mean() - float((n * dp).sum())) <= 4 * np.sqrt(var / draws)
    assert senders.var() == pytest.approx(var, rel=0.05)


def test_merged_ages_round_each_sex_half_to_even(small_dataset, monkeypatch):
    ctx = SimulationContext(small_dataset, start=24, end=26)
    ages = np.arange(N_AGES)
    # x.5 counts: rint per sex gives 0, 2, 2, 4, ...; rounding the sum would not
    counts = np.stack([ages + 0.5, 2.0 * ages + 0.5])
    counts[:, 3] = 0.5, 1.0  # a single sender
    sends = ages % 3 == 0
    cube = np.zeros((ctx.n_corridors, 3, N_AGES))
    cube[:, :, sends] = 1.0
    monkeypatch.setattr(ctx, "cohort_counts", lambda c, month: counts)
    monkeypatch.setattr(ctx, "probability_cube", lambda params, active_ids=None, at=None: cube)
    totals = sample_monthly_totals(ctx, PARAMS, None, 4, 5)

    senders = int((np.rint(counts[0]) + np.rint(counts[1]))[sends].sum())
    assert senders != int(np.rint(counts.sum(axis=0))[sends].sum())
    for mi, month in enumerate(ctx.window_months):
        expected = 0.0
        for c in range(ctx.n_corridors):
            expected += senders * PARAMS.rho * ctx.monthly_income[c, month]
        assert (totals[:, mi] == expected).all()


def test_induced_sampling_stays_in_event_blocks(desk_dataset, monkeypatch):
    ctx = SimulationContext(desk_dataset, start=BANDS_WINDOW[0], end=BANDS_WINDOW[1])
    seeded = []

    def recording_seed(root_seed, corridor_index, month):
        seeded.append((corridor_index, month))
        return corridor_seed(root_seed, corridor_index, month)

    monkeypatch.setattr(flows_module, "corridor_seed", recording_seed)
    sample_induced_totals(ctx, PARAMS, scenario_none(), 3, 10)
    blocks = {(c, e.onset_month + k)
              for e in desk_dataset.disasters
              for c in ctx.origin_groups.get(e.country, ())
              for k in range(12)}
    assert seeded  # events act inside this window
    assert set(seeded) <= blocks
    assert len(seeded) == len(set(seeded))  # each cell seeded once


def test_induced_month_does_not_depend_on_the_window(desk_dataset):
    """A month's induced draws are the same bytes under two report windows
    that both contain it: each cell draws from its own stream."""
    late = SimulationContext(desk_dataset, start=month_index("2016-07"),
                             end=month_index("2016-12"))
    early = SimulationContext(desk_dataset, start=month_index("2016-01"),
                              end=month_index("2016-09"))
    # 2016-07 .. 2016-09 in each window
    a = sample_induced_totals(late, PARAMS, scenario_none(), 5, 200)[:, :3]
    b = sample_induced_totals(early, PARAMS, scenario_none(), 5, 200)[:, 6:]
    assert np.any(a != 0.0)
    assert a.tobytes() == b.tobytes()


def test_induced_memory_stays_under_a_mebibyte(desk_dataset):
    """Sampling the induced totals of the desk fixture's band window (1,000
    draws) allocates at most 1 MiB at its peak, cubes included: they cover only
    the affected rows, and each cell's ages are drawn as one sum."""
    ctx = SimulationContext(desk_dataset, start=BANDS_WINDOW[0], end=BANDS_WINDOW[1])
    tracemalloc.start()
    try:
        sample_induced_totals(ctx, PARAMS, scenario_none(), 1, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_sampler_memory_stays_under_a_mebibyte(desk_dataset):
    """Sampling the desk fixture's band window (1,000 draws) allocates at most
    1 MiB at its peak: each cell's ages are drawn as one sum."""
    ctx = SimulationContext(desk_dataset, start=BANDS_WINDOW[0], end=BANDS_WINDOW[1])
    cube = ctx.probability_cube(PARAMS, None, (slice(None), ctx.window))
    tracemalloc.start()
    try:
        flows_module._sample_cells(ctx, PARAMS, np.arange(ctx.n_corridors), cube, 1, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_wide_cell_memory_stays_under_a_mebibyte():
    """Drawing one cell that holds an age with n = 10^6 and p = 0.5 (sigma =
    500) 1,000 times allocates at most 1 MiB at its peak: the cell's grid has
    16,384 points, and its characteristic function is evaluated at only the
    frequencies where it is not negligible."""
    n = np.full(16, 300)
    n[5] = 10**6
    p = np.linspace(-0.3, 0.8, 16)
    p[5] = 0.5
    tracemalloc.start()
    try:
        flows_module._cell_draws(np.random.default_rng(1), n, p, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
