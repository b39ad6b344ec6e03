"""The stochastic sampler and confidence bands.

Expected flows come from :meth:`SimulationContext.expected_flows`. The
sampler integerizes each sex's cohort counts (half-to-even), adds the male
and female counts of each age, and draws one Binomial(n, p) number of
senders per age with a positive count and probability. That is
distributionally identical to per-individual draws, because all members of
one age's two cohorts share one probability. Percentile bands summarize the
sampled totals.

The induced flows are drawn from the coupling that the logit itself defines.
An individual sends when score + eps > 0, with eps logistic, and disasters
move the score, not eps. So the senders whose decision the disasters change
are those whose eps lies between the two thresholds: per age, Bin(n,
|p_f - p_c|) of them, all gained where p_f > p_c and all lost where p_f <
p_c (the monotone coupling; Lindvall, *Lectures on the Coupling Method*,
1992). :func:`sample_induced_totals` draws that one signed binomial per age
and changed corridor-month, not a factual and a no-disaster draw to subtract.

A corridor-month's senders are drawn as one sum per draw, from the sum's pmf
by inverse transform: each of ``draws`` uniforms from the cell's own stream
is mapped to the least value whose cumulative probability exceeds it
(Devroye, *Non-Uniform Random Variate Generation*, 1986, ch. 3). So a cell
always takes exactly ``draws`` uniforms from its stream. The uniforms are
looked up in ascending order, each binary search starting where the last one
ended, and the indices are put back in the stream's order: the indices of
``np.searchsorted`` in the stream's order, in half to two thirds of its time
at 1,000 fresh uniforms. An age with |p| = 1 is no draw: it adds its n, or
takes it away, in every draw.

The pmf comes from the sum's characteristic function, by one inverse DFT
(the DFT-CF method for sums of independent binomials; Hong, *Comput. Stat.
Data Anal.* 59, 2013). An age with |p| > 0.5 counts as n - Bin(n, 1 - |p|),
its n an exact integer offset, so every age is s Bin(n, q) with q <= 0.5 and
s = +-1, and the sum has phi(t) = E exp(itS) = exp(it offset) prod (1 - q +
q exp(ist))^n. The circular grid is sized by the sum's spread, not by its
support: it has the least 2^a 3^b 5^c points N that hold min(2 h + 2, the
support's width), with h = ceil(12 sigma + 12) and sigma^2 = sum n q (1 - q)
(the FFT takes such sizes in radix-2, -3 and -5 passes; over the desk band
window they have 31 % fewer points than the least powers of two), and it
covers the support, from minus the n of the lost ages to the n of the gained
ones, or, where the support is wider, the values from floor(sum n p) - h on,
moved into the support. The sum's mass outside those values aliases into
them. By Bennett's inequality (the sum is one of independent terms, each
within 1 of its mean) the sum lies more than h from its mean with
probability below 1.1e-24 at every sigma.

The pmf at the grid's values, from its first value L on, is the inverse real
DFT of phi(-t) exp(itL) at the grid's frequencies t = 2 pi m / N. Per age,
the log-modulus is n/2 log1p(-4 q (1 - q) sin^2(t/2)), and the phase is s n
(q t + psi), psi = arg((1 - q + q exp(it)) exp(-iqt)); the linear part adds
up over the ages to t times the sum's mean, which is taken once per cell,
relative to the grid's first value. psi's imaginary part, q S((1 - q) t) -
(1 - q) S(q t) with S(x) = sin x - x, is summed as a power series in t whose
coefficients are per age, up to the term below 2^-60 of the leading one at
the largest t; its real part is the root of the squared modulus less the
squared imaginary part (it is >= 0 for q <= 0.5). So neither cancels, where
n atan2 of the factor would lose about 1e-16 n q t per age. |phi(t)| <=
exp(-sigma^2 (1 - cos t)), so only the frequencies where that bound exceeds
e^-62 are evaluated (43 to 57 of them at the desk band window's cells with
sigma > 8, and 43 to 45 as sigma grows); the others are taken as 0, which
moves each pmf value by less than e^-62 = 1.2e-27. Round-off negatives are
clipped and the pmf is normalized. Over the 335 sampled cells of the desk
fixture's band window (factual and induced) its largest total-variation
distance to a direct ``np.convolve`` of scipy's binomial pmfs is 2.0e-14;
the tests bound it by 1e-12 there and at n up to 10^6.

The corridor-months are set up in chunks and evaluated one at a time. One
setup pass per ``_CHUNK_CELLS`` cells takes the counts in one call and the
per-age and per-cell quantities on one flat array of the ages to draw; each
cell's sums (its mean, variance, phase slope, support ends) are
``np.add.reduceat`` over its own ages, whose order does not depend on the
other cells, so a cell's pmf has the same bits in any chunk. Each cell's
characteristic function is then evaluated on its own, in one (ages,
frequencies) array and one ``irfft``; the sums over ages run along the
leading axis, one addition per age in age order, and are elementwise
products and sums, so no BLAS build enters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .behavior import BehaviorParams
from .engine import SimulationContext
from .reports import percentiles, sequential_sum
from .runconfig import MIN_BAND_SAMPLES


@dataclass(frozen=True)
class UncertaintyBand:
    """A row of ``bands.csv`` and ``induced_bands.csv``, its fields in their column order."""
    aggregate_id: str
    level: float
    lower: float
    mean: float
    upper: float

    def __post_init__(self) -> None:
        if not self.lower <= self.mean <= self.upper:
            raise ValueError(f"band out of order: {self.lower} <= {self.mean} <= {self.upper}")


def confidence_band(samples: Sequence[float], aggregate_id: str = "total",
                    level: float = 0.95) -> UncertaintyBand:
    """Empirical central band (2.5/97.5 percentiles at the default level).
    The mean adds the samples left to right (:func:`sequential_sum`). It is
    clamped into the band, where rounding (identical samples) or skew past a
    tail puts it outside."""
    arr = np.asarray(samples, dtype=float)
    if arr.size < MIN_BAND_SAMPLES:
        raise ValueError(f"need >= {MIN_BAND_SAMPLES} samples for a band, got {arr.size}")
    tail = 100.0 * (1.0 - level) / 2.0
    lower, upper = percentiles(arr, (tail, 100.0 - tail))
    mean = min(max(sequential_sum(arr) / arr.size, lower), upper)
    return UncertaintyBand(aggregate_id=aggregate_id, lower=lower, mean=mean, upper=upper,
                           level=level)


def corridor_seed(root_seed: int, corridor_index: int, month: int) -> np.random.SeedSequence:
    """Independent, explicitly derived stream per corridor-month.

    A month's draws depend on neither the report window nor the order in
    which corridor-months are sampled. Two event sets sampled under one root
    seed draw each corridor-month from the same stream (common random
    numbers); the induced sampler seeds each changed corridor-month once.
    """
    return np.random.SeedSequence((int(root_seed), int(corridor_index), int(month)))


# sin x - x = sum over j >= 1 of _SIN_SERIES[j - 1] x^(2j + 1)
_SIN_SERIES = np.array([(-1.0) ** j / math.factorial(2 * j + 1) for j in range(1, 16)])

# Frequencies where exp(-sigma^2 (1 - cos t)), a bound on |phi(t)|, is below
# exp(-_CF_CUT) are not evaluated.
_CF_CUT = 62.0

# The sizes a grid may take, 2^a 3^b 5^c up to 2^40, ascending (products up
# to 2^40 are exact, and no two are equal)
_GRID_SIZES = np.multiply.outer(np.multiply.outer(2.0 ** np.arange(41), 3.0 ** np.arange(26)),
                                5.0 ** np.arange(18))
_GRID_SIZES = np.sort(_GRID_SIZES[_GRID_SIZES <= 2.0**40]).astype(np.int64)

# Corridor-months per setup pass (:func:`_cell_pmfs`). It bounds the setup's
# memory, whatever the corridor count or the window.
_CHUNK_CELLS = 16


def _grid_size(m):
    """The least 2^a 3^b 5^c >= ``m``, elementwise."""
    return _GRID_SIZES[np.searchsorted(_GRID_SIZES, m)]


def _grid_pmfs(ages: np.ndarray, grid: int, freqs: int, terms: int,
               slope: float) -> np.ndarray:
    """The inverse real DFT, ``grid`` points, of one cell's phi(-t) exp(itL).
    ``ages`` holds the cell's n, s n, q (1 - q) and q, one row each and one
    column per age; the frequencies from ``freqs`` on are 0, psi's series has
    ``terms`` terms, and ``slope`` is the phase's linear part over t. The sums
    over ages run along the leading axis, in age order."""
    n, count, spread, q = ages[..., None]
    # psi's imaginary part is t^3 sum_j coef_j t^(2j - 2), with coef_j =
    # _SIN_SERIES[j - 1] q (1 - q) ((1 - q)^(2j) - q^(2j))
    power = np.arange(2, 2 * terms + 1, 2)[:, None, None]
    coef = (1.0 - q) ** power - q ** power
    coef *= spread
    coef *= _SIN_SERIES[:terms, None, None]
    t = np.arange(freqs) * (2.0 * math.pi / grid)
    squares = t * t
    im = np.empty((len(q), freqs))
    im[:] = coef[-1]
    for row in coef[-2::-1]:
        im *= squares
        im += row
    im *= squares * t
    sines = np.sin(0.5 * t)
    shrink = (sines * sines) * (4.0 * spread)  # 1 - |1 - q + q exp(it)|^2
    re = 1.0 - shrink
    with np.errstate(divide="ignore"):  # log1p(-1): q = 0.5 at t = pi
        modulus = np.log1p(np.negative(shrink, out=shrink), out=shrink)
    modulus *= n
    log_abs = 0.5 * modulus.sum(axis=0)
    re -= np.multiply(im, im, out=modulus)
    np.maximum(re, 0.0, out=re)
    np.sqrt(re, out=re)
    psi = np.arctan2(im, re, out=im)
    psi *= count
    spectrum = np.zeros(grid // 2 + 1, dtype=complex)
    spectrum[:freqs] = np.exp(log_abs + 1j * (t * slope - psi.sum(axis=0)))
    return np.fft.irfft(spectrum, grid)


def _cell_pmfs(n: np.ndarray, p: np.ndarray) -> Iterator[tuple[int, int, np.ndarray]]:
    """Per row of ``n`` and ``p`` (cells x ages; integer counts n >= 0, |p| <=
    1), the pmf of the sum over ages of Bin(n, |p|) with the sign of p: the
    row, the sum's least value, and the probabilities of that value and of
    each next one (see the module docstring). An age with |p| = 1 adds its n,
    or takes it away, in every value. The rows with no other age come first,
    then the others in row order.

    One setup pass takes the per-age and per-cell quantities of all the
    cells on one flat array of the ages to draw; each cell's sums are
    ``np.add.reduceat`` over its own ages, so a cell's pmf has the same bits
    in any call. Then each cell is evaluated on its own (:func:`_grid_pmfs`),
    with its own grid, frequency count, series terms and phase slope."""
    signed = np.where(p < 0, -n, n)
    nonzero = (n > 0) & (p != 0)
    certain = nonzero & (np.abs(p) == 1.0)
    drawn = nonzero & ~certain
    base = np.where(certain, signed, 0).sum(axis=1)
    sizes = drawn.sum(axis=1)
    for row in np.flatnonzero(sizes == 0):
        yield row, int(base[row]), np.ones(1)
    cells = np.flatnonzero(sizes)
    if not cells.size:
        return
    sizes = sizes[cells]
    starts = np.cumsum(sizes) - sizes
    n, p, signed = n[drawn], p[drawn], signed[drawn]  # the ages to draw, cell by cell
    q = np.abs(p)
    flip = q > 0.5
    q[flip] = 1.0 - q[flip]
    lost = p < 0
    count = np.where(lost != flip, -n, n).astype(float)  # s n, s the sign after the flip
    spread = q * (1.0 - q)
    offset, first, last = np.add.reduceat(np.stack([np.where(flip, signed, 0),
                                                    np.where(lost, -n, 0),
                                                    np.where(lost, 0, n)]), starts, axis=1)
    var, mean, linear = np.add.reduceat(np.stack([n * spread, n * p, count * q]), starts,
                                        axis=1)
    half = np.ceil(12.0 * np.sqrt(var) + 12.0).astype(np.int64)
    grid = _grid_size(np.minimum(2 * half + 2, last - first + 1))
    low = np.maximum(np.minimum(np.floor(mean - half).astype(np.int64), last - grid + 1), first)
    freqs = grid // 2 + 1
    wide = var > _CF_CUT / 2  # sigma^2 (1 - cos t) < _CF_CUT: 2 sin^2(t / 2) < _CF_CUT / var
    freqs[wide] = np.minimum(freqs[wide], (grid[wide] / math.pi * np.arcsin(
        np.sqrt(_CF_CUT / 2 / var[wide]))).astype(np.int64) + 1)
    slope = (low - offset) - linear
    # psi's series goes on until its next term is below 2^-60 of the leading
    # one at the cell's largest t (the terms shrink: t (1 - q) <= pi)
    top = (freqs - 1) * (2.0 * math.pi / grid) * np.maximum.reduceat(1.0 - q, starts)
    terms = 1 + (np.abs(_SIN_SERIES[1:]) * top[:, None] ** np.arange(2, 2 * _SIN_SERIES.size, 2)
                 > 2.0**-60 * abs(_SIN_SERIES[0])).sum(axis=1)
    ages = np.vstack([n, count, spread, q])
    for cell, row in enumerate(cells):
        pmf = _grid_pmfs(ages[:, starts[cell]:starts[cell] + sizes[cell]], int(grid[cell]),
                         int(freqs[cell]), int(terms[cell]), slope[cell])
        pmf = pmf[:min(grid[cell], last[cell] - low[cell] + 1)]
        np.maximum(pmf, 0.0, out=pmf)
        pmf /= pmf.sum()
        yield row, int(low[cell] + base[row]), pmf


def _lookup(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, uniforms, side="right")``, searched in ascending
    order of ``uniforms``, so that each search starts where the last one
    ended."""
    order = uniforms.argsort()
    index = np.empty(uniforms.size, dtype=np.intp)
    index[order] = np.searchsorted(cdf, uniforms[order], side="right")
    return index


def _cell_draws(rng: np.random.Generator, low: int, pmf: np.ndarray,
                draws: int) -> np.ndarray:
    """``draws`` independent values of a sum whose pmf from the value ``low`` on
    is ``pmf`` (:func:`_cell_pmfs`), by inverse transform: each of ``draws``
    uniforms from ``rng`` maps to the least value whose cumulative probability
    exceeds it."""
    cdf = np.cumsum(pmf)
    uniforms = rng.random(draws)
    uniforms *= cdf[-1]  # no index past the last value, where the cumulative sum ends below 1
    return low + _lookup(cdf, uniforms)


def _sample_cells(ctx: SimulationContext, params: BehaviorParams, rows: np.ndarray,
                  p: np.ndarray, seed: int, draws: int) -> np.ndarray:
    """Sampled flows of the corridors ``rows`` over the window, summed per window
    month, shape (draws, n_window_months). ``p`` holds each age's probability per
    corridor of ``rows`` and window month; a negative entry draws senders lost.
    Each age with a positive count n and ``p`` != 0 adds Bin(n, |p|) senders
    with the sign of p, drawn as one sum per corridor-month on its own stream
    (:func:`_cell_draws`). The corridor-months are taken ``_CHUNK_CELLS`` at a
    time: one :meth:`~SimulationContext.cohort_counts` call and one
    :func:`_cell_pmfs` call each, and their draws are added to the totals in
    their order. A corridor-month whose ``p`` is all 0 draws nothing."""
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    months = np.asarray(ctx.window_months)
    totals = np.zeros((draws, len(months)))
    cells = np.argwhere(p.any(axis=2))
    for start in range(0, len(cells), _CHUNK_CELLS):
        r, mi = cells[start:start + _CHUNK_CELLS].T
        c, month = rows[r], months[mi]
        senders = np.empty((len(c), draws), dtype=np.int64)
        # the counts per age, each sex's rounded half-to-even
        for k, low, pmf in _cell_pmfs(np.rint(ctx.cohort_counts(c, month)).sum(axis=1)
                                      .astype(np.int64), p[r, mi]):
            rng = np.random.default_rng(corridor_seed(seed, c[k], month[k]))
            senders[k] = _cell_draws(rng, low, pmf, draws)
        for k in range(len(c)):
            totals[:, mi[k]] += senders[k] * params.rho * ctx.monthly_income[c[k], month[k]]
    return totals


def sample_monthly_totals(ctx: SimulationContext, params: BehaviorParams,
                          active_ids: frozenset | None, seed: int, draws: int) -> np.ndarray:
    """Sampled global totals per window month, shape (draws, n_window_months).

    Each corridor-month uses its own seeded stream, so results do not depend
    on the window or the evaluation order. This is the draw of
    :func:`sample_induced_totals` against an empty counterfactual (p_c = 0).
    """
    cube = ctx.probability_cube(params, active_ids, (slice(None), ctx.window))
    return _sample_cells(ctx, params, np.arange(ctx.n_corridors), cube, seed, draws)


def sample_induced_totals(ctx: SimulationContext, params: BehaviorParams,
                          active_ids: frozenset | None, seed: int, draws: int) -> np.ndarray:
    """Sampled senders who send under all events but not under ``active_ids``, less
    those who send only under ``active_ids``, in USD per window month, shape
    (draws, n_window_months).

    The logit is a random-utility model: an individual sends when score + eps
    > 0, with eps logistic, and an event set moves the score, not eps. So per
    age, the senders whose decision the events change are those whose eps
    lies between the two thresholds: Bin(n, |p_f - p_c|) of them, with the
    sign of p_f - p_c (the monotone coupling, Lindvall 1992). That is one
    draw per age, from the cell's own ``corridor_seed`` stream, and only at
    the corridor-months where the event sets change a probability; elsewhere
    p_f = p_c and the count is 0. Both probability cubes cover only the
    window months of the corridors of the affected blocks
    (:meth:`SimulationContext.affected_cells`).
    """
    blocks = ctx.affected_cells(None, active_ids)
    # the rows, ascending, by bincount (not np.unique: see dataio._present)
    rows = np.flatnonzero(np.bincount(np.concatenate([np.array([], dtype=np.intp),
                                                      *(r for r, _ in blocks)])))
    at = rows, ctx.window
    delta = ctx.probability_cube(params, None, at)
    delta -= ctx.probability_cube(params, active_ids, at)
    return _sample_cells(ctx, params, rows, delta, seed, draws)
