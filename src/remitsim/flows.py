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

The kept ages of a corridor-month are drawn ``AGE_BLOCK`` at a time, and a
block's ``draws`` values are drawn as one sum: numpy's multinomial draws the
histogram of the ``draws`` values over the pmf of the block's senders; the
histogram is expanded into its values, and the row is put in uniformly random
order (``Generator.permuted``). This is exact in distribution: the histogram
of ``draws`` independent values is multinomial, and given its histogram every
order of an independent sequence is equally likely, so a uniform shuffle
turns it back into one (Devroye, *Non-Uniform Random Variate Generation*,
1986). The blocks' rows are then added. On the desk fixture's band window that
shuffles 1.5 million values (1,524 blocks x 1,000 draws), where a row per age
shuffled 22.2 million. An age with |p| = 1 is no draw: it adds its n, or
takes it away, in every draw.

The block's pmf is the convolution of its ages' tables, taken by FFT (Cooley
and Tukey, *Math. Comp.* 19, 1965). An age's table spans the mode ± ceil(12
sigma + 12), clipped to [0, n]; the mass outside it is below 1e-26 for every n
from 1 to 10^7 and p from 1e-9 to 0.5 (by scipy's binomial tails; 1.5e-27 at
its worst, n = 3,000 and p = 0.001). An age with p > 0.5 is tabulated as n -
Bin(n, 1 - p). The circular grid is sized by the block's spread, not by its
support: it has the least power of two of points that holds min(2 h + 2, the
support's width), with h = ceil(12 sigma + 12) and sigma^2 = sum n |p| (1 -
|p|), and it covers the block's support, or, where the support is wider, the
values from floor(sum n p) - h on, moved into the support. The sum's mass
outside those values aliases into them. By Bennett's inequality (the sum is
one of independent terms, each within 1 of its mean) the sum lies more than h
from its mean with probability below 1.1e-24 at every sigma, so the pmf
differs from the sum's own by the FFT's round-off and the tables' cut. Over
the 1,705 blocks of the desk fixture's band window (factual and induced), its
largest total-variation distance to a direct ``np.convolve`` of the tables is
4.5e-15; the tests bound it by 1e-12 against scipy's binomial pmfs, at n up to
10^6.
"""
from __future__ import annotations

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


# Ages whose sum one multinomial and one shuffled row draw at once: enough to
# spread numpy's per-call cost over the ages, few enough that a block's grid
# stays narrow.
AGE_BLOCK = 16

# Elements (ages x grid points) that one transform takes: a block whose grid is
# wide is transformed a few ages at a time, so that its tables and transforms
# stay far under a megabyte.
TRANSFORM_ELEMENTS = 2**14


def _binomial_tables(n: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values and the probabilities of Binomial(``n``, ``p``) for each age, one
    row each over the window mode ± ceil(12 sigma + 12), clipped to [0, n];
    columns past a row's window go on with probability 0.

    An age with p > 0.5 is tabulated as n - Bin(n, 1 - p), so p = 1 is exact.
    The probabilities come from the ratio pmf(k + 1) / pmf(k) = (n - k) / (k + 1)
    * p / (1 - p), by a cumulative product from the window's first value, and
    are normalized by their left-to-right sum."""
    flip = p > 0.5
    q = np.where(flip, 1.0 - p, p)
    sigma = np.sqrt(n * q * (1.0 - q))
    mode = np.floor((n + 1) * q)
    half = np.ceil(12.0 * sigma + 12.0)
    lo = np.maximum(mode - half, 0.0)
    hi = np.minimum(mode + half, n)
    k = lo[:, None] + np.arange((hi - lo).max() + 1.0)  # whole numbers, as floats
    step = k[:, :-1]
    ratio = (n[:, None] - step) * q[:, None]
    ratio /= (step + 1.0) * (1.0 - q)[:, None]
    ratio[step >= hi[:, None]] = 0.0
    pmf = np.ones(k.shape)
    np.cumprod(ratio, axis=1, out=pmf[:, 1:])
    del ratio
    pmf /= np.add.accumulate(pmf, axis=1)[:, -1:]
    values = np.subtract(n[:, None], k, out=k, where=flip[:, None])
    return values.astype(np.int64), pmf


def _block_pmfs(n: np.ndarray, p: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """The pmf of each block's senders, the sum over the block's ``AGE_BLOCK``
    ages of Bin(n, |p|) with the sign of p. Yields, per block, its least value
    and the probabilities of that value and of each next one.

    The block's grid is the least power of two that holds min(2 h + 2, the
    support's width) values, with h = ceil(12 sigma + 12) and sigma^2 =
    sum n |p| (1 - |p|). The pmf covers the support, from minus the n of the
    lost ages to the n of the gained ones, where the grid holds it; otherwise
    the grid's values from floor(sum n p) - h, moved into the support
    (:func:`_circular_pmf`)."""
    q = np.abs(p)
    lost = p < 0
    starts = np.arange(0, n.size, AGE_BLOCK)
    first = -np.add.reduceat(np.where(lost, n, 0), starts)
    last = np.add.reduceat(np.where(lost, 0, n), starts)
    half = np.ceil(12.0 * np.sqrt(np.add.reduceat(n * q * (1.0 - q), starts)) + 12.0)
    size = np.int64(1) << np.frexp(np.minimum(2.0 * half + 2.0, last - first + 1.0) - 1.0)[1]
    low = np.floor(np.add.reduceat(n * p, starts) - half).astype(np.int64)
    low = np.maximum(np.minimum(low, last - size + 1), first)
    width = np.minimum(size, last - low + 1)
    for b, start in enumerate(starts.tolist()):
        block = slice(start, start + AGE_BLOCK)
        yield int(low[b]), _circular_pmf(n[block], p[block], int(size[b]), int(low[b]),
                                         int(width[b]))


def _circular_pmf(n: np.ndarray, p: np.ndarray, grid: int, low: int,
                  width: int) -> np.ndarray:
    """The pmf of the sum over ages of Bin(``n``, |``p``|) with the sign of ``p``,
    modulo ``grid``, at the values ``low`` .. ``low + width - 1``; each age's
    table must fit in ``grid``.

    Each age's table (:func:`_binomial_tables`) enters by the real FFT of its
    row, zero-padded to ``grid``; a row whose values fall along it (a flipped
    or a lost age) enters conjugated, which transforms the reversed row. The
    product of the transforms, transformed back, is the pmf of the sum less the
    tables' first values. Round-off negatives are clipped, and the pmf is
    normalized. The ages are transformed TRANSFORM_ELEMENTS // ``grid`` at a
    time."""
    sign = np.where(p < 0, -1, 1)
    spectrum = np.ones(grid // 2 + 1, dtype=complex)
    offset = 0  # the sum of the tables' first values
    rows = max(1, TRANSFORM_ELEMENTS // grid)
    for start in range(0, n.size, rows):
        ages = slice(start, start + rows)
        values, pmf = _binomial_tables(n[ages], np.abs(p[ages]))
        ends = values[:, :2] * sign[ages, None]  # every table has two values or more
        offset += int(ends[:, 0].sum())
        transform = np.fft.rfft(pmf, grid)
        np.conjugate(transform, out=transform, where=ends[:, 1:] < ends[:, :1])
        spectrum *= transform.prod(axis=0)
        del values, pmf, transform  # before the next chunk's tables
    pmf = np.fft.irfft(spectrum, grid)
    start = (low - offset) % grid
    pmf = np.concatenate((pmf[start:], pmf[:start]))[:width]
    np.maximum(pmf, 0.0, out=pmf)
    pmf /= pmf.sum()
    return pmf


def _block_rows(rng: np.random.Generator, n: np.ndarray, p: np.ndarray,
                draws: int) -> np.ndarray:
    """``draws`` independent values of each block's senders (:func:`_block_pmfs`),
    shape (blocks, draws): each block's histogram drawn as one multinomial over
    its pmf and expanded into its values, and each row put in random order."""
    rows = np.empty((-(-n.size // AGE_BLOCK), draws), dtype=np.int64)
    for row, (low, pmf) in zip(rows, _block_pmfs(n, p)):
        row[:] = np.repeat(np.arange(low, low + pmf.size), rng.multinomial(draws, pmf))
    return rng.permuted(rows, axis=1, out=rows)


def _cell_senders(ctx: SimulationContext, c: int, month: int, p: np.ndarray, seed: int,
                  draws: int) -> np.ndarray:
    """Senders of corridor ``c`` in ``month``, one sum per draw: each age with a
    positive count n and ``p`` != 0 adds Bin(n, |p|) senders with the sign of p,
    drawn ``AGE_BLOCK`` ages at a time on the cell's own stream. An age with
    |p| = 1 adds its n, or takes it away, in every draw."""
    n = np.rint(ctx.cohort_counts(c, month)).sum(axis=0).astype(np.int64)  # per age
    keep = (n > 0) & (p != 0)
    n, p = n[keep], p[keep]
    certain = np.abs(p) == 1.0
    rng = np.random.default_rng(corridor_seed(seed, c, month))
    rows = _block_rows(rng, n[~certain], p[~certain], draws)
    return rows.sum(axis=0) + int(np.where(p < 0, -n, n)[certain].sum())


def _sample_cells(ctx: SimulationContext, params: BehaviorParams, rows: np.ndarray,
                  p: np.ndarray, seed: int, draws: int) -> np.ndarray:
    """Sampled flows of the corridors ``rows`` over the window, summed per window
    month, shape (draws, n_window_months). ``p`` holds each age's probability per
    corridor of ``rows`` and window month; a negative entry draws senders lost
    (:func:`_cell_senders`). A corridor-month whose ``p`` is all 0 draws nothing."""
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    months = ctx.window_months
    totals = np.zeros((draws, len(months)))
    for r, mi in np.argwhere(p.any(axis=2)):
        c, month = rows[r], months[mi]
        senders = _cell_senders(ctx, c, month, p[r, mi], seed, draws)
        totals[:, mi] += senders * params.rho * ctx.monthly_income[c, month]
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
