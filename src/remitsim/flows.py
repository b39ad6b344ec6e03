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

Each age's ``draws`` variates are drawn as a histogram, not one by one.
numpy's multinomial draws the histogram of the ``draws`` values over a table
of the age's pmf; the histogram is expanded into its values, and the row is
put in uniformly random order (``Generator.permuted``). This is exact in
distribution: the histogram of ``draws`` independent values is multinomial,
and given its histogram every order of an independent sequence is equally
likely, so a uniform shuffle turns it back into one (Devroye, *Non-Uniform
Random Variate Generation*, 1986). The ages' integer rows are then added.

The table spans the mode ± ceil(12 sigma + 12), clipped to [0, n]. The mass
outside it is below 1e-26 for every n from 1 to 10^7 and p from 1e-9 to 0.5
(by scipy's binomial tails; 1.5e-27 at its worst, n = 3,000 and p = 0.001),
so no run of draws can tell the table from the binomial. An age with
p > 0.5 is tabulated as n - Bin(n, 1 - p), so p = 1 is drawn exactly.

The cost grows with the width of the table, about sigma = sqrt(n p (1 - p)),
where numpy's per-variate binomial (BTPE above n p = 30, inversion below) costs
about the same at every sigma. Per age at 1,000 draws, in µs, on one core of a
2-CPU host, blocks of 16 equal ages at p = 0.3:

    sigma      1.17   3   14.5   46   145   458
    histogram    19  31     43   80   234   692
    binomial     45 140     65   45    39    40

The desk fixture's band window (22,236 ages) has a median sigma of 1.17, a
99th percentile of 22.5 and a maximum of 40.9, so the histogram is the one
draw: no workload has enough ages past the crossover to pay for a second.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


# Ages whose tables and variates one multinomial and one shuffle take at once:
# enough to spread numpy's per-call cost, few enough that a block's tables and
# (ages, draws) rows stay far under a megabyte.
AGE_BLOCK = 16


def _binomial_tables(n: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values and the probabilities of Binomial(``n``, ``p``) for each age, one
    row each over the window mode ± ceil(12 sigma + 12), clipped to [0, n];
    columns past a row's window repeat its last value with probability 0.

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
    # numpy's multinomial gives its last column whatever rounding leaves over
    values = np.minimum(k, hi[:, None], out=k)
    np.subtract(n[:, None], values, out=values, where=flip[:, None])
    return values.astype(np.int64), pmf


def _binomial_rows(rng: np.random.Generator, n: np.ndarray, p: np.ndarray,
                   draws: int) -> np.ndarray:
    """``draws`` independent Binomial(``n``, ``p``) variates of each age, shape
    (ages, draws): each age's histogram drawn as one multinomial over its
    table, expanded into its values and put in random order."""
    values, pmf = _binomial_tables(n, p)
    counts = rng.multinomial(draws, pmf)
    rows = np.repeat(values.ravel(), counts.ravel()).reshape(len(n), draws)
    return rng.permuted(rows, axis=1, out=rows)


def _cell_senders(ctx: SimulationContext, c: int, month: int, p: np.ndarray, seed: int,
                  draws: int) -> np.ndarray:
    """Senders of corridor ``c`` in ``month``, one sum per draw: each age with a
    positive count n and ``p`` != 0 adds Bin(n, |p|) senders with the sign of p,
    drawn ``AGE_BLOCK`` ages at a time on the cell's own stream."""
    n = np.rint(ctx.cohort_counts(c, month)).sum(axis=0).astype(np.int64)  # per age
    keep = (n > 0) & (p != 0)
    n, p = n[keep], p[keep]
    lost = p < 0
    rng = np.random.default_rng(corridor_seed(seed, c, month))
    senders = np.zeros(draws, dtype=np.int64)
    for start in range(0, n.size, AGE_BLOCK):
        block = slice(start, start + AGE_BLOCK)
        rows = _binomial_rows(rng, n[block], np.abs(p[block]), draws)
        if lost[block].any():
            np.negative(rows, out=rows, where=lost[block, None])
        senders += rows.sum(axis=0)
    return senders


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
