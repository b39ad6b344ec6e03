"""The stochastic sampler and confidence bands.

Expected flows come from :meth:`SimulationContext.expected_flows`. The
sampler integerizes each sex's cohort counts (half-to-even), adds the male
and female counts of each age, and draws one binomial per age with a
positive count and probability. That is distributionally identical to
per-individual draws, because all members of one age's two cohorts share
one probability. Percentile bands summarize the sampled totals.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .behavior import BehaviorParams
from .engine import SimulationContext
from .reports import percentiles
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
    The mean is clamped into the band, where rounding (identical samples) or
    skew past a tail puts it outside."""
    arr = np.asarray(samples, dtype=float)
    if arr.size < MIN_BAND_SAMPLES:
        raise ValueError(f"need >= {MIN_BAND_SAMPLES} samples for a band, got {arr.size}")
    tail = 100.0 * (1.0 - level) / 2.0
    lower, upper = percentiles(arr, (tail, 100.0 - tail))
    mean = min(max(float(arr.mean()), lower), upper)
    return UncertaintyBand(aggregate_id=aggregate_id, lower=lower, mean=mean, upper=upper,
                           level=level)


def corridor_seed(root_seed: int, corridor_index: int, month: int) -> np.random.SeedSequence:
    """Independent, explicitly derived stream per corridor-month.

    A month's draws depend on neither the report window nor the order in
    which corridor-months are sampled. Factual/counterfactual pairs that
    share the root seed consume identical streams (common random numbers).
    """
    return np.random.SeedSequence((int(root_seed), int(corridor_index), int(month)))


def _sample_cells(ctx: SimulationContext, params: BehaviorParams, cube: np.ndarray,
                  cells: Iterable[tuple[int, int]], seed: int, draws: int,
                  rows: np.ndarray | None = None) -> np.ndarray:
    """Sampled flows of the (cube row, window position) ``cells``, summed per window
    month, shape (draws, n_window_months). ``cube`` covers the window's months;
    its row r holds corridor ``rows[r]``, or corridor r when ``rows`` is None."""
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    months = ctx.window_months
    totals = np.zeros((draws, len(months)))
    for r, mi in cells:
        c = r if rows is None else rows[r]
        month = months[mi]
        n = np.rint(ctx.cohort_counts(c, month)).sum(axis=0).astype(np.int64)  # per age
        p = cube[r, mi]
        keep = (n > 0) & (p > 0)
        rng = np.random.default_rng(corridor_seed(seed, c, month))
        # age-major, so consecutive variates share (n, p) and numpy reuses its set-up
        senders = rng.binomial(n[keep, None], p[keep, None],
                               size=(np.count_nonzero(keep), draws)).sum(axis=0)
        totals[:, mi] += senders * params.rho * ctx.monthly_income[c, month]
    return totals


def sample_monthly_totals(ctx: SimulationContext, params: BehaviorParams,
                          active_ids: frozenset | None, seed: int, draws: int) -> np.ndarray:
    """Sampled global totals per window month, shape (draws, n_window_months).

    Each corridor-month uses its own seeded stream, so results do not depend
    on the window or the evaluation order.
    """
    cube = ctx.probability_cube(params, active_ids, (slice(None), ctx.window))
    return _sample_cells(ctx, params, cube, np.ndindex(cube.shape[:2]), seed, draws)


def sample_induced_totals(ctx: SimulationContext, params: BehaviorParams,
                          active_ids: frozenset | None, seed: int, draws: int) -> np.ndarray:
    """Sampled factual minus counterfactual (``active_ids``) totals per window month.

    Both runs draw from the same corridor-month streams (common random
    numbers), so their draws are identical wherever the two probability rows
    are equal; only the corridor-months where the event sets change a probability
    are sampled. Both cubes cover only the window months of the corridors of
    the affected blocks (:meth:`SimulationContext.affected_cells`). Equals the difference of two
    ``sample_monthly_totals`` calls up to the order of the floating-point sums.
    """
    blocks = ctx.affected_cells(None, active_ids)
    # the rows, ascending, by bincount (not np.unique: see dataio._present)
    rows = np.flatnonzero(np.bincount(np.concatenate([np.array([], dtype=np.intp),
                                                      *(r for r, _ in blocks)])))
    at = rows, ctx.window
    factual = ctx.probability_cube(params, None, at)
    counter = ctx.probability_cube(params, active_ids, at)
    cells = np.argwhere((factual != counter).any(axis=2))
    return (_sample_cells(ctx, params, factual, cells, seed, draws, rows)
            - _sample_cells(ctx, params, counter, cells, seed, draws, rows))
