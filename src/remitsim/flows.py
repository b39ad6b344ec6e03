"""The stochastic sampler and confidence bands.

Expected flows come from :meth:`SimulationContext.expected_flows`. The
sampler integerizes cohort counts (half-to-even) and draws binomials per
cohort, which is distributionally identical to per-individual draws because
cohort members share one probability. Percentile bands summarize the
sampled totals.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .behavior import BehaviorParams
from .dataio import SEXES
from .engine import SimulationContext

MIN_BAND_SAMPLES = 1000


@dataclass(frozen=True)
class UncertaintyBand:
    aggregate_id: str
    lower: float
    mean: float
    upper: float
    level: float = 0.95

    def __post_init__(self) -> None:
        if not self.lower <= self.mean <= self.upper:
            raise ValueError(f"band out of order: {self.lower} <= {self.mean} <= {self.upper}")


def confidence_band(samples: Sequence[float], aggregate_id: str = "total",
                    level: float = 0.95) -> UncertaintyBand:
    """Empirical central band (2.5/97.5 percentiles at the default level)."""
    arr = np.asarray(samples, dtype=float)
    if arr.size < MIN_BAND_SAMPLES:
        raise ValueError(f"need >= {MIN_BAND_SAMPLES} samples for a band, got {arr.size}")
    tail = 100.0 * (1.0 - level) / 2.0
    lower, upper = np.percentile(arr, [tail, 100.0 - tail])
    return UncertaintyBand(aggregate_id=aggregate_id, lower=float(lower),
                           mean=float(arr.mean()), upper=float(upper), level=level)


def corridor_seed(root_seed: int, corridor_index: int, month: int) -> np.random.SeedSequence:
    """Independent, explicitly derived stream per corridor-month.

    A month's draws depend on neither the report window nor the order in
    which corridor-months are sampled. Factual/counterfactual pairs that
    share the root seed consume identical streams (common random numbers).
    """
    return np.random.SeedSequence((int(root_seed), int(corridor_index), int(month)))


def sample_monthly_totals(ctx: SimulationContext, params: BehaviorParams,
                          active_ids: frozenset | None, seed: int, draws: int) -> np.ndarray:
    """Sampled global totals per window month, shape (draws, n_window_months).

    Each corridor-month uses its own seeded stream, so results do not depend
    on the window, the evaluation order or the worker count.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    cube = ctx.probability_cube(params, active_ids)
    months = list(ctx.window_months)
    totals = np.zeros((draws, len(months)))
    for c in range(ctx.n_corridors):
        for mi, month in enumerate(months):
            rng = np.random.default_rng(corridor_seed(seed, c, month))
            n = np.rint(ctx.cohort_counts(c, month).ravel()).astype(np.int64)  # (2 * 101,)
            p = np.tile(cube[c, month], len(SEXES))
            senders = rng.binomial(n, p, size=(draws, n.size)).sum(axis=1)
            totals[:, mi] += senders * params.rho * ctx.monthly_income[c, month]
    return totals
