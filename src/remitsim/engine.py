"""Vectorized expected-flow evaluation over corridor-months.

The SimulationContext precomputes every covariate that does not depend on
the behavioural parameters (stocks, family proxy, GDP covariates, event
magnitudes), so that repeated evaluations during calibration only pay for
the score assembly and the logistic transform. An evaluation takes any
numpy index ``at`` of the (corridors, 120 months) grid and returns the full
grid's ``[at]``: calibration and ``compare-baseline`` pass the panel's cells,
a scenario each block ``np.ix_(rows, months)`` of
:meth:`SimulationContext.affected_cells`, the sampler and the reports the
window ``(slice(None), ctx.window)``. Only those cells are evaluated, and the
disaster kernel only for their origins; ``at=None`` reads each covariate in place.

One kernel computes the logistic: per group of cells whose corridors share
a surplus profile, the cohort probabilities of at most ``_BLOCK_CELLS`` cells
at a time, age-major (active ages x cells), in place in one reused buffer.
The flows weight each block with elementwise products and sum it over ages
with :func:`_row_sums`, which adds one age at a time in a fixed order, one
rounding per addition (Demmel and Nguyen, "Parallel Reproducible Summation",
IEEE Trans. Computers 64(7), 2015); the event kernels sum over onset offsets
the same way. No BLAS product is involved, so the bytes do not depend on the
BLAS build, its CPU kernel or its thread count, and each cell's value does
not depend on its group, its block or the other cells asked for. This is the
package's only evaluation path; the tests check it against each destination
group's logistic taken whole and against per-cohort scalar oracles.
"""
from __future__ import annotations

import functools
import logging

import numpy as np

from . import behavior
from .behavior import BehaviorParams, DISASTER_WINDOW
from .dataio import Dataset, GLOBAL_SURPLUS, N_AGES, SEXES
from .months import WINDOW_MONTHS, year_of
from .population import build_population, demographics_arrays

log = logging.getLogger(__name__)


def _unbuffered(evaluate):
    """Run ``evaluate`` with numpy's smallest ufunc buffer.

    numpy (2.x) runs a broadcast operation over rows shorter than its buffer
    (8,192 elements by default), such as a block's active ages x cells, through
    copies into the buffer, at several times the cost; with a 16-element buffer
    it runs row by row. Every value stays the same.
    """
    @functools.wraps(evaluate)
    def wrapper(*args, **kwargs):
        size = np.setbufsize(16)
        try:
            return evaluate(*args, **kwargs)
        finally:
            np.setbufsize(size)
    return wrapper


class SimulationContext:
    """Dataset-derived arrays for one simulation window.

    The one home of the per-corridor arrays, each with a row per
    ``corridors`` entry: the monthly ``stocks`` per sex (cohort counts are
    those times ``shares``, see :meth:`cohort_counts`), the destination and
    origin GDP per year, and the covariates. Covariates are laid out as
    (n_corridors, 120 months) arrays over the full 2010-2019 grid;
    ``start``/``end`` only restrict which months are reported, so events and
    splines behave identically under narrowed windows. Instances are
    read-only after construction and safe to share.
    """

    def __init__(self, dataset: Dataset, *, start: int = 0, end: int = WINDOW_MONTHS - 1,
                 clamp_delta_gdp: bool = False):
        if not 0 <= start <= end <= WINDOW_MONTHS - 1:
            raise ValueError(f"window [{start}, {end}] outside the 2010-2019 grid")
        self.dataset = dataset
        self.start = start
        self.end = end
        self.clamp_delta_gdp = clamp_delta_gdp
        self.corridors = dataset.corridors
        self.n_corridors = len(self.corridors)
        self.n_months = WINDOW_MONTHS
        self._corridor_rows = {corridor: c for c, corridor in enumerate(self.corridors)}

        # the cohorts: stocks per (corridor, month, sex) and age shares per (sex, age)
        self.stocks = build_population(dataset)
        self.shares = np.vstack([dataset.age_shares[sex] for sex in SEXES])
        self.family = demographics_arrays(self.stocks, self.shares)[2]  # pyramid asymmetry

        # each corridor's origin and destination, as indices of the stock codes
        codes = np.array(dataset.stocks.codes)
        origin, dest = dataset.stocks.corridor_codes

        # GDP covariates per (corridor, year) from one (country, year) array,
        # each year spread over its 12 months
        years = range(year_of(0), year_of(self.n_months - 1) + 1)
        # the codes present, ascending, by bincount (not np.unique: see dataio._present)
        countries = np.flatnonzero(np.bincount(np.concatenate([origin, dest]),
                                               minlength=len(codes)))
        gdp = np.array([[dataset.gdp[(country, y)] for y in years]
                        for country in codes[countries].tolist()])
        origin_row, dest_row = np.searchsorted(countries, origin), np.searchsorted(countries, dest)
        # static normalization: min-max over all origins and all grid years
        origins = np.flatnonzero(np.bincount(origin_row, minlength=len(countries)))
        norm = np.zeros_like(gdp)
        norm[origins] = behavior.gdp_norm(gdp[origins])
        self.dest_gdp, self.origin_gdp = gdp[dest_row], gdp[origin_row]  # (n_c, years)
        self.delta_gdp, self.gdp_norm, self.monthly_income = (
            np.repeat(by_year, 12, axis=1) for by_year in (
                behavior.delta_gdp(self.dest_gdp, self.origin_gdp, clamp=clamp_delta_gdp),
                norm[origin_row], self.dest_gdp / 12.0))

        # corridor indices grouped by origin (shared disaster exposure), and each
        # corridor's surplus profile (the destination's own or GLOBAL_DEFAULT)
        self.origin_groups = _positions(codes[origin])
        surplus = dataset.surplus_by_country
        profile_of = [d if d in surplus else GLOBAL_SURPLUS for d in codes[dest].tolist()]
        profiles = {p: k for k, p in enumerate(dict.fromkeys(profile_of))}
        # per profile index with an earnings surplus at some age: the mask of
        # those ages and the surplus at them
        self._surplus_ages = {k: (surplus[p] > 0, surplus[p][surplus[p] > 0])
                              for p, k in profiles.items() if (surplus[p] > 0).any()}

        # per cell of the (corridors, months) grid, as read-only broadcast views
        # that an index of the grid gathers from: its month and its profile
        grid = (self.n_corridors, self.n_months)
        self._cell_months = np.broadcast_to(np.arange(self.n_months), grid)
        self._cell_profiles = np.broadcast_to(
            np.array([profiles[p] for p in profile_of], dtype=np.intp)[:, None], grid)

        # event magnitudes: affected share of the onset-year population, clamped at 1
        self._events, clamped = [], []
        for e in dataset.disasters:
            magnitude = e.affected / dataset.population[(e.country, year_of(e.onset_month))]
            if magnitude > 1.0:
                clamped.append(e.event_id)
                magnitude = 1.0
            self._events.append((e.event_id, e.country, e.onset_month, magnitude))
        if clamped:
            log.warning("%d event(s) affect more than their country's population, e.g. %s; "
                        "magnitude clamped to 1", len(clamped), clamped[:3])
        self._mag_cache: dict[frozenset | None, tuple[list[str], np.ndarray]] = {}
        self._mag_latest: dict[frozenset, tuple[list[str], np.ndarray]] = {}

        for arr in (self.stocks, self.shares, self.family, self.dest_gdp, self.origin_gdp,
                    self.delta_gdp, self.gdp_norm, self.monthly_income):
            arr.flags.writeable = False

    # -- window helpers ----------------------------------------------------

    @property
    def window(self) -> slice:
        return slice(self.start, self.end + 1)

    @property
    def window_months(self) -> range:
        return range(self.start, self.end + 1)

    def corridor_index(self, origin: str, destination: str) -> int:
        return self._corridor_rows[(origin, destination)]

    # -- disaster machinery --------------------------------------------------

    def event_magnitudes(self, active_ids: frozenset | None = None
                         ) -> tuple[np.ndarray, np.ndarray]:
        """Per corridor, its origin's index on the country axis of the
        magnitudes (-1: no active event), and the summed magnitudes by offset
        from the onset, country with an active event (in the order of their
        first event) and month: shape (12, countries, n_months).

        ``active_ids`` restricts to a subset of event ids; None means all.
        The all-events and no-event results stay cached: calibration and
        every scenario reuse those. Of the other sets only the latest is
        kept: a scenario evaluates its per-hazard or per-event set in one
        block per origin, one after another, and then never again.
        """
        cached = self._mag_cache.get(active_ids, self._mag_latest.get(active_ids))
        if cached is not None:
            return cached
        countries: dict[str, int] = {}
        active = [(countries.setdefault(country, len(countries)), onset, magnitude)
                  for event_id, country, onset, magnitude in self._events
                  if active_ids is None or event_id in active_ids]
        mags = np.zeros((DISASTER_WINDOW, len(countries), self.n_months))
        for c, onset, magnitude in active:
            for k in range(DISASTER_WINDOW):
                if 0 <= onset + k < self.n_months:
                    mags[k, c, onset + k] += magnitude
        country_of = np.full(self.n_corridors, -1, dtype=np.intp)
        for country, c in countries.items():
            country_of[self.origin_groups.get(country, [])] = c
        mags.flags.writeable = country_of.flags.writeable = False
        result = country_of, mags
        if active_ids:
            self._mag_latest = {active_ids: result}
        else:
            self._mag_cache[active_ids] = result
        return result

    def event_sums(self, terms: np.ndarray, active_ids: frozenset | None,
                   at) -> tuple[np.ndarray, np.ndarray]:
        """Per row of ``terms`` (one weight per onset offset), the weighted sums
        over the offsets of the magnitudes at the grid's cells ``at``, as
        (columns, table): ``table[:, columns]`` holds them, shaped as the grid's
        ``[at]``. Column 0 of ``table`` is 0.0, the sum at every cell whose
        origin has no active event; the others hold the sums per month of the
        origins of the cells asked for, and of no other."""
        country_of, mags = self.event_magnitudes(active_ids)
        countries = np.broadcast_to(country_of[:, None], self._cell_months.shape)[at]
        # the active origins of the cells, ascending (bincount: see dataio._present)
        present = np.flatnonzero(np.bincount(np.ravel(countries) + 1,
                                             minlength=mags.shape[1] + 1)[1:])
        table = np.zeros((len(terms), 1 + len(present) * self.n_months))
        table[:, 1:] = _row_sums(mags[:, present].reshape(DISASTER_WINDOW, -1), terms)
        # per origin (-1: none), its first column, and the months beyond it
        first = np.zeros(mags.shape[1] + 1, dtype=np.intp)
        first[present + 1] = 1 + np.arange(len(present)) * self.n_months
        return first[countries + 1] + (countries >= 0) * self._cell_months[at], table

    def affected_cells(self, ids_a: frozenset | None,
                       ids_b: frozenset | None) -> list[tuple[np.ndarray, np.ndarray]]:
        """Where flows under the event sets ``ids_a`` and ``ids_b`` can differ,
        as one block per origin.

        A (rows, months) pair of sorted index arrays for each country, in code
        order, with an event in one set but not the other that reaches a
        window month: the corridor rows of that origin (none if no corridor
        starts there) and the window months its differing events reach
        (onset .. onset + 11). None stands for all events. Within the window
        and outside the blocks the two flow grids are bit-identical: every
        other (corridor, month) sums the magnitudes of the same events in the
        same order, and a month no event of the set reaches scores exactly 0.0.
        """
        months: dict[str, set[int]] = {}
        for event_id, country, onset, _ in self._events:
            if (ids_a is None or event_id in ids_a) == (ids_b is None or event_id in ids_b):
                continue
            reach = range(max(onset, self.start), min(onset + DISASTER_WINDOW - 1, self.end) + 1)
            if reach:
                months.setdefault(country, set()).update(reach)
        no_rows = np.array([], dtype=np.intp)
        return [(self.origin_groups.get(country, no_rows), np.array(sorted(reached), dtype=np.intp))
                for country, reached in sorted(months.items())]

    def disaster_scores(self, params: BehaviorParams, active_ids: frozenset | None = None,
                        at=None) -> np.ndarray:
        """Summed kernel scores of the active events at the grid's cells ``at``
        (None: all), shaped as the grid's ``[at]``."""
        kernel = np.stack([np.ones(DISASTER_WINDOW),
                           np.sin(np.pi / 6.0 * (np.arange(DISASTER_WINDOW) + params.shift))])
        columns, (summed, sin_term) = self.event_sums(kernel, active_ids,
                                                      ... if at is None else at)
        scores = params.height * summed + params.shape * sin_term
        scores[0] = 0.0  # no active event
        return scores[columns]

    # -- probability and flows ------------------------------------------------

    def _base_scores(self, params: BehaviorParams, active_ids: frozenset | None,
                     at) -> np.ndarray:
        """The scores at the grid's cells ``at`` (not None), shaped as the grid's ``[at]``."""
        return (params.alpha
                + params.beta1 * self.family[at]
                + params.beta2 * self.delta_gdp[at]
                + params.beta3 * self.gdp_norm[at]
                + self.disaster_scores(params, active_ids, at))

    def _group_probabilities(self, params: BehaviorParams, base: np.ndarray, at):
        """The logistic, per group of the grid's cells ``at``, scored ``base``
        (flattened), whose corridors share a surplus profile with an earnings
        surplus at some age.

        Yields (the group's positions in ``base``, ascending; mask of the ages
        with earnings surplus, the surplus at them, blocks). ``blocks`` yields
        (slice of the positions, probabilities shaped (active ages, cells)),
        ``_BLOCK_CELLS`` cells at a time, each written in place into one buffer.
        """
        profiles = np.ravel(self._cell_profiles[at])
        groups = [(np.flatnonzero(profiles == p), *ages) for p, ages in self._surplus_ages.items()]
        groups = [group for group in groups if len(group[0])]
        if not groups:
            return
        most = max(len(pos) for pos, _, _ in groups)
        buffer = np.empty(min(most, _BLOCK_CELLS) * max(len(surplus) for *_, surplus in groups))
        for pos, active, surplus in groups:
            yield pos, active, surplus, _logistic_blocks(base[pos], -params.beta0 * surplus,
                                                         buffer)

    @_unbuffered
    def expected_flows(self, params: BehaviorParams, active_ids: frozenset | None = None,
                       at=None) -> np.ndarray:
        """Expected monthly USD flow at the cells ``at`` of the (corridor, month)
        grid, any numpy index of it; None covers the whole grid.

        flow = rho * monthly income * sum over cohorts of count * probability;
        ages without earnings surplus contribute exactly 0. The result equals
        the full 2010-2019 grid's ``[at]`` bit for bit.
        """
        at = ... if at is None else at
        base = self._base_scores(params, active_ids, at).ravel()
        # each cell's sums over ages of weight x probability, per sex
        per_m, per_f = np.zeros_like(base), np.zeros_like(base)
        for pos, active, _, blocks in self._group_probabilities(params, base, at):
            weights = self.shares[:, active]
            sums = np.empty((2, len(pos)))
            for cells, prob in blocks:
                sums[:, cells] = _row_sums(prob, weights)
            per_m[pos], per_f[pos] = sums
        # in place; one product or sum commutes exactly in floating point, so each
        # cell rounds as (rho x income) x (men x sum_m + women x sum_f)
        stocks, income = self.stocks[at], self.monthly_income[at]
        per_m, per_f = per_m.reshape(np.shape(income)), per_f.reshape(np.shape(income))
        per_m *= stocks[..., 0]
        per_f *= stocks[..., 1]
        per_m += per_f
        return np.multiply(params.rho * income, per_m, out=per_m)

    @_unbuffered
    def probability_cube(self, params: BehaviorParams, active_ids: frozenset | None = None,
                         at=None) -> np.ndarray:
        """Probability per cell ``at`` of the (corridor, month) grid and age, shaped
        as the grid's ``[at]`` plus an age axis; gated ages are exactly 0.

        ``at`` indexes the grid as in :meth:`expected_flows`; pass
        ``(slice(None), self.window)`` for a cube over the report window only.
        """
        at = ... if at is None else at
        scores = self._base_scores(params, active_ids, at)
        base = scores.ravel()
        cube = np.zeros((base.size, N_AGES))
        for pos, active, _, blocks in self._group_probabilities(params, base, at):
            ages = np.flatnonzero(active)
            for cells, prob in blocks:
                cube[np.ix_(pos[cells], ages)] = np.ascontiguousarray(prob.T)
        return cube.reshape(*scores.shape, N_AGES)

    def cohort_counts(self, corridors, months) -> np.ndarray:
        """Fractional cohort counts, each a stock times its age share.

        ``corridors`` and ``months`` index the first two axes of
        :attr:`stocks` as numpy indexes them (an int, an index array or a
        slice each); the result ends in the (2 sexes, 101 ages) axes, so one
        corridor-month gives shape (2, 101).
        """
        return self.stocks[corridors, months, :, None] * self.shares


# Cells per block of the logistic: few enough that a block of active ages x
# cells (at most 0.4 MB) and its weighted copies stay in cache from the
# logistic's first in-place pass to the last sum that reduces them.
_BLOCK_CELLS = 512


def _positions(labels: np.ndarray) -> dict:
    """The positions in ``labels`` of each distinct label, in order of first appearance."""
    return {key: np.flatnonzero(labels == key) for key in dict.fromkeys(labels.tolist())}


def _logistic_blocks(scores: np.ndarray, neg_shift: np.ndarray, buffer: np.ndarray):
    """Per block of at most ``_BLOCK_CELLS`` cells of ``scores``: (the block's
    slice, 1 / (1 + exp(-(score + shift))) shaped (len(neg_shift), cells)), each
    written in place at the start of ``buffer``. ``neg_shift`` is -shift, and
    ``-shift - score`` rounds exactly as ``-(score + shift)``."""
    for start in range(0, len(scores), _BLOCK_CELLS):
        cells = slice(start, min(start + _BLOCK_CELLS, len(scores)))
        prob = buffer[:len(neg_shift) * (cells.stop - start)].reshape(len(neg_shift), -1)
        np.subtract(neg_shift[:, None], scores[cells], out=prob)
        with np.errstate(over="ignore"):
            np.exp(prob, out=prob)
        np.add(1.0, prob, out=prob)
        np.divide(1.0, prob, out=prob)
        yield cells, prob


def _row_sums(block: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per row ``w`` of ``weights``, the sums over the rows of ``block`` of
    ``w[i] * block[i]``: shape (len(weights), block columns).

    Each column adds its products in row order, one rounding per addition,
    the same on any machine: ``np.add.reduce`` over the rows of a C-ordered
    array adds one row at a time. Over a single column it adds pairwise
    instead, so a single column is summed as two.
    """
    if block.shape[1] == 1:
        return _row_sums(np.repeat(block, 2, axis=1), weights)[:, :1]
    products = np.empty((len(weights), *block.shape))  # C-ordered, whatever the inputs
    return np.add.reduce(np.multiply(block, weights[:, :, None], out=products), axis=1)


def probability_profile(ctx: SimulationContext, params: BehaviorParams, origin: str,
                        month: int, active_ids: frozenset | None = None,
                        cube: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Diaspora probability profile for one origin at one month, pooling all
    destinations of the origin's diaspora.

    Two arrays, cumulative population fraction and probability, with one
    entry per cohort with a positive count, by descending probability; ties
    keep corridor, sex, age order. ``month`` lies in the context's window.
    Pass a precomputed window cube, ``ctx.probability_cube(params,
    active_ids, (slice(None), ctx.window))``, when profiling many origin-months.
    """
    if not ctx.start <= month <= ctx.end:
        raise ValueError(f"month {month} outside the window [{ctx.start}, {ctx.end}]")
    if cube is None:
        cube = ctx.probability_cube(params, active_ids, (slice(None), ctx.window))
    idx = ctx.origin_groups.get(origin, np.array([], dtype=int))
    counts = ctx.cohort_counts(idx, month)  # (corridors, sexes, ages)
    probs = np.broadcast_to(cube[idx, month - ctx.start, None, :], counts.shape)
    keep = counts > 0
    counts, probs = counts[keep], probs[keep]
    if counts.size == 0:
        return counts, probs
    # the denominator sums in cohort order, the numerators in probability order
    total = np.cumsum(counts)[-1]
    order = np.argsort(-probs, kind="stable")
    cum = np.cumsum(counts[order])
    return cum / total, probs[order]


def scenario_none() -> frozenset:
    """Event filter for the no-disaster counterfactual."""
    return frozenset()


def scenario_only_hazard(dataset: Dataset, hazard: str) -> frozenset:
    return frozenset(e.event_id for e in dataset.disasters if e.hazard == hazard)


def scenario_without_hazard(dataset: Dataset, hazard: str) -> frozenset:
    return frozenset(e.event_id for e in dataset.disasters if e.hazard != hazard)


def scenario_only_event(dataset: Dataset, event_id: str) -> frozenset:
    if all(e.event_id != event_id for e in dataset.disasters):
        raise KeyError(f"unknown event_id {event_id!r}")
    return frozenset({event_id})
