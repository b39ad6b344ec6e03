"""Vectorized expected-flow evaluation over corridor-months.

The SimulationContext precomputes every covariate that does not depend on
the behavioural parameters (stocks, family proxy, GDP covariates, event
magnitudes), so that repeated evaluations during calibration only pay for
the score assembly and the logistic transform. An evaluation covers all
corridor-months, or only the corridor rows and month columns it is asked
for: calibration restricts the months to the panel's, ``compare-baseline``
to the panel's window months over all rows, and a scenario each origin's
rows and months to a block of :meth:`SimulationContext.affected_cells`, the
only cells where its event set can change a flow.

One kernel computes the logistic: per group of corridors that share a
surplus profile, the cohort probabilities of at most ``_BLOCK_CELLS`` cells
at a time, in place in one reused buffer, and the flows reduce each block
with the 64-row products of :func:`_matvec`. Blocks start at multiples of 64
cells, so every cell rounds as if its group were taken whole. A
row-restricted evaluation (``rows=``, with or without ``cols=``) takes one
group per surplus profile and equals the matching slice of the full grid bit
for bit, at any BLAS thread count. The full grid, a column-only evaluation
and the Jacobian take one group per destination, because the unpadded tail
of a column-only group rounds by the group's size: a column-only evaluation
may differ from the full grid in the last bits of a group's last cells.
This is the package's only evaluation path; the tests check it against the
whole-group logistic and against per-cohort scalar oracles.
"""
from __future__ import annotations

import logging
from typing import Mapping

import numpy as np

from . import behavior
from .behavior import BehaviorParams, DISASTER_WINDOW
from .dataio import Dataset, GLOBAL_SURPLUS, N_AGES, SEXES
from .months import WINDOW_MONTHS, year_of
from .population import build_population, demographics_arrays

log = logging.getLogger(__name__)


class SimulationContext:
    """Dataset-derived arrays for one simulation window.

    Covariates are laid out as (n_corridors, 120 months) arrays over the
    full 2010-2019 grid; ``start``/``end`` only restrict which months are
    reported, so events and splines behave identically under narrowed
    windows. Instances are read-only after construction and safe to share.
    """

    def __init__(self, dataset: Dataset, *, start: int = 0, end: int = WINDOW_MONTHS - 1,
                 clamp_delta_gdp: bool = False):
        if not 0 <= start <= end <= WINDOW_MONTHS - 1:
            raise ValueError(f"window [{start}, {end}] outside the 2010-2019 grid")
        self.dataset = dataset
        self.start = start
        self.end = end
        self.clamp_delta_gdp = clamp_delta_gdp
        self.population = build_population(dataset)
        self.corridors = self.population.corridors
        self.n_corridors = len(self.corridors)
        self.n_months = WINDOW_MONTHS

        self.stocks = self.population.stocks  # (n_c, n_m, 2)
        self.family = demographics_arrays(self.population)[2]  # pyramid asymmetry
        self.shares = np.vstack([self.population.shares[sex] for sex in SEXES])

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
        self.delta_gdp, self.gdp_norm, self.monthly_income = (
            np.repeat(by_year, 12, axis=1) for by_year in (
                behavior.delta_gdp(gdp[dest_row], gdp[origin_row], clamp=clamp_delta_gdp),
                norm[origin_row], gdp[dest_row] / 12.0))

        # corridor indices grouped by destination (shared surplus profile)
        # and by origin (shared disaster exposure)
        self._origin_of, self._dest_of = codes[origin], codes[dest]
        self.dest_groups = _positions(self._dest_of)
        self.origin_groups = _positions(self._origin_of)
        # each destination's surplus profile (its own or GLOBAL_DEFAULT), and
        # each corridor's
        self._profile = {d: d if d in dataset.surplus_by_country else GLOBAL_SURPLUS
                         for d in self.dest_groups}
        self._profile_of = np.array([self._profile[d] for d in self._dest_of.tolist()])
        # per profile with an earnings surplus at some age: the mask of those
        # ages and the surplus at them
        profiles = {p: dataset.surplus_by_country[p] for p in self._profile.values()}
        self._surplus_ages = {p: (s > 0, s[s > 0]) for p, s in profiles.items() if (s > 0).any()}

        # event magnitudes: affected share of the onset-year population, clamped at 1
        self._events = []
        for e in dataset.disasters:
            pop = dataset.population[(e.country, year_of(e.onset_month))]
            magnitude = e.affected / pop
            if magnitude > 1.0:
                log.warning("event %s: affected %s exceeds population %s; magnitude clamped to 1",
                            e.event_id, e.affected, pop)
                magnitude = 1.0
            self._events.append((e.event_id, e.country, e.onset_month, magnitude))
        self._mag_cache: dict[frozenset | None, Mapping[str, np.ndarray]] = {}
        self._mag_latest: dict[frozenset, Mapping[str, np.ndarray]] = {}

        for arr in (self.family, self.delta_gdp, self.gdp_norm, self.monthly_income, self.shares):
            arr.flags.writeable = False

    # -- window helpers ----------------------------------------------------

    @property
    def window(self) -> slice:
        return slice(self.start, self.end + 1)

    @property
    def window_months(self) -> range:
        return range(self.start, self.end + 1)

    def corridor_index(self, origin: str, destination: str) -> int:
        return self.population.corridor_index(origin, destination)

    @staticmethod
    def _take(arr: np.ndarray, rows: np.ndarray | None, cols) -> np.ndarray:
        """``arr`` restricted to corridor ``rows`` and month ``cols`` (None: all)."""
        if rows is not None:
            arr = arr[rows]
        return arr if cols is None else arr[:, cols]

    def _row_groups(self, groups: Mapping[str, np.ndarray], labels: np.ndarray,
                    rows: np.ndarray | None) -> Mapping[str, np.ndarray]:
        """``groups`` (label to corridor indices) itself, or with ``rows`` the
        positions in ``rows`` of each label that has any, in the order of ``rows``."""
        return groups if rows is None else _positions(labels[rows])

    # -- disaster machinery --------------------------------------------------

    def event_magnitudes(self, active_ids: frozenset | None = None) -> Mapping[str, np.ndarray]:
        """Per-country (n_months, 12) matrices of summed magnitudes by offset.

        ``active_ids`` restricts to a subset of event ids; None means all.
        The all-events and no-event results stay cached: calibration and
        every scenario reuse those. Of the other sets only the latest is
        kept: a scenario evaluates its per-hazard or per-event set in one
        block per origin, one after another, and then never again.
        """
        cached = self._mag_cache.get(active_ids, self._mag_latest.get(active_ids))
        if cached is not None:
            return cached
        mags: dict[str, np.ndarray] = {}
        for event_id, country, onset, magnitude in self._events:
            if active_ids is not None and event_id not in active_ids:
                continue
            arr = mags.setdefault(country, np.zeros((self.n_months, DISASTER_WINDOW)))
            for k in range(DISASTER_WINDOW):
                month = onset + k
                if 0 <= month < self.n_months:
                    arr[month, k] += magnitude
        for arr in mags.values():
            arr.flags.writeable = False
        if active_ids:
            self._mag_latest = {active_ids: mags}
        else:
            self._mag_cache[active_ids] = mags
        return mags

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
                        rows: np.ndarray | None = None) -> np.ndarray:
        """Summed kernel scores per (corridor, month) for the active events;
        with ``rows``, for those corridors only, shape (len(rows), n_months)."""
        sin_vec = np.sin(np.pi / 6.0 * (np.arange(DISASTER_WINDOW) + params.shift))
        scores = np.zeros((self.n_corridors if rows is None else len(rows), self.n_months))
        groups = self._row_groups(self.origin_groups, self._origin_of, rows)
        for country, mag in self.event_magnitudes(active_ids).items():
            idx = groups.get(country)
            if idx is None:
                continue
            scores[idx] = params.height * mag.sum(axis=1) + params.shape * (mag @ sin_vec)
        return scores

    # -- probability and flows ------------------------------------------------

    def _base_scores(self, params: BehaviorParams, active_ids: frozenset | None,
                     cols: np.ndarray | slice | None = None,
                     rows: np.ndarray | None = None) -> np.ndarray:
        return (params.alpha
                + params.beta1 * self._take(self.family, rows, cols)
                + params.beta2 * self._take(self.delta_gdp, rows, cols)
                + params.beta3 * self._take(self.gdp_norm, rows, cols)
                + self._take(self.disaster_scores(params, active_ids, rows), None, cols))

    def _group_probabilities(self, params: BehaviorParams, base: np.ndarray,
                             rows: np.ndarray | None = None, whole: bool = False):
        """The logistic, per group with an earnings surplus at some age.

        Yields (indices into the rows of ``base``, mask of the ages with
        earnings surplus, blocks). ``base`` covers all corridors, in one group
        per destination, or the corridor ``rows``, in one group per surplus
        profile. A group's cells run corridor by corridor, the
        columns of ``base`` within each; ``blocks`` yields (cell slice,
        probabilities shaped (cells, active ages)) over them, in the blocks of
        :func:`_blocks`, or all in one if ``whole``. Every block is written in
        place into one buffer, so it holds only until the next is drawn.
        """
        profiles = ([(idx, self._profile[dest]) for dest, idx in self.dest_groups.items()]
                    if rows is None else
                    [(idx, profile) for profile, idx in _positions(self._profile_of[rows]).items()])
        groups = []
        for idx, profile in profiles:
            if profile in self._surplus_ages:
                active, surplus = self._surplus_ages[profile]
                groups.append((idx, active, params.beta0 * surplus))
        if not groups:
            return
        most = max(len(idx) for idx, _, _ in groups) * base.shape[1]
        ages = max(len(shift) for _, _, shift in groups)
        buffer = np.empty((most if whole else min(most, _BLOCK_CELLS + 1)) * ages)
        for idx, active, shift in groups:
            scores = base[idx].ravel()
            yield idx, active, _logistic_blocks(scores, shift, buffer,
                                                _blocks(len(scores), None if whole else _BLOCK_CELLS))

    def expected_flows(self, params: BehaviorParams, active_ids: frozenset | None = None,
                       cols: np.ndarray | None = None,
                       rows: np.ndarray | None = None) -> np.ndarray:
        """Expected monthly USD flow per (corridor, month).

        flow = rho * monthly income * sum over cohorts of count * probability;
        ages without earnings surplus contribute exactly 0. ``cols`` restricts
        the evaluation to a subset of month columns (calibration hot path) and
        ``rows`` to a subset of corridors (scenarios); the result has shape
        (len(rows), len(cols)). With ``rows`` it equals that slice of the full
        2010-2019 grid, which the defaults cover, bit for bit; without, the
        last cells of a destination group may differ in the last bits.
        """
        base = self._base_scores(params, active_ids, cols, rows)
        n_cols = base.shape[1]
        stocks = self._take(self.stocks, rows, cols)
        income = self._take(self.monthly_income, rows, cols)
        # each cell's sums over ages of weight x probability, per sex; every
        # array takes the memory layout of base, which later sums follow
        per_m, per_f = np.zeros_like(base), np.zeros_like(base)
        pad_tail = rows is not None
        for idx, active, blocks in self._group_probabilities(params, base, rows):
            w_m, w_f = self.shares[:, active]
            sums = np.empty((2, len(idx) * n_cols))
            for cells, prob in blocks:
                sums[0, cells] = _matvec(prob, w_m, pad_tail)
                sums[1, cells] = _matvec(prob, w_f, pad_tail)
            per_m[idx], per_f[idx] = sums.reshape(2, len(idx), n_cols)
        # in place; one product or sum commutes exactly in floating point, so each
        # cell rounds as (rho x income) x (men x sum_m + women x sum_f)
        per_m *= stocks[..., 0]
        per_f *= stocks[..., 1]
        per_m += per_f
        return np.multiply(params.rho * income, per_m, out=per_m)

    def flow_jacobian(self, params: BehaviorParams, rows: np.ndarray, cols: np.ndarray,
                      col_pos: np.ndarray) -> np.ndarray:
        """Derivatives of the expected flows at the cells ``(rows, cols[col_pos])``.

        Shape (len(rows), 9), one column per parameter in ``PARAM_NAMES`` order,
        except that the last is taken with respect to logit(rho); all events
        are active. Per cell, with sigma the logistic of a cohort of count n·w,
        S1 = sum n·w·sigma, S2 = sum n·w·sigma·(1 - sigma) and
        S3 = sum n·w·sigma·(1 - sigma)·surplus; the flow is rho·income·S1, and
        each score coefficient enters through rho·income·S2 times its covariate.
        """
        base = self._base_scores(params, None, cols)
        n_cols = base.shape[1]
        stocks = self.stocks[:, cols, :]
        sums = np.zeros((3, self.n_corridors, n_cols))  # S1, S2, S3
        w_m, w_f = self.shares
        # whole groups: the matrix products below round differently by row count,
        # so blocks would move the Jacobian's last bits
        for idx, active, blocks in self._group_probabilities(params, base, whole=True):
            surplus = self._surplus_ages[self._profile_of[idx[0]]][1]  # one destination per group
            (_, flat), = blocks
            wm, wf = w_m[active], w_f[active]
            level = flat @ np.stack([wm, wf], axis=1)
            slope = (flat * (1.0 - flat)) @ np.stack([wm, wf, wm * surplus, wf * surplus], axis=1)
            per_sex = np.stack([level, slope[:, :2], slope[:, 2:]])  # (3, cells, sexes)
            counts = stocks[idx].reshape(-1, 2)  # cells in the row order of flat
            sums[:, idx] = (per_sex * counts).sum(axis=2).reshape(3, len(idx), n_cols)

        # per (corridor, month): summed magnitudes, and the kernel's sin and d(sin)/d(shift) terms
        phase = np.pi / 6.0 * (np.arange(DISASTER_WINDOW) + params.shift)
        terms = np.stack([np.ones(DISASTER_WINDOW), np.sin(phase), np.pi / 6.0 * np.cos(phase)],
                         axis=1)
        events = np.zeros((self.n_corridors, self.n_months, 3))
        for country, mag in self.event_magnitudes(None).items():
            idx = self.origin_groups.get(country)
            if idx is not None:
                events[idx] = mag @ terms

        months = cols[col_pos]
        s1, s2, s3 = sums[:, rows, col_pos]
        scale = params.rho * self.monthly_income[rows, months]
        d_score = scale * s2  # derivative of the flow with respect to the score
        ev = events[rows, months]
        jac = np.empty((len(rows), 9))
        jac[:, 0] = d_score
        jac[:, 1] = scale * s3
        jac[:, 2] = d_score * self.family[rows, months]
        jac[:, 3] = d_score * self.delta_gdp[rows, months]
        jac[:, 4] = d_score * self.gdp_norm[rows, months]
        jac[:, 5] = d_score * ev[:, 0]
        jac[:, 6] = d_score * ev[:, 1]
        jac[:, 7] = d_score * params.shape * ev[:, 2]
        jac[:, 8] = scale * s1 * (1.0 - params.rho)
        return jac

    def probability_cube(self, params: BehaviorParams, active_ids: frozenset | None = None,
                         cols: np.ndarray | slice | None = None,
                         rows: np.ndarray | None = None) -> np.ndarray:
        """Probability per (corridor, month, age); gated ages are exactly 0.

        ``cols`` and ``rows`` restrict the months and corridors as in
        :meth:`expected_flows`; pass ``cols=self.window`` for a cube over the
        report window only.
        """
        base = self._base_scores(params, active_ids, cols, rows)
        n_cols = base.shape[1]
        cube = np.zeros((base.shape[0], n_cols, N_AGES))
        by_cell = cube.reshape(-1, N_AGES)  # a view, one row per (row of base, column)
        for idx, active, blocks in self._group_probabilities(params, base, rows):
            cell_rows = (idx[:, None] * n_cols + np.arange(n_cols)).ravel()
            ages = np.flatnonzero(active)
            for cells, prob in blocks:
                by_cell[np.ix_(cell_rows[cells], ages)] = prob
        return cube

    def cohort_counts(self, corridor: int, month: int) -> np.ndarray:
        """(2, 101) fractional cohort counts for one corridor-month."""
        return self.population.counts(corridor, month)


# Rows per BLAS matrix-vector product: a multiple of 4, and few enough
# (64 x 101 ages) that OpenBLAS computes each product on one thread.
_PRODUCT_ROWS = 64
# Cells per block of the logistic: a multiple of _PRODUCT_ROWS, and few enough
# that a block of cells x ages (at most 0.8 MB) stays in cache from the
# logistic's first in-place pass to the last product that reduces it.
_BLOCK_CELLS = 1024


def _positions(labels: np.ndarray) -> dict[str, np.ndarray]:
    """The positions in ``labels`` of each distinct label, in order of first appearance."""
    return {key: np.flatnonzero(labels == key) for key in dict.fromkeys(labels.tolist())}


def _blocks(n_cells: int, size: int | None) -> list[slice]:
    """Slices of ``n_cells`` cells: ``size`` each from cell 0, or one over all if
    ``size`` is None or they fit in one. A one-cell remainder joins the block
    before it, as :func:`_matvec` joins a one-row remainder to the product
    before it; so for a ``size`` that is a multiple of _PRODUCT_ROWS, each cell
    of the blocks meets the same products as in one block over all."""
    if size is None or n_cells <= size:
        return [slice(0, n_cells)]
    starts = list(range(0, n_cells, size))
    if n_cells - starts[-1] == 1:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [n_cells])]


def _logistic_blocks(scores: np.ndarray, shift: np.ndarray, buffer: np.ndarray,
                     blocks: list[slice]):
    """Per block of ``scores``: (the block, 1 / (1 + exp(-(score + shift)))
    shaped (cells, len(shift))), each written in place at the start of ``buffer``
    by the same operations, in the same order, as one expression over all."""
    for cells in blocks:
        prob = buffer[:(cells.stop - cells.start) * len(shift)].reshape(-1, len(shift))
        np.add(scores[cells, None], shift, out=prob)
        np.negative(prob, out=prob)
        with np.errstate(over="ignore"):
            np.exp(prob, out=prob)
        np.add(1.0, prob, out=prob)
        np.divide(1.0, prob, out=prob)
        yield cells, prob


def _matvec(matrix: np.ndarray, vector: np.ndarray, pad_tail: bool) -> np.ndarray:
    """``matrix @ vector``, each row rounded the same at every BLAS thread count.

    OpenBLAS sums the trailing ``len(matrix) % 4`` rows of a matrix-vector
    product in another order than the others, and splits a large product
    across threads at boundaries that need not be multiples of 4; numpy takes
    a one-row product as a dot product. So the rows go in products of 64 that
    start at multiples of 4, and a one-row remainder joins the product before
    it. A full grid multiplies 120 months per corridor, a multiple of 4;
    ``pad_tail`` pads the trailing rows of a restricted evaluation to 4 so
    that they round the same way.
    """
    n_head = len(matrix) - len(matrix) % _PRODUCT_ROWS
    if n_head and len(matrix) - n_head == 1:
        n_head -= _PRODUCT_ROWS
    rest = matrix[n_head:]
    if pad_tail and len(rest) % 4:
        padded = np.zeros((len(rest) + 4 - len(rest) % 4, matrix.shape[1]))
        padded[:len(rest)] = rest
        rest = padded
    last = (rest @ vector)[:len(matrix) - n_head]
    if not n_head:
        return last
    head = np.matmul(matrix[:n_head].reshape(-1, _PRODUCT_ROWS, matrix.shape[1]), vector)
    return np.concatenate([head.ravel(), last])


def probability_profile(ctx: SimulationContext, params: BehaviorParams, origin: str,
                        month: int, active_ids: frozenset | None = None,
                        cube: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Diaspora probability profile for one origin at one month, pooling all
    destinations of the origin's diaspora.

    Two arrays, cumulative population fraction and probability, with one
    entry per cohort with a positive count, by descending probability; ties
    keep corridor, sex, age order. ``month`` lies in the context's window.
    Pass a precomputed window cube, ``ctx.probability_cube(params,
    active_ids, ctx.window)``, when profiling many origin-months.
    """
    if not ctx.start <= month <= ctx.end:
        raise ValueError(f"month {month} outside the window [{ctx.start}, {ctx.end}]")
    if cube is None:
        cube = ctx.probability_cube(params, active_ids, ctx.window)
    idx = ctx.origin_groups.get(origin, np.array([], dtype=int))
    counts = ctx.stocks[idx, month, :, None] * ctx.shares  # (corridors, sexes, ages)
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
