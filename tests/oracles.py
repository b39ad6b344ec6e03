"""Scalar per-cohort reference implementations, used as test oracles.

Each evaluates one cohort, event, corridor-month, stock series or panel
observation in plain Python; the package evaluates the same model through
arrays in ``remitsim.engine``, ``dataio``, ``calibration``, ``baseline`` and
``scenarios``.
This module never imports the engine, flows or scenarios modules, so it
cannot reuse the code it checks.

The last two sections take a ``SimulationContext`` and reuse its
covariates. The whole-group kernel computes each destination group's
logistic in one expression over all its cells and reduces it in one pass,
as the engine did before it worked in blocks; it checks the block kernel's
bits, not the flow model. The scenario references evaluate every
corridor-month of each event set through the context and return the fields
of the scenario results as dicts. They check the scenarios' locality
(evaluating only the affected cells), not the flow model.
"""
from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from remitsim.baseline import ComparisonReport, ComparisonRow, gravity_per_migrant
from remitsim.behavior import DISASTER_WINDOW, BehaviorParams
from remitsim.dataio import (ANCHOR_YEARS, HAZARDS, N_AGES, SEXES, Dataset, DataValidationError,
                             DisasterEvent, FlowObservation, MigrantStockRecord, _serialize_tables)
from remitsim.months import WINDOW_MONTHS, month_label, year_of
from remitsim.population import PARENTING_MAX_AGE, YOUNG_MAX_AGE, Population
from remitsim.reports import sequential_sum

log = logging.getLogger(__name__)

NEVER_REMITS = float("-inf")


def events_by_country(dataset: Dataset) -> Mapping[str, tuple[DisasterEvent, ...]]:
    out: dict[str, list[DisasterEvent]] = {}
    for e in dataset.disasters:
        out.setdefault(e.country, []).append(e)
    return {c: tuple(evs) for c, evs in out.items()}


def fingerprint(dataset: Dataset) -> str:
    """SHA-256 over the canonical CSV serialization; used to detect mutation."""
    h = hashlib.sha256()
    for name, rows in _serialize_tables(dataset):
        h.update(name.encode())
        for row in rows:
            h.update(",".join(row).encode())
            h.update(b"\n")
    return h.hexdigest()


@dataclass(frozen=True)
class MigrantCohort:
    origin: str
    destination: str
    sex: str
    age: int
    month: int
    count: float


def cohorts(population: Population, origin: str, destination: str,
            month: int) -> list[MigrantCohort]:
    counts = population.counts(population.corridor_index(origin, destination), month)
    return [MigrantCohort(origin, destination, sex, age, month, float(counts[s, age]))
            for s, sex in enumerate(SEXES) for age in range(N_AGES)
            if population.shares[sex][age] > 0]


def _symmetry(a: float, b: float) -> float:
    # 2*min/(a+b) rather than min/(0.5*(a+b)): halving a subnormal sum
    # underflows to zero
    if a + b == 0:
        return 0.0
    return 2.0 * min(a, b) / (a + b)


def age_symmetry(cohorts: Iterable[MigrantCohort]) -> float:
    """min(parenting, young) / mean(parenting, young); 0 when both bands are empty.

    Ages 51+ contribute to neither band.
    """
    young = parenting = 0.0
    for c in cohorts:
        if c.age <= YOUNG_MAX_AGE:
            young += c.count
        elif c.age <= PARENTING_MAX_AGE:
            parenting += c.count
    return _symmetry(young, parenting)


def sex_symmetry(cohorts: Iterable[MigrantCohort]) -> float:
    male = female = 0.0
    for c in cohorts:
        if c.sex == "male":
            male += c.count
        else:
            female += c.count
    return _symmetry(male, female)


class DiasporaDemographics(NamedTuple):
    origin: str
    destination: str
    month: int
    age_symmetry: float
    sex_symmetry: float
    asymmetry: float
    family: float


def family_probability(cohorts: Sequence[MigrantCohort]) -> DiasporaDemographics | None:
    """Pyramid asymmetry as the family proxy: 1 - sex_symmetry * age_symmetry.

    Returns None for an empty corridor-month.
    """
    if not cohorts or sum(c.count for c in cohorts) == 0:
        return None
    a = age_symmetry(cohorts)
    s = sex_symmetry(cohorts)
    asymmetry = 1.0 - s * a
    first = cohorts[0]
    return DiasporaDemographics(origin=first.origin, destination=first.destination,
                                month=first.month, age_symmetry=a, sex_symmetry=s,
                                asymmetry=asymmetry, family=asymmetry)


@dataclass(frozen=True)
class CovariateVector:
    surplus: float
    family: float
    delta_gdp: float
    gdp_norm: float
    disaster_score: float


def delta_gdp(gdp_dest: float, gdp_origin: float, *, clamp: bool = False) -> float:
    """Relative GDP gap of one corridor-year: divided by the smaller GDP, signed."""
    if gdp_dest <= 0 or gdp_origin <= 0:
        raise ValueError(f"GDP per capita must be positive, got ({gdp_dest}, {gdp_origin})")
    if gdp_dest > gdp_origin:
        value = (gdp_dest - gdp_origin) / gdp_origin
    else:
        value = -(gdp_origin - gdp_dest) / gdp_dest
    if clamp:
        value = min(1.0, max(-1.0, value))
    return value


def kernel_value(magnitude: float, offset: int, params: BehaviorParams) -> float:
    """Score contribution of one event at an integer month offset from onset.

    magnitude * (height + shape * sin(pi/6 * (offset + shift))) inside the
    12-month window, 0 outside. Offset 0 is the onset month itself.
    """
    if offset < 0 or offset >= DISASTER_WINDOW:
        return 0.0
    return magnitude * (params.height + params.shape * math.sin(math.pi / 6.0 * (offset + params.shift)))


def disaster_score(events: Iterable[DisasterEvent], month: int, population: float,
                   params: BehaviorParams) -> float:
    """Joint score effect of all events overlapping ``month`` for one country.

    Event magnitude is the affected share of the population, clamped at 1;
    overlapping events sum.
    """
    if population <= 0:
        raise ValueError(f"population must be positive, got {population}")
    total = 0.0
    for event in events:
        magnitude = event.affected / population
        if magnitude > 1.0:
            log.warning("event %s: affected %s exceeds population %s; magnitude clamped to 1",
                        event.event_id, event.affected, population)
            magnitude = 1.0
        total += kernel_value(magnitude, month - event.onset_month, params)
    return total


def theta(cov: CovariateVector, params: BehaviorParams) -> float:
    """Decision score; the never-remits sentinel when there is no surplus."""
    if cov.surplus <= 0.0:
        return NEVER_REMITS
    return (params.alpha
            + params.beta0 * cov.surplus
            + params.beta1 * cov.family
            + params.beta2 * cov.delta_gdp
            + params.beta3 * cov.gdp_norm
            + cov.disaster_score)


def probability(score: float) -> float:
    """Logistic transform 1 / (1 + exp(-score)); the sentinel maps to exactly 0."""
    if score == NEVER_REMITS:
        return 0.0
    if score >= 0:
        return 1.0 / (1.0 + math.exp(-score))
    e = math.exp(score)
    return e / (1.0 + e)


def probability_profile(counts: Sequence[float], probabilities: Sequence[float]
                        ) -> list[tuple[float, float]]:
    """Sorted probability curve over the cumulative population fraction.

    Cohort probabilities are ordered descending, each carrying its count;
    the x-axis is the cumulative population share in [0, 1]. Returns
    (cum_fraction, probability) pairs, one per cohort with positive count.
    """
    pairs = [(float(p), float(c)) for p, c in zip(probabilities, counts, strict=True) if c > 0]
    total = sum(c for _, c in pairs)
    if total == 0:
        return []
    pairs.sort(key=lambda pc: -pc[0])
    points = []
    cum = 0.0
    for p, c in pairs:
        cum += c
        points.append((cum / total, p))
    return points


def activation_capacity(score: float, delta: float) -> float:
    """Probability increase from a score shock of size delta (>= 0).

    Largest for cohorts near the logistic midpoint: over all scores the
    increase peaks at score = -delta/2.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    return probability(score + delta) - probability(score)


def expected_flow(counts: Sequence[float], probabilities: Sequence[float],
                  params: BehaviorParams, gdp_dest_monthly: float) -> float:
    """Exact expected USD flow of one corridor-month.

    Sum over cohorts of count * probability * rho * monthly income.
    """
    c = np.asarray(counts, dtype=float)
    p = np.asarray(probabilities, dtype=float)
    if c.shape != p.shape:
        raise ValueError("counts and probabilities must align")
    return float((c * p).sum() * params.rho * gdp_dest_monthly)


def sample_flows(counts: Sequence[float], probabilities: Sequence[float],
                 params: BehaviorParams, gdp_dest_monthly: float, seed, draws: int) -> np.ndarray:
    """Sampled USD totals of one corridor-month under the Bernoulli model.

    Counts are rounded half-to-even for sampling; each cohort contributes a
    binomial(count, p) number of senders. Reproducible given the seed.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    n = np.rint(np.asarray(counts, dtype=float)).astype(np.int64)
    p = np.asarray(probabilities, dtype=float)
    if n.shape != p.shape:
        raise ValueError("counts and probabilities must align")
    rng = np.random.default_rng(seed)
    senders = rng.binomial(n, p, size=(draws, n.size)).sum(axis=1)
    return senders * params.rho * gdp_dest_monthly


# ---------------------------------------------------------------------------
# Stock spline one series at a time, and the gravity loss and the scenario
# summaries one observation or cell at a time

def _natural_cubic_second_derivs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    n = len(x)
    m = np.zeros(n)
    if n < 3:
        return m
    h = np.diff(x)
    rhs = 6.0 * ((y[2:] - y[1:-1]) / h[1:] - (y[1:-1] - y[:-2]) / h[:-1])
    diag = 2.0 * (h[:-1] + h[1:]).copy()
    lower = h[:-1].copy()
    upper = h[1:].copy()
    k = n - 2
    for i in range(1, k):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    sol = np.zeros(k)
    sol[-1] = rhs[-1] / diag[-1]
    for i in range(k - 2, -1, -1):
        sol[i] = (rhs[i] - upper[i] * sol[i + 1]) / diag[i]
    m[1:-1] = sol
    return m


def _eval_natural_cubic(x: np.ndarray, y: np.ndarray, m: np.ndarray, xq: np.ndarray) -> np.ndarray:
    idx = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, len(x) - 2)
    xl, xu = x[idx], x[idx + 1]
    yl, yu = y[idx], y[idx + 1]
    ml, mu = m[idx], m[idx + 1]
    h = xu - xl
    a, b = xu - xq, xq - xl
    out = (ml * a**3 + mu * b**3) / (6.0 * h) + (yl / h - h * ml / 6.0) * a + (yu / h - h * mu / 6.0) * b
    out = np.where(b == 0.0, yl, out)
    out = np.where(a == 0.0, yu, out)
    return out


def interpolate_stocks_monthly(stocks: Sequence[MigrantStockRecord]
                               ) -> dict[tuple[str, str, str], np.ndarray]:
    """Natural cubic spline through the three anchors per series, clamped at 0."""
    anchors: dict[tuple[str, str, str], dict[int, float]] = {}
    for r in stocks:
        anchors.setdefault((r.origin, r.destination, r.sex), {})[r.anchor_year] = r.count
    nodes = np.array([(y - 2010) * 12.0 for y in ANCHOR_YEARS])
    months = np.arange(WINDOW_MONTHS, dtype=float)
    out: dict[tuple[str, str, str], np.ndarray] = {}
    for key, by_year in anchors.items():
        missing = sorted(set(ANCHOR_YEARS) - set(by_year))
        if missing:
            raise DataValidationError(f"corridor {key[0]}->{key[1]} sex {key[2]} missing anchor year(s) {missing}")
        y = np.array([by_year[yr] for yr in ANCHOR_YEARS], dtype=float)
        m2 = _natural_cubic_second_derivs(nodes, y)
        out[key] = np.maximum(_eval_natural_cubic(nodes, y, m2, months), 0.0)
    return out


def annual_stocks(dataset: Dataset) -> dict[tuple[str, str, int], float]:
    """Mean monthly stock per corridor-year, one series and one year at a time."""
    out: dict[tuple[str, str, int], float] = {}
    for (origin, dest, _sex), monthly in interpolate_stocks_monthly(dataset.stocks).items():
        for year in range(2010, 2020):
            lo = (year - 2010) * 12
            key = (origin, dest, year)
            out[key] = out.get(key, 0.0) + float(monthly[lo: lo + 12].mean())
    return out


def panel_sse(panel: Sequence[FlowObservation], dataset: Dataset,
              stocks: Mapping[tuple[str, str, int], float], beta_exp: float) -> tuple[float, int]:
    """(SSE of monthly gravity estimates against the panel, excluded observations)."""
    sse = 0.0
    excluded = 0
    for obs in panel:
        year = year_of(obs.month)
        stock = stocks.get((obs.recipient, obs.sender, year))
        if stock is None:
            excluded += 1
            continue
        amount = gravity_per_migrant(dataset.gdp[(obs.sender, year)],
                                     dataset.gdp[(obs.recipient, year)], beta_exp)
        error = amount * stock / 12.0 - obs.amount_usd
        # a product, the correctly rounded square: ** 2 calls the C library's
        # pow, which rounds some squares one ulp off
        sse += error * error
    return sse, excluded


def split_panel(panel: Sequence[FlowObservation], fraction: float,
                seed: int) -> tuple[FlowObservation, ...]:
    """``calibration.split_panel``, tagging one record at a time."""
    n = len(panel)
    n_train = int(round(n * fraction))
    perm = np.random.default_rng(seed).permutation(n)
    tags = np.full(n, "test", dtype=object)
    tags[perm[:n_train]] = "train"
    return tuple(obs._replace(split_tag=tags[i]) for i, obs in enumerate(panel))


def align_panel(panel: Sequence[FlowObservation], ctx) -> dict:
    """``calibration.align_panel``, one observation at a time: the fields of
    its ``PanelSlice`` and, under "warnings", the messages it logs."""
    index = {c: i for i, c in enumerate(ctx.corridors)}
    c_idx: list[int] = []
    m_idx: list[int] = []
    amounts: list[float] = []
    unmodeled: list[tuple[str, str]] = []
    out_of_window = 0
    for obs in panel:
        corridor = (obs.recipient, obs.sender)  # (origin, destination)
        ci = index.get(corridor)
        if ci is None:
            unmodeled.append(corridor)
        elif not ctx.start <= obs.month <= ctx.end:
            out_of_window += 1
        else:
            c_idx.append(ci)
            m_idx.append(obs.month)
            amounts.append(obs.amount_usd)
    warnings = []
    if unmodeled:
        warnings.append("excluded %d panel observation(s) without modeled population, e.g. %s"
                        % (len(unmodeled), unmodeled[:3]))
    if out_of_window:
        warnings.append("excluded %d panel observation(s) outside the window %s..%s"
                        % (out_of_window, month_label(ctx.start), month_label(ctx.end)))
    month_arr = np.array(m_idx, dtype=int)
    cols, month_pos = np.unique(month_arr, return_inverse=True)
    return dict(corridor_idx=np.array(c_idx, dtype=int), month_idx=month_arr,
                amounts=np.array(amounts, dtype=float), n_excluded=len(unmodeled) + out_of_window,
                excluded=tuple(dict.fromkeys(unmodeled))[:10], cols=cols, month_pos=month_pos,
                warnings=warnings)


def compare_models(structural: Mapping[tuple[str, str, int], float],
                   gravity: Mapping[int, Mapping[tuple[str, str], float]],
                   panel: Sequence[FlowObservation]) -> ComparisonReport:
    """``baseline.compare_models``, grouping the records corridor by corridor."""
    by_corridor: dict[tuple[str, str], list[FlowObservation]] = {}
    for obs in panel:
        by_corridor.setdefault((obs.sender, obs.recipient), []).append(obs)

    rows = []
    excluded = 0
    rel_s: list[float] = []
    rel_g: list[float] = []
    for (sender, recipient), group in sorted(by_corridor.items()):
        months = [o.month for o in group]
        years = sorted({year_of(m) for m in months})
        try:
            structural_monthly = [structural[(sender, recipient, m)] for m in months]
            gravity_yearly = [gravity[y][(sender, recipient)] for y in years]
        except KeyError:
            excluded += 1
            continue
        observed = 12.0 * float(np.mean([o.amount_usd for o in group]))
        struct = 12.0 * float(np.mean(structural_monthly))
        grav = float(np.mean(gravity_yearly))
        row = ComparisonRow(sender=sender, recipient=recipient, observed_usd=observed,
                            structural_usd=struct, gravity_usd=grav,
                            se_structural=(struct - observed) ** 2,
                            se_gravity=(grav - observed) ** 2)
        rows.append(row)
        if observed > 0:
            rel_s.append(abs(struct - observed) / observed)
            rel_g.append(abs(grav - observed) / observed)

    ratio = None
    if rel_g and float(np.mean(rel_g)) > 0:
        ratio = float(np.mean(rel_s)) / float(np.mean(rel_g))
    over = sorted(rows, key=lambda r: r.gravity_usd - r.observed_usd, reverse=True)
    under = sorted(rows, key=lambda r: r.gravity_usd - r.observed_usd)
    top = min(5, len(rows))
    return ComparisonReport(
        rows=tuple(sorted(rows, key=lambda r: -r.observed_usd)),
        mean_relative_error_ratio=ratio,
        largest_overestimates=tuple((r.sender, r.recipient) for r in over[:top]),
        largest_underestimates=tuple((r.sender, r.recipient) for r in under[:top]),
        n_excluded=excluded)


def summary_totals(corridors: Sequence[tuple[str, str]], months: Sequence[int],
                   induced: np.ndarray, factual: np.ndarray, dataset: Dataset,
                   grouping: str) -> tuple[dict[str, float], dict[str, float]]:
    """Induced and factual totals per summary key, adding cell by cell."""
    induced_by: dict[str, float] = {}
    factual_by: dict[str, float] = {}
    for c, (origin, _) in enumerate(corridors):
        for mi, month in enumerate(months):
            year = year_of(month)
            if grouping == "income-group":
                key = dataset.income_group[(origin, year)]
            elif grouping == "country":
                key = origin
            else:
                key = str(year)
            induced_by[key] = induced_by.get(key, 0.0) + float(induced[c, mi])
            factual_by[key] = factual_by.get(key, 0.0) + float(factual[c, mi])
    return induced_by, factual_by


# ---------------------------------------------------------------------------
# The flow kernel with each destination group's logistic taken whole

def _whole_groups(ctx, params: BehaviorParams, base: np.ndarray, rows: np.ndarray | None):
    """Per destination group with an earnings surplus at some age: (indices into
    the rows of ``base``, mask of those ages, the logistic of all the group's
    cells in one expression, shaped (len(indices), base columns, ages))."""
    for dest, idx in ctx._row_groups(ctx.dest_groups, ctx._dest_of, rows).items():
        surplus = ctx.surplus[dest]
        active = surplus > 0
        if not active.any():
            continue
        with np.errstate(over="ignore"):
            prob = 1.0 / (1.0 + np.exp(-(base[idx][:, :, None] + params.beta0 * surplus[active])))
        yield idx, active, prob


def whole_group_flows(ctx, params: BehaviorParams, active_ids: frozenset | None,
                      cols: np.ndarray | None, rows: np.ndarray | None, matvec) -> np.ndarray:
    """``ctx.expected_flows`` with each group's cells reduced in one ``matvec``
    call (``engine._matvec``)."""
    base = ctx._base_scores(params, active_ids, cols, rows)
    n_cols = base.shape[1]
    stocks = ctx._take(ctx.stocks, rows, cols)
    income = ctx._take(ctx.monthly_income, rows, cols)
    flows = np.zeros_like(base)
    w_m, w_f = ctx.shares
    for idx, active, prob in _whole_groups(ctx, params, base, rows):
        cells = prob.reshape(-1, prob.shape[2])
        per_m = matvec(cells, w_m[active], pad_tail=rows is not None)
        per_f = matvec(cells, w_f[active], pad_tail=rows is not None)
        sent = stocks[idx, :, 0].ravel() * per_m + stocks[idx, :, 1].ravel() * per_f
        flows[idx] = params.rho * income[idx] * sent.reshape(len(idx), n_cols)
    return flows


def whole_group_cube(ctx, params: BehaviorParams, active_ids: frozenset | None,
                     cols: np.ndarray | slice | None, rows: np.ndarray | None) -> np.ndarray:
    """``ctx.probability_cube`` from each group's logistic taken whole."""
    base = ctx._base_scores(params, active_ids, cols, rows)
    n_cols = base.shape[1]
    cube = np.zeros((base.shape[0], n_cols, N_AGES))
    for idx, active, prob in _whole_groups(ctx, params, base, rows):
        cube[np.ix_(idx, range(n_cols), np.flatnonzero(active))] = prob
    return cube


# ---------------------------------------------------------------------------
# Scenario evaluation over full grids, one complete grid per event set

def full_grid_counterfactual(ctx, params: BehaviorParams, scenario_id: str = "no_disaster",
                             active_ids: frozenset | None = None) -> dict:
    """``scenarios.run_counterfactual`` from two full 2010-2019 grids."""
    if active_ids is None:
        active_ids = frozenset()
    win = ctx.window
    factual = ctx.expected_flows(params, None)[:, win]
    counter = ctx.expected_flows(params, active_ids)[:, win]
    return dict(scenario_id=scenario_id, corridors=ctx.corridors,
                months=tuple(ctx.window_months), factual=factual,
                counterfactual=counter, induced=factual - counter)


def full_grid_attribution(ctx, params: BehaviorParams, convention: str = "only_hazard") -> dict:
    """``scenarios.attribute_by_hazard`` from one full grid per event set."""
    def event_ids(keep) -> frozenset:
        return frozenset(e.event_id for e in ctx.dataset.disasters if keep(e.hazard))

    win = ctx.window
    full = ctx.expected_flows(params, None)[:, win].sum()
    base = ctx.expected_flows(params, frozenset())[:, win].sum()
    total_induced = float(full - base)
    rows = []
    for hazard in HAZARDS:
        if convention == "only_hazard":
            only = event_ids(lambda h: h == hazard)
            induced = float(ctx.expected_flows(params, only)[:, win].sum() - base)
        else:
            without = event_ids(lambda h: h != hazard)
            induced = float(full - ctx.expected_flows(params, without)[:, win].sum())
        affected = sequential_sum(e.affected for e in ctx.dataset.disasters if e.hazard == hazard)
        per_person = induced / affected if affected > 0 else None
        rows.append(dict(hazard=hazard, induced_usd=induced, affected_persons=affected,
                         usd_per_affected=per_person))
    residual = total_induced - sequential_sum(r["induced_usd"] for r in rows)
    share = total_induced / full if full > 0 else 0.0
    return dict(convention=convention, per_hazard=tuple(rows), total_induced=total_induced,
                total_factual=float(full), interaction_residual=float(residual),
                share_of_total=float(share))


def full_grid_event_attribution(ctx, params: BehaviorParams, event_id: str) -> dict:
    """``scenarios.attribute_event`` over all corridors at the event's months."""
    event = next(e for e in ctx.dataset.disasters if e.event_id == event_id)
    months = tuple(m for m in range(event.onset_month, event.onset_month + DISASTER_WINDOW)
                   if ctx.start <= m <= ctx.end)
    if not months:
        return dict(event_id=event_id, months=months, induced_by_corridor={},
                    induced_usd_12m=0.0, baseline_usd_12m=0.0, relative_increase=None)
    cols = np.array(months)
    with_event = ctx.expected_flows(params, frozenset({event_id}), cols)
    without = ctx.expected_flows(params, frozenset(), cols)
    diff = with_event - without
    by_corridor = {(dest, origin): value
                   for (origin, dest), value in zip(ctx.corridors, diff.sum(axis=1).tolist())
                   if value != 0.0}
    induced_total = float(diff.sum())
    recipient_rows = [c for c, (origin, _) in enumerate(ctx.corridors) if origin == event.country]
    baseline = float(without[np.array(recipient_rows, dtype=int)].sum())
    relative = induced_total / baseline if baseline > 0 else None
    return dict(event_id=event_id, months=months, induced_by_corridor=by_corridor,
                induced_usd_12m=induced_total, baseline_usd_12m=baseline,
                relative_increase=relative)


def full_grid_induced_totals(ctx, params: BehaviorParams, active_ids: frozenset | None,
                             seed: int, draws: int, sample_cells) -> np.ndarray:
    """``flows.sample_induced_totals`` from two probability cubes over all corridors;
    ``sample_cells`` is the cell sampler, ``flows._sample_cells``."""
    factual = ctx.probability_cube(params, None, ctx.window)
    counter = ctx.probability_cube(params, active_ids, ctx.window)
    cells = np.argwhere((factual != counter).any(axis=2))
    return (sample_cells(ctx, params, factual, cells, seed, draws)
            - sample_cells(ctx, params, counter, cells, seed, draws))
