"""Counterfactual runs and disaster attribution.

The counterfactual re-runs the identical parameterized model with a filtered
event set; differences against the factual run isolate disaster-induced
flows. Because the logistic is nonlinear, per-hazard effects are not
additive; the interaction residual is always reported, never hidden.

Each scenario evaluates only the cells its event set changes, in one block
per origin country: that origin's corridors over the window months its
changed events reach (:meth:`SimulationContext.affected_cells`), evaluated
at ``np.ix_(rows, months)``. Every other cell comes from a shared factual or
no-event grid, and an evaluation equals the full grid's cells it asks for,
so the outputs equal a full-grid evaluation bit for bit.
"""
from __future__ import annotations

from typing import Mapping, NamedTuple

import numpy as np

from .behavior import BehaviorParams
from .dataio import Dataset, HAZARDS
from .engine import (SimulationContext, scenario_none, scenario_only_event, scenario_only_hazard,
                     scenario_without_hazard)
from .months import year_of
from .reports import sequential_sum
from .runconfig import ATTRIBUTION_CONVENTIONS


class ScenarioResult(NamedTuple):
    """Paired factual/counterfactual flow grids plus their difference."""

    scenario_id: str
    corridors: tuple[tuple[str, str], ...]
    months: tuple[int, ...]
    factual: np.ndarray  # (n_corridors, n_months), USD
    counterfactual: np.ndarray
    induced: np.ndarray

    def total_induced(self) -> float:
        return float(self.induced.sum())

    def total_factual(self) -> float:
        return float(self.factual.sum())


class HazardAttribution(NamedTuple):
    hazard: str
    induced_usd: float
    affected_persons: float
    usd_per_affected: float | None  # None when nobody was affected


class AttributionReport(NamedTuple):
    convention: str  # only_hazard | leave_one_out
    per_hazard: tuple[HazardAttribution, ...]
    total_induced: float
    total_factual: float
    interaction_residual: float  # total induced minus the per-hazard sum
    share_of_total: float


class EventAttribution(NamedTuple):
    event_id: str
    months: tuple[int, ...]  # the up-to-12 window months after onset
    induced_by_corridor: Mapping[tuple[str, str], float]
    induced_usd_12m: float
    baseline_usd_12m: float
    relative_increase: float | None


def _reevaluate(ctx: SimulationContext, params: BehaviorParams, grid: np.ndarray,
                grid_ids: frozenset | None, active_ids: frozenset | None) -> np.ndarray:
    """The full grid of flows under ``active_ids`` within the window, from ``grid``,
    the full grid under ``grid_ids``: a copy with each block of affected cells
    evaluated anew."""
    out = grid.copy()
    for rows, months in ctx.affected_cells(grid_ids, active_ids):
        at = np.ix_(rows, months)
        out[at] = ctx.expected_flows(params, active_ids, at)
    return out


def run_counterfactual(ctx: SimulationContext, params: BehaviorParams,
                       scenario_id: str = "no_disaster",
                       active_ids: frozenset | None = None) -> ScenarioResult:
    """Factual (all events) versus a counterfactual with only ``active_ids``.

    The default empty filter is the no-disaster scenario.
    """
    if active_ids is None:
        active_ids = scenario_none()
    win = ctx.window
    grid = ctx.expected_flows(params, None)
    factual = grid[:, win]
    counter = _reevaluate(ctx, params, grid, None, active_ids)[:, win]
    return ScenarioResult(scenario_id=scenario_id, corridors=ctx.corridors,
                          months=tuple(ctx.window_months), factual=factual,
                          counterfactual=counter, induced=factual - counter)


def event_grids(ctx: SimulationContext, params: BehaviorParams) -> tuple[np.ndarray, np.ndarray]:
    """The full grids of flows under all events and under none; the second
    holds the no-event flows within the window, the factual ones outside it."""
    full_grid = ctx.expected_flows(params, None)
    return full_grid, _reevaluate(ctx, params, full_grid, None, scenario_none())


def attribute_by_hazard(ctx: SimulationContext, params: BehaviorParams,
                        convention: str = "only_hazard", *,
                        grids: tuple[np.ndarray, np.ndarray] | None = None) -> AttributionReport:
    """Per-hazard induced totals under the chosen isolation convention.

    only_hazard: flows(only h) - flows(none). leave_one_out: flows(all) -
    flows(all but h). ``grids`` are the context's :func:`event_grids`, if
    the caller has them already.
    """
    if convention not in ATTRIBUTION_CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    win = ctx.window
    full_grid, base_grid = event_grids(ctx, params) if grids is None else grids
    full = full_grid[:, win].sum()
    base = base_grid[:, win].sum()
    total_induced = float(full - base)

    rows = []
    for hazard in HAZARDS:
        if convention == "only_hazard":
            only = scenario_only_hazard(ctx.dataset, hazard)
            grid = _reevaluate(ctx, params, base_grid, scenario_none(), only)
            induced = float(grid[:, win].sum() - base)
        else:
            without = scenario_without_hazard(ctx.dataset, hazard)
            grid = _reevaluate(ctx, params, full_grid, None, without)
            induced = float(full - grid[:, win].sum())
        affected = sequential_sum(e.affected for e in ctx.dataset.disasters if e.hazard == hazard)
        per_person = induced / affected if affected > 0 else None
        rows.append(HazardAttribution(hazard=hazard, induced_usd=induced,
                                      affected_persons=affected, usd_per_affected=per_person))

    residual = total_induced - sequential_sum(r.induced_usd for r in rows)
    share = total_induced / full if full > 0 else 0.0
    return AttributionReport(convention=convention, per_hazard=tuple(rows),
                             total_induced=total_induced, total_factual=float(full),
                             interaction_residual=float(residual), share_of_total=float(share))


def attribute_event(ctx: SimulationContext, params: BehaviorParams, event_id: str, *,
                    no_event: np.ndarray | None = None) -> EventAttribution:
    """Flows attributable to a single event over the 12 months from onset.

    ``no_event`` is the no-event grid of :func:`event_grids`, if the caller
    has it: the flows without the event are read from it, not evaluated.
    """
    only = scenario_only_event(ctx.dataset, event_id)
    # one block: the event origin's corridors, over the event's months in the window
    blocks = ctx.affected_cells(only, scenario_none())
    if not blocks:
        return EventAttribution(event_id=event_id, months=(), induced_by_corridor={},
                                induced_usd_12m=0.0, baseline_usd_12m=0.0,
                                relative_increase=None)
    (rows, cols), = blocks
    months = tuple(cols.tolist())
    at = np.ix_(rows, cols)
    without = (ctx.expected_flows(params, scenario_none(), at) if no_event is None
               else no_event[at])
    diff = ctx.expected_flows(params, only, at) - without

    # the totals add in the order of an evaluation of all corridors at these
    # months: over a zero-filled grid of all corridors, column-major as numpy
    # lays out a column-indexed slice, and over the origin's rows in C order
    grid = np.zeros((ctx.n_corridors, len(months)), order="F")
    grid[rows] = diff
    by_corridor = {(ctx.corridors[c][1], ctx.corridors[c][0]): value  # (sender, recipient)
                   for c, value in zip(rows.tolist(), grid.sum(axis=1)[rows].tolist())
                   if value != 0.0}
    induced_total = float(grid.sum())
    baseline = float(np.ascontiguousarray(without).sum())
    relative = induced_total / baseline if baseline > 0 else None
    return EventAttribution(event_id=event_id, months=months, induced_by_corridor=by_corridor,
                            induced_usd_12m=induced_total, baseline_usd_12m=baseline,
                            relative_increase=relative)


class SummaryRow(NamedTuple):
    key: str
    induced_usd: float
    factual_usd: float
    share_of_factual: float
    per_capita: float | None  # country grouping only
    per_gdp: float | None


def summarize(result: ScenarioResult, dataset: Dataset, grouping: str) -> list[SummaryRow]:
    """Plot-ready grouped totals of induced and factual flows.

    Groupings: ``income-group`` and ``country`` follow the recipient (income
    group as of each observation year), ``year`` partitions time.
    """
    if grouping not in ("income-group", "country", "year"):
        raise ValueError(f"unknown grouping {grouping!r}")

    # a key per (corridor, year), spread to the cells; np.bincount adds each key's
    # cells one at a time in C order (np.sum would add pairwise)
    years = sorted({year_of(m) for m in result.months})
    if grouping == "income-group":
        by_year = [[dataset.income_group[(origin, y)] for y in years]
                   for origin, _ in result.corridors]
    elif grouping == "country":
        by_year = [[origin] * len(years) for origin, _ in result.corridors]
    else:
        by_year = [[str(y) for y in years]] * len(result.corridors)
    keys = sorted({key for row in by_year for key in row})
    code = {key: k for k, key in enumerate(keys)}
    year_pos = [years.index(year_of(m)) for m in result.months]
    cells = np.array([[code[key] for key in row] for row in by_year],
                     dtype=np.intp).reshape(len(by_year), len(years))[:, year_pos].ravel()
    induced = np.bincount(cells, weights=result.induced.ravel(), minlength=len(keys)).tolist()
    factual = np.bincount(cells, weights=result.factual.ravel(), minlength=len(keys)).tolist()

    rows = []
    for key, ind, fac in zip(keys, induced, factual):
        per_capita = per_gdp = None
        if grouping == "country":
            pops = [dataset.population[(key, y)] for y in years]
            per_capita = ind / (sequential_sum(pops) / len(pops))
            decade_gdp = sequential_sum(dataset.gdp[(key, y)] * dataset.population[(key, y)]
                                        for y in years)
            per_gdp = ind / decade_gdp if decade_gdp > 0 else None
        share = ind / fac if fac else 0.0
        rows.append(SummaryRow(key=key, induced_usd=ind, factual_usd=fac,
                               share_of_factual=share, per_capita=per_capita, per_gdp=per_gdp))
    return rows
