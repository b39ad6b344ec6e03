"""Scenario locality: event sets change flows only at their affected cells,
an evaluation at any index of the grid equals the full grid's cells there,
and the scenario entry points equal their full-grid references in
``oracles``."""
from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
import remitsim
from remitsim import engine, fixtures, flows, scenarios
from remitsim.behavior import REFERENCE_PARAMS
from remitsim.calibration import flow_jacobian
from remitsim.dataio import HAZARDS, DisasterEvent
from remitsim.engine import SimulationContext, scenario_none
from remitsim.months import month_index

PARAMS = REFERENCE_PARAMS
BANDS_WINDOW = (month_index("2016-07"), month_index("2016-12"))


@functools.lru_cache(maxsize=16)
def _base_dataset(seed: int, n_origins: int, n_destinations: int):
    return fixtures.build_dataset(seed, n_origins=n_origins, n_destinations=n_destinations)


def _window_ctx(dataset, window):
    return SimulationContext(dataset) if window is None else SimulationContext(
        dataset, start=window[0], end=window[1])


def _assert_same_fields(got, want: dict):
    """Every field of the result ``got`` equals the reference's; arrays bit for bit."""
    fields = got._asdict()
    if "per_hazard" in fields:  # nested results, as dicts like the reference's
        fields["per_hazard"] = tuple(h._asdict() for h in fields["per_hazard"])
    assert fields.keys() == want.keys()
    for name, a in fields.items():
        b = want[name]
        if isinstance(a, np.ndarray):
            assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), name
        else:
            assert a == b, name


@st.composite
def scenario_cases(draw):
    """A small fixture dataset with extra drawn events (any country, any onset,
    several per country), a window, kernel parameters and two event sets."""
    base = _base_dataset(draw(st.integers(0, 3)), draw(st.integers(1, 10)),
                         draw(st.integers(1, 5)))
    population = {(c.country, c.year): c.population for c in base.economics}
    countries = sorted({country for country, _ in population})
    extra = draw(st.lists(st.tuples(st.sampled_from(countries), st.integers(0, 119),
                                    st.sampled_from(HAZARDS), st.floats(0.0, 0.6)),
                          max_size=4))
    events = base.disasters + tuple(
        DisasterEvent(f"X{i}", country, onset, hazard,
                      round(share * population[(country, 2010 + onset // 12)]))
        for i, (country, onset, hazard, share) in enumerate(extra))
    dataset = dataclasses.replace(base, disasters=events)
    start = draw(st.integers(0, 119))
    end = draw(st.integers(start, 119))
    params = dataclasses.replace(PARAMS, height=draw(st.floats(-3.0, 3.0)),
                                 shape=draw(st.floats(-3.0, 3.0)),
                                 shift=draw(st.floats(0.0, 11.0)))
    ids = [e.event_id for e in events]
    event_sets = st.none() | st.frozensets(st.sampled_from(ids))
    ctx = SimulationContext(dataset, start=start, end=end)
    return ctx, params, draw(event_sets), draw(event_sets)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=scenario_cases())
def test_event_sets_differ_only_at_affected_cells(case):
    ctx, params, ids_a, ids_b = case
    outside = np.ones((ctx.n_corridors, ctx.n_months), dtype=bool)
    for rows, months in ctx.affected_cells(ids_a, ids_b):
        assert np.array_equal(rows, np.unique(rows)) and np.array_equal(months, np.unique(months))
        assert all(ctx.start <= m <= ctx.end for m in months.tolist()) and months.size
        assert outside[rows].all()  # one block per origin: the blocks share no row
        outside[np.ix_(rows, months)] = False
    outside[:, :ctx.start] = outside[:, ctx.end + 1:] = False
    grid_a = ctx.expected_flows(params, ids_a)
    grid_b = ctx.expected_flows(params, ids_b)
    assert np.array_equal(grid_a[outside], grid_b[outside])


def _indexes(n_corridors: int, window: slice):
    """Numpy indexes of an (n_corridors, 120) grid, of every form the package
    passes and a few more: the whole grid, the window months, some corridors
    over the window, rectangles, lists of cells with repeats, no cell, one cell."""
    def cells(min_size=0, max_size=None, unique=False):
        return st.lists(st.integers(0, n_corridors - 1), min_size=min_size, max_size=max_size,
                        unique=unique).map(lambda v: np.array(v, dtype=np.intp))

    def months(min_size=0, max_size=None, unique=False):
        return st.lists(st.integers(0, 119), min_size=min_size, max_size=max_size,
                        unique=unique).map(lambda v: np.array(v, dtype=np.intp))

    def paired(n):
        return st.tuples(cells(n, n), months(n, n))

    return st.one_of(
        st.just(None),
        st.just((slice(None), window)),
        cells(unique=True).map(lambda rows: (np.sort(rows), window)),
        st.tuples(cells(unique=True), months(1, unique=True)).map(lambda rm: np.ix_(*rm)),
        st.integers(1, 60).flatmap(paired),
        st.just((np.array([], dtype=np.intp),) * 2),
        paired(1),
        st.tuples(st.integers(0, n_corridors - 1), st.integers(0, 119)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=scenario_cases(), data=st.data())
def test_evaluation_at_an_index_is_the_full_grid_there(case, data):
    """f(params, ids, at) == f(params, ids)[at] bit for bit, for the flows, the
    probability cube and the disaster scores, under any block size; the flows
    and the cube also equal each destination group's logistic taken whole."""
    ctx, params, ids, _ = case
    at = data.draw(_indexes(ctx.n_corridors, ctx.window), label="at")
    block = data.draw(st.sampled_from([64, 192, engine._BLOCK_CELLS]), label="block")
    key = ... if at is None else at
    evaluations = ctx.expected_flows, ctx.probability_cube, ctx.disaster_scores
    full = [f(params, ids) for f in evaluations]
    with mock.patch.object(engine, "_BLOCK_CELLS", block):
        got = [np.asarray(f(params, ids, at)) for f in evaluations]
    for f, whole, part in zip(evaluations, full, got):
        want = np.asarray(whole[key])
        assert (part.shape, part.tobytes()) == (want.shape, want.tobytes()), f.__name__
    for oracle, part in zip((oracles.whole_group_flows, oracles.whole_group_cube), got):
        want = oracle(ctx, params, ids, at)
        assert (part.shape, part.tobytes()) == (want.shape, want.tobytes()), oracle.__name__


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=scenario_cases())
def test_reevaluation_evaluates_exactly_the_reached_cells(case):
    """The cells a scenario hands to expected_flows are each origin's corridors
    times the window months its differing events reach: no more, none twice."""
    ctx, params, ids_a, ids_b = case
    grid_a = ctx.expected_flows(params, ids_a)
    handed = []

    def recording(params, active_ids=None, at=None):
        rows, months = at  # an np.ix_ block
        handed.extend(itertools.product(rows.ravel().tolist(), months.ravel().tolist()))
        return SimulationContext.expected_flows(ctx, params, active_ids, at)

    ctx.expected_flows = recording  # the case's own context
    got = scenarios._reevaluate(ctx, params, grid_a, ids_a, ids_b)

    reached = set()
    for event in ctx.dataset.disasters:
        if (ids_a is None or event.event_id in ids_a) != (ids_b is None or event.event_id in ids_b):
            rows = [c for c, (origin, _) in enumerate(ctx.corridors) if origin == event.country]
            months = [m for m in range(event.onset_month, event.onset_month + 12)
                      if ctx.start <= m <= ctx.end]
            reached.update(itertools.product(rows, months))
    assert len(handed) == len(set(handed)) and set(handed) == reached
    want = SimulationContext.expected_flows(ctx, params, ids_b)
    assert np.array_equal(got[:, ctx.window], want[:, ctx.window])


_OUTPUT_DIGEST = """
import hashlib
import numpy as np
from remitsim import fixtures
from remitsim.behavior import REFERENCE_PARAMS as P
from remitsim.calibration import flow_jacobian
from remitsim.engine import SimulationContext
ctx = SimulationContext(fixtures.build_dataset(7))
rng = np.random.default_rng(5)
rows = np.sort(rng.choice(ctx.n_corridors, 17, replace=False))
cols = np.sort(rng.choice(120, 53, replace=False))
cells = rng.integers(0, ctx.n_corridors, 500), rng.integers(0, 120, 500)
for name, arr in [("flows", ctx.expected_flows(P)),
                  ("months", ctx.expected_flows(P, None, (slice(None), cols))),
                  ("block", ctx.expected_flows(P, frozenset(), np.ix_(rows, cols))),
                  ("cells", ctx.expected_flows(P, None, cells)),
                  ("cube", ctx.probability_cube(P)), ("family", ctx.family),
                  ("jacobian", flow_jacobian(ctx, P, cells))]:
    print(name, hashlib.sha256(arr.tobytes()).hexdigest())
"""


def _digests(var: str, value: str | None) -> str:
    """The digests of ``_OUTPUT_DIGEST`` with ``var`` set to ``value`` (None: unset)."""
    src = str(Path(remitsim.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop(var, None)
    if value is not None:
        env[var] = value
    return subprocess.run([sys.executable, "-c", _OUTPUT_DIGEST], env=env, check=True,
                          capture_output=True, text=True).stdout


def _reports_core(coretype: str) -> bool:
    """Whether numpy's OpenBLAS reports running the ``coretype`` kernel when asked to."""
    env = dict(os.environ, OPENBLAS_VERBOSE="2", OPENBLAS_CORETYPE=coretype)
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True,
                           text=True)
    return f"Core: {coretype}" in probe.stdout + probe.stderr


@pytest.mark.parametrize("var, first, second", [("OPENBLAS_NUM_THREADS", "1", "4"),
                                                ("OPENBLAS_CORETYPE", None, "Nehalem")])
def test_output_bytes_do_not_depend_on_blas(var, first, second):
    """The flows on every path, the probability cube, the family covariate and
    the Jacobian have the same bytes at one and four BLAS threads, and under
    the CPU's own OpenBLAS kernel and the Nehalem kernel (SSE only, no FMA)."""
    if var == "OPENBLAS_CORETYPE" and not _reports_core(second):
        pytest.skip(f"numpy's BLAS does not report running the {second} kernel")
    assert _digests(var, first) == _digests(var, second)


# ---------------------------------------------------------------------------
# Edge cases

def test_empty_rows_give_empty_grids(desk_ctx):
    none = np.array([], dtype=np.intp)
    assert desk_ctx.expected_flows(PARAMS, None, none).shape == (0, 120)
    assert desk_ctx.expected_flows(PARAMS, None, np.ix_(none, np.arange(5, 9))).shape == (0, 4)
    assert desk_ctx.probability_cube(PARAMS, None, (none, desk_ctx.window)).shape == (0, 120, 101)
    assert desk_ctx.disaster_scores(PARAMS, None, none).shape == (0, 120)
    assert flow_jacobian(desk_ctx, PARAMS, (none, none)).shape == (0, 9)


def test_event_without_modelled_corridor(desk_dataset):
    # an event in a destination country: no corridor has it as its origin
    pop = {(c.country, c.year): c.population for c in desk_dataset.economics}
    event = DisasterEvent("DEST", "DNA", month_index("2014-05"), "flood",
                          0.3 * pop[("DNA", 2014)])
    ctx = SimulationContext(dataclasses.replace(desk_dataset, disasters=(event,)))
    (rows, months), = ctx.affected_cells(frozenset({"DEST"}), scenario_none())
    assert rows.size == 0 and months.size == 12
    ev = scenarios.attribute_event(ctx, PARAMS, "DEST")
    assert (ev.induced_usd_12m, ev.baseline_usd_12m, ev.relative_increase) == (0.0, 0.0, None)
    assert ev.induced_by_corridor == {}
    _assert_same_fields(ev, oracles.full_grid_event_attribution(ctx, PARAMS, "DEST"))
    assert scenarios.run_counterfactual(ctx, PARAMS).total_induced() == 0.0


def test_events_outside_the_window_evaluate_no_cells(desk_dataset, monkeypatch):
    ctx = SimulationContext(desk_dataset, start=BANDS_WINDOW[0], end=BANDS_WINDOW[1])
    outside = frozenset(e.event_id for e in desk_dataset.disasters
                        if e.onset_month + 11 < ctx.start or e.onset_month > ctx.end)
    assert outside  # the desk events of 2010-2015 and 2017-2018
    inside = frozenset(e.event_id for e in desk_dataset.disasters) - outside
    assert ctx.affected_cells(None, inside) == []  # the sets differ by the outside events

    evaluated = []
    original = ctx.expected_flows

    def counting(*args, **kwargs):
        grid = original(*args, **kwargs)
        evaluated.append(grid.size)
        return grid

    monkeypatch.setattr(ctx, "expected_flows", counting)
    result = scenarios.run_counterfactual(ctx, PARAMS, "inside", inside)
    # no cell is evaluated beyond the factual grid
    assert evaluated[0] == sum(evaluated) == ctx.n_corridors * ctx.n_months
    assert np.array_equal(result.counterfactual, result.factual)


# ---------------------------------------------------------------------------
# The scenario entry points against their full-grid references

@pytest.mark.parametrize("window", [None, BANDS_WINDOW])
def test_counterfactual_equals_full_grids(desk_dataset, window):
    ctx = _window_ctx(desk_dataset, window)
    floods = frozenset(e.event_id for e in desk_dataset.disasters if e.hazard == "flood")
    for scenario_id, active_ids in (("no_disaster", None), ("floods", floods)):
        _assert_same_fields(scenarios.run_counterfactual(ctx, PARAMS, scenario_id, active_ids),
                            oracles.full_grid_counterfactual(ctx, PARAMS, scenario_id, active_ids))


@pytest.mark.parametrize("window", [None, BANDS_WINDOW])
@pytest.mark.parametrize("convention", ["only_hazard", "leave_one_out"])
def test_attribution_equals_full_grids(desk_dataset, window, convention):
    ctx = _window_ctx(desk_dataset, window)
    _assert_same_fields(scenarios.attribute_by_hazard(ctx, PARAMS, convention),
                        oracles.full_grid_attribution(ctx, PARAMS, convention))


@pytest.mark.parametrize("window, draws", [(BANDS_WINDOW, 1000), (None, 20)])
def test_induced_totals_equal_full_cube_sampling(desk_dataset, window, draws):
    ctx = _window_ctx(desk_dataset, window)
    got = flows.sample_induced_totals(ctx, PARAMS, scenario_none(), 11, draws)
    want = oracles.full_grid_induced_totals(ctx, PARAMS, scenario_none(), 11, draws,
                                            flows._sample_cells)
    assert got.tobytes() == want.tobytes()
