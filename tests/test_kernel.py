"""The blocked logistic kernel: bit for bit equal to each destination group's
logistic taken whole (``oracles.whole_group_flows`` and ``whole_group_cube``)
at block edges and under any block size, and close to the per-cohort scalar
oracle. ``test_locality`` checks that an evaluation at any index of the grid
equals the full grid's cells there."""
from __future__ import annotations

import functools

import numpy as np
import pytest

import oracles
from remitsim import engine, fixtures
from remitsim.behavior import REFERENCE_PARAMS
from remitsim.calibration import flow_jacobian
from remitsim.engine import SimulationContext

from conftest import brute_force_flow

PARAMS = REFERENCE_PARAMS
# a small block, so that groups of a few corridors reach the block edges
SMALL_BLOCK = 64


@functools.lru_cache(maxsize=8)
def _one_destination(n_origins: int) -> SimulationContext:
    """A context whose ``n_origins`` corridors all share one destination group."""
    ctx = SimulationContext(fixtures.build_dataset(3, n_origins=n_origins, n_destinations=1))
    assert len({dest for _, dest in ctx.corridors}) == 1 and ctx.n_corridors == n_origins
    return ctx


def _assert_as_whole_groups(ctx, active_ids, at):
    """expected_flows and probability_cube equal the whole-group kernel bit for bit."""
    got = ctx.expected_flows(PARAMS, active_ids, at)
    want = oracles.whole_group_flows(ctx, PARAMS, active_ids, at)
    assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
    cube = ctx.probability_cube(PARAMS, active_ids, at)
    whole = oracles.whole_group_cube(ctx, PARAMS, active_ids, at)
    assert (cube.shape, cube.tobytes()) == (whole.shape, whole.tobytes())
    return got


@pytest.mark.parametrize("n_cells", [1, 2, 3, 64])
def test_row_sums_add_one_row_at_a_time(n_cells):
    """Each column's products add as a left fold over the rows, also in a single
    column, which np.add.reduce alone would sum pairwise; the weights come
    F-ordered, as the engine's selected age shares do."""
    rng = np.random.default_rng(n_cells)
    block, weights = rng.random((85, n_cells)), np.asfortranarray(rng.random((3, 85)))
    want = weights[:, :1] * block[0]
    for row in range(1, len(block)):
        want = want + weights[:, row:row + 1] * block[row]
    assert engine._row_sums(block, weights).tobytes() == want.tobytes()


# group cells as corridors x months: B - 1, B, B + 1 and 2B + 1 (one-cell tail blocks)
@pytest.mark.parametrize("n_corridors, n_months", [(7, 9), (8, 8), (5, 13), (3, 43)],
                         ids=["B-1", "B", "B+1", "2B+1"])
def test_block_edges_round_as_whole_groups(monkeypatch, n_corridors, n_months):
    monkeypatch.setattr(engine, "_BLOCK_CELLS", SMALL_BLOCK)
    cols = np.arange(24, 24 + n_months)  # over the fixture's 2012-2013 events
    # the first corridors of a larger group, as a rectangle and as a list of
    # cells, and all corridors of a group of just those corridors
    wider, alone = _one_destination(10), _one_destination(n_corridors)
    rectangle = np.ix_(np.arange(n_corridors), cols)
    _assert_as_whole_groups(wider, None, rectangle)
    _assert_as_whole_groups(wider, None, tuple(np.broadcast_arrays(*rectangle)))
    flows = _assert_as_whole_groups(alone, None, (slice(None), cols))

    n_cells = n_corridors * n_months
    for cell in sorted({0, SMALL_BLOCK - 1, SMALL_BLOCK, n_cells - 1} & set(range(n_cells))):
        c, m = divmod(cell, n_months)
        origin, dest = alone.corridors[c]
        oracle = brute_force_flow(alone.dataset, PARAMS, origin, dest, int(cols[m]))
        assert flows[c, m] == pytest.approx(oracle, rel=1e-9)


def test_cube_from_blocks_equals_the_whole_cube(monkeypatch, desk_ctx):
    whole = desk_ctx.probability_cube(PARAMS)
    monkeypatch.setattr(engine, "_BLOCK_CELLS", SMALL_BLOCK)
    assert desk_ctx.probability_cube(PARAMS).tobytes() == whole.tobytes()
    assert (desk_ctx.probability_cube(PARAMS, None, (slice(None), desk_ctx.window)).tobytes()
            == whole[:, desk_ctx.window].tobytes())


def test_jacobian_does_not_depend_on_the_block_size(monkeypatch, desk_ctx):
    rng = np.random.default_rng(2)
    at = rng.integers(0, desk_ctx.n_corridors, 3000), rng.integers(0, 120, 3000)
    want = flow_jacobian(desk_ctx, PARAMS, at)
    monkeypatch.setattr(engine, "_BLOCK_CELLS", SMALL_BLOCK)
    assert flow_jacobian(desk_ctx, PARAMS, at).tobytes() == want.tobytes()


def test_evaluations_take_one_pass_per_surplus_profile(monkeypatch, desk_ctx):
    """Destinations without a profile of their own share GLOBAL_DEFAULT's: every
    evaluation runs the logistic once per profile present, and a restricted
    one still equals the full grid's slice bit for bit."""
    dests = np.array([dest for _, dest in desk_ctx.corridors])
    profiled = desk_ctx.dataset.surplus_by_country
    own = [d for d in dict.fromkeys(dests.tolist()) if d in profiled]
    shared = [d for d in dict.fromkeys(dests.tolist()) if d not in profiled]
    assert len(shared) >= 2 and own
    rows = np.flatnonzero(np.isin(dests, [*shared, own[0]]))
    cols = np.arange(30, 90, 3)
    full = desk_ctx.expected_flows(PARAMS)
    full_cube = desk_ctx.probability_cube(PARAMS)
    calls = []
    logistic = engine._logistic_blocks
    monkeypatch.setattr(engine, "_logistic_blocks",
                        lambda *args: calls.append(1) or logistic(*args))
    for at in (rows, np.ix_(rows, cols)):
        del calls[:]
        assert desk_ctx.expected_flows(PARAMS, None, at).tobytes() == full[at].tobytes()
        assert len(calls) == 2  # GLOBAL_DEFAULT and own[0]'s profile
        assert desk_ctx.probability_cube(PARAMS, None, at).tobytes() == full_cube[at].tobytes()
    # all corridors: GLOBAL_DEFAULT and each own profile
    for at in (None, (slice(None), cols)):
        del calls[:]
        desk_ctx.expected_flows(PARAMS, None, at)
        assert len(calls) == 1 + len(own)
