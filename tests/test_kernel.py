"""The blocked logistic kernel: bit for bit equal to each destination group's
logistic taken whole (``oracles.whole_group_flows`` and ``whole_group_cube``)
on every evaluation path, and close to the per-cohort scalar oracle."""
from __future__ import annotations

import functools

import numpy as np
import pytest

import oracles
from remitsim import engine, fixtures
from remitsim.behavior import REFERENCE_PARAMS
from remitsim.engine import SimulationContext, _blocks, _matvec

from conftest import brute_force_flow

PARAMS = REFERENCE_PARAMS
# a small block, so that groups of a few corridors reach the block edges
SMALL_BLOCK = 64


@functools.lru_cache(maxsize=8)
def _one_destination(n_origins: int) -> SimulationContext:
    """A context whose ``n_origins`` corridors all share one destination group."""
    ctx = SimulationContext(fixtures.build_dataset(3, n_origins=n_origins, n_destinations=1))
    assert len(ctx.dest_groups) == 1 and ctx.n_corridors == n_origins
    return ctx


def _assert_as_whole_groups(ctx, active_ids, cols, rows):
    """expected_flows and probability_cube equal the whole-group kernel bit for bit;
    the flows also in memory layout, which the order of sums over them follows."""
    got = ctx.expected_flows(PARAMS, active_ids, cols, rows)
    want = oracles.whole_group_flows(ctx, PARAMS, active_ids, cols, rows, _matvec)
    assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
    assert got.flags.f_contiguous == want.flags.f_contiguous
    cube = ctx.probability_cube(PARAMS, active_ids, cols, rows)
    whole = oracles.whole_group_cube(ctx, PARAMS, active_ids, cols, rows)
    assert (cube.shape, cube.tobytes()) == (whole.shape, whole.tobytes())
    return got


def test_blocks_start_at_multiples_of_the_size():
    assert _blocks(0, 64) == [slice(0, 0)]
    assert _blocks(63, 64) == [slice(0, 63)]
    assert _blocks(64, 64) == [slice(0, 64)]
    assert _blocks(65, 64) == [slice(0, 65)]  # a one-cell remainder joins the block before
    assert _blocks(66, 64) == [slice(0, 64), slice(64, 66)]
    assert _blocks(129, 64) == [slice(0, 64), slice(64, 129)]
    assert _blocks(1200, 1024) == [slice(0, 1024), slice(1024, 1200)]
    assert _blocks(7, None) == [slice(0, 7)]


# group cells as corridors x months: B - 1, B, B + 1 (a one-row tail) and 2B + 1
@pytest.mark.parametrize("n_corridors, n_months", [(7, 9), (8, 8), (5, 13), (3, 43)],
                         ids=["B-1", "B", "B+1", "2B+1"])
def test_block_edges_round_as_whole_groups(monkeypatch, n_corridors, n_months):
    monkeypatch.setattr(engine, "_BLOCK_CELLS", SMALL_BLOCK)
    cols = np.arange(24, 24 + n_months)  # over the fixture's 2012-2013 events
    # the rows= path, through the first corridors of a larger group, and the
    # column-only (calibration) path, through a group of just those corridors
    wider, alone = _one_destination(10), _one_destination(n_corridors)
    _assert_as_whole_groups(wider, None, cols, np.arange(n_corridors))
    flows = _assert_as_whole_groups(alone, None, cols, None)

    n_cells = n_corridors * n_months
    for cell in sorted({0, SMALL_BLOCK - 1, SMALL_BLOCK, n_cells - 1} & set(range(n_cells))):
        c, m = divmod(cell, n_months)
        origin, dest = alone.corridors[c]
        oracle = brute_force_flow(alone.dataset, PARAMS, origin, dest, int(cols[m]))
        assert flows[c, m] == pytest.approx(oracle, rel=1e-9)


@pytest.mark.parametrize("block", [SMALL_BLOCK, 192, engine._BLOCK_CELLS])
def test_every_path_rounds_as_whole_groups(monkeypatch, desk_ctx, block):
    monkeypatch.setattr(engine, "_BLOCK_CELLS", block)
    rng = np.random.default_rng(block)
    floods = frozenset(e.event_id for e in desk_ctx.dataset.disasters if e.hazard == "flood")
    _assert_as_whole_groups(desk_ctx, None, None, None)  # the full grid
    for active_ids in (None, frozenset(), floods):
        for _ in range(3):
            rows = np.sort(rng.choice(desk_ctx.n_corridors, int(rng.integers(1, 40)), replace=False))
            cols = np.sort(rng.choice(120, int(rng.integers(1, 120)), replace=False))
            _assert_as_whole_groups(desk_ctx, active_ids, cols, rows)
            _assert_as_whole_groups(desk_ctx, active_ids, cols, None)
            _assert_as_whole_groups(desk_ctx, active_ids, None, rows)


def test_cube_from_blocks_equals_the_whole_cube(monkeypatch, desk_ctx):
    whole = desk_ctx.probability_cube(PARAMS)
    monkeypatch.setattr(engine, "_BLOCK_CELLS", SMALL_BLOCK)
    assert desk_ctx.probability_cube(PARAMS).tobytes() == whole.tobytes()
    assert (desk_ctx.probability_cube(PARAMS, None, desk_ctx.window).tobytes()
            == whole[:, desk_ctx.window].tobytes())


def test_jacobian_takes_whole_groups(monkeypatch, desk_ctx):
    cols = np.arange(0, 120, 2)
    rows, col_pos = (a.ravel() for a in np.meshgrid(np.arange(desk_ctx.n_corridors),
                                                       np.arange(len(cols)), indexing="ij"))
    want = desk_ctx.flow_jacobian(PARAMS, rows, cols, col_pos)
    monkeypatch.setattr(engine, "_BLOCK_CELLS", SMALL_BLOCK)
    assert desk_ctx.flow_jacobian(PARAMS, rows, cols, col_pos).tobytes() == want.tobytes()


def test_row_evaluations_take_one_pass_per_surplus_profile(monkeypatch, desk_ctx):
    """Destinations without a profile of their own share GLOBAL_DEFAULT's: a
    rows= evaluation runs the logistic once per profile present, and still
    equals the full grid's slice bit for bit."""
    own = [d for d in desk_ctx.dest_groups if d in desk_ctx.dataset.surplus_by_country]
    shared = [d for d in desk_ctx.dest_groups if d not in desk_ctx.dataset.surplus_by_country]
    assert len(shared) >= 2 and own
    rows = np.sort(np.concatenate([desk_ctx.dest_groups[d] for d in (*shared, own[0])]))
    cols = np.arange(30, 90, 3)
    full = desk_ctx.expected_flows(PARAMS)
    full_cube = desk_ctx.probability_cube(PARAMS)
    calls = []
    logistic = engine._logistic_blocks
    monkeypatch.setattr(engine, "_logistic_blocks",
                        lambda *args: calls.append(1) or logistic(*args))
    for columns, want, cube in ((None, full[rows], full_cube[rows]),
                                (cols, full[rows][:, cols], full_cube[rows][:, cols])):
        del calls[:]
        assert desk_ctx.expected_flows(PARAMS, None, columns, rows).tobytes() == want.tobytes()
        assert len(calls) == 2  # GLOBAL_DEFAULT and own[0]'s profile
        assert desk_ctx.probability_cube(PARAMS, None, columns, rows).tobytes() == cube.tobytes()
    # the full grid and the column-only path keep one pass per destination
    del calls[:]
    desk_ctx.expected_flows(PARAMS, None, cols)
    assert len(calls) == len(desk_ctx.dest_groups)
