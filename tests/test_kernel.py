import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest
from scipy.integrate import quad

import fracflow
from fracflow import (FlowParams, assemble_kernel, build_grid, eval_preset,
                      gagliardo_seminorm_p, minimize_step, rothe_gradient,
                      run_flow)
from fracflow.grid import GridFunction
from fracflow import kernel as kernel_mod
from fracflow import verify
from fracflow.energy import _data_energies
from fracflow.kernel import _node_set_weights, _offset_weights, _window_sums
from oracles import dense_interior, pair_weights, readers_of, traced_peak


def params_with(s=0.5, p=2.0, q=1.0, h=0.01, t_end=0.1, **kw):
    return FlowParams(s=s, p=p, q=q, h=h, t_end=t_end, **kw)


def node_set_weights(dom, nodes, expo, lag=0.0):
    """``_node_set_weights`` of the offset table of these weights."""
    return _node_set_weights(dom, nodes, _offset_weights(dom, expo, lag))


def bounding_box(dom, nodes):
    """Mask of the smallest lattice box that holds the node set ``nodes``,
    from each node's cell index along each axis."""
    idx = np.rint((dom.node_coords - dom.collar_min) / dom.dx - 0.5)
    lo, hi = idx[nodes].min(axis=0), idx[nodes].max(axis=0)
    return np.all((idx >= lo) & (idx <= hi), axis=1)


def test_param_admissibility():
    for bad in (dict(s=0.0), dict(s=1.0), dict(p=1.0), dict(q=0.0),
                dict(h=0.0), dict(h=0.2, t_end=0.1), dict(solver_tol=0.0),
                dict(solver_max_iter=0)):
        with pytest.raises(ValueError):
            params_with(**bad)


def test_unit_distance_weight():
    # two interior nodes exactly one apart
    dom = build_grid(1, 0.0, 2.0, 2, 1.0)
    assert np.allclose(dom.node_coords[:, 0], [0.5, 1.5])
    k = assemble_kernel(dom, params_with(s=0.5, p=2.0))
    assert k.weights[0, 1] == dom.vol ** 2
    assert np.all(np.diag(k.weights) == 0.0)


def test_half_distance_weight():
    # |x-y| = 0.5 with s=0.5, p=2: kernel factor 0.5^(-2) = 4
    dom = build_grid(1, 0.0, 1.0, 2, 1.0)
    assert np.allclose(dom.node_coords[:, 0], [0.25, 0.75])
    k = assemble_kernel(dom, params_with(s=0.5, p=2.0))
    assert np.isclose(k.weights[0, 1], 4.0 * dom.vol ** 2, rtol=1e-14)


def test_symmetry_exact():
    dom = build_grid(2, (0.0, 0.0), (1.0, 1.0), 5, 1.8)
    k = assemble_kernel(dom, params_with(s=0.3, p=2.5))
    assert np.max(np.abs(k.weights - k.weights.T)) == 0.0
    assert np.all(k.weights[~np.eye(dom.n_nodes, dtype=bool)] > 0.0)
    assert np.all(k.tail > 0.0)


def lattice_error_bound(dom, expo):
    """Relative gap, in units of eps, allowed between a weight of the lattice
    table and the same weight from coordinate differences.

    A node coordinate is fl(c + fl((k + 1/2) dx)), so it is off the lattice
    point c + (k + 1/2) dx by at most u (L + X), u = eps/2, L the collar
    side and X the largest collar coordinate.  A coordinate difference along
    an axis whose offset is nonzero is at least dx, so its relative error is
    at most ((L + X) / dx + 1/2) eps; the lattice's fl(o dx) is off by at
    most u.  Squaring doubles a relative error, and the axis sum, lag^2 and sqrt
    add a rounding each, so each distance is within its first error plus
    3 u of the exact one.  The weight r^-expo multiplies the distance error
    by expo; pow (within one ulp) and the factor vol^2 add at most 4 eps
    over both sides."""
    side = dom.collar_max[0] - dom.collar_min[0]
    reach = max(abs(v) for v in dom.collar_min + dom.collar_max)
    return expo * ((side + reach) / dom.dx + 4.0) + 4.0


def assert_within(got, want, bound):
    eps = np.finfo(float).eps
    assert np.array_equal(got == 0.0, want == 0.0)
    some = want != 0.0
    rel = np.abs(got[some] - want[some]) / want[some]
    assert rel.max(initial=0.0) <= bound * eps


def window_error_bound(dom):
    """Gap, in units of eps times a node's total weight W (its weight to
    every node), allowed between a sum of that node's weights formed from
    the window sums of the offset table and the same sum added up term by
    term, both from the same weights.

    ``_window_sums`` works one axis at a time: cumulative sums of at most
    2m - 1 positive terms (m nodes per axis), each within (2m - 2) u of its
    exact value, u = eps/2, and a window is the difference of two of them.
    Along an axis the weights are symmetric and decrease away from offset 0,
    and every window holds offset 0, so the terms outside a window add up
    to no more than those inside it: the two cumulative sums are at most
    twice the axis total, four times the window.  With the rounding of the
    difference an axis adds at most (4 (2m - 2) + 1) u < 4m eps relative to
    W, the remainder covering second-order terms, and the second axis of a
    2D table adds as much again.  A row's sum over the set and the oracle's
    term-by-term sum each add at most n - 1 roundings of u relative to W,
    for n nodes, whatever their order; the difference W - (row sum) and its
    clamp at 0 add u at most."""
    return dom.dim * 4 * dom.shape[0] + dom.n_nodes


def assert_sums_within(got, want, total, bound):
    """Weight sums ``got`` are never negative and within ``bound`` eps of
    ``want``, relative to each row's total weight ``total``."""
    eps = np.finfo(float).eps
    assert np.all(got >= 0.0)
    assert np.all(np.abs(got - want) <= bound * eps * total)


def test_weights_match_whole_table_formula_across_row_blocks():
    # 1296 nodes.  dx = 1.5/36 is not a dyadic number, so the formula's rounded
    # coordinate differences are off the lattice offsets by a few ulps of
    # the coordinates: the two agree within the bound derived above
    dom = build_grid(2, (0.0, 0.0), (1.0, 1.0), 24, 1.5)
    assert dom.n_nodes == 1296
    params = params_with(s=0.3, p=2.5)
    expo = 2.0 + params.s * params.p
    k = assemble_kernel(dom, params)
    x, y = dom.node_coords.T
    dist = np.sqrt((x[:, None] - x[None, :]) ** 2
                   + (y[:, None] - y[None, :]) ** 2)
    np.fill_diagonal(dist, np.inf)
    expect = dist ** -expo * dom.vol ** 2
    assert not np.array_equal(k.weights, expect)
    assert_within(k.weights, expect, lattice_error_bound(dom, expo))
    # a node subset's weights are the rows and columns of the whole table
    # that its bounding box holds, at lag 0 (self pairs on the diagonal) and
    # at lag > 0; the random subset lies off the centre, and its box is
    # neither the interior nor every node.  The outside weights are window
    # sums less row sums, within the derived bound of the whole table's row
    # sums over the nodes outside the box
    rng = np.random.default_rng(3)
    some = ((rng.uniform(size=dom.n_nodes) < 0.7)
            & (dom.node_coords[:, 0] < 0.4) & (dom.node_coords[:, 1] > 0.1))
    assert not np.array_equal(bounding_box(dom, some), dom.interior_mask)
    assert 0 < bounding_box(dom, some).sum() < dom.n_nodes
    every = np.ones(dom.n_nodes, dtype=bool)
    for nodes in (dom.interior_mask, some):
        box = bounding_box(dom, nodes)
        for lag, whole in ((0.0, k.weights),
                           (0.3, node_set_weights(dom, every, expo, 0.3)[0])):
            block, outside = node_set_weights(dom, nodes, expo, lag)
            assert np.array_equal(block, whole[np.ix_(box, box)])
            assert_sums_within(outside,
                               whole[np.ix_(box, ~box)].sum(axis=1),
                               whole[box].sum(axis=1),
                               window_error_bound(dom))


@pytest.mark.parametrize("dim,n_cells,collar,dyadic", [
    (1, 64, 2.0, True), (2, 16, 2.0, True), (2, 32, 1.5, True),
    (2, 24, 1.5, False), (1, 50, 1.7, False), (2, 10, 2.0, False)])
def test_lattice_tables_match_the_coordinate_oracle(dim, n_cells, collar,
                                                    dyadic):
    # the windows of the offset table against the weights of coordinate
    # differences, on the interior (a run's support), a random subset (its
    # bounding box), and every node (the synthetic support of ineq, with
    # no node outside).  On a grid whose coordinates are exact the blocks
    # agree bit for bit; the outside weights, window sums less row sums,
    # agree within the window bound
    dom = build_grid(dim, 0.0, 1.0, n_cells, collar)
    rng = np.random.default_rng(5)
    some = ((rng.uniform(size=dom.n_nodes) < 0.5)
            & (dom.node_coords[:, -1] > 0.2))
    supports = (dom.interior_mask, some, np.ones(dom.n_nodes, dtype=bool))
    for expo in (dim + 0.75, dim + 1.9):
        bound = lattice_error_bound(dom, expo)
        for lag in (0.0, 0.3):
            for nodes in supports:
                block, outside = node_set_weights(dom, nodes, expo, lag)
                box = bounding_box(dom, nodes)
                w = pair_weights(dom.node_coords, dom.vol, expo, lag,
                                 np.flatnonzero(box))
                want_block, want_outside = w[:, box], w[:, ~box].sum(axis=1)
                if dyadic:
                    assert np.array_equal(block, want_block)
                    sums_bound = window_error_bound(dom)
                else:
                    assert_within(block, want_block, bound)
                    # each term is off by its lattice bound at most
                    sums_bound = window_error_bound(dom) + bound
                assert_sums_within(outside, want_outside, w.sum(axis=1),
                                   sums_bound)


def test_off_centre_box_matches_the_coordinate_oracle():
    # a box of 6 x 11 nodes off the centre of a dyadic 2D grid, neither the
    # interior nor every node, given by its nodes or by two opposite
    # corners alone: its weights are windows of the offset table, bit for
    # bit the weights of coordinate differences, with the pairs in node
    # order (a transposed or shifted window fails), and its outside weights
    # the oracle's row sums over the nodes outside the box within the
    # window bound
    dom = build_grid(2, 0.0, 1.0, 16, 2.0)
    grid = np.zeros(dom.shape, dtype=bool)
    grid[3:9, 20:31] = True
    box = grid.ravel()
    corners = np.zeros(dom.shape, dtype=bool)
    corners[3, 30] = corners[8, 20] = True
    assert not np.array_equal(box, dom.interior_mask)
    for expo in (2.75, 3.9):
        for lag in (0.0, 0.3):
            w = pair_weights(dom.node_coords, dom.vol, expo, lag,
                             np.flatnonzero(box))
            for nodes in (box, corners.ravel()):
                block, outside = node_set_weights(dom, nodes, expo, lag)
                assert block.shape == (66, 66)
                assert np.array_equal(block, w[:, box])
                assert_sums_within(outside, w[:, ~box].sum(axis=1),
                                   w.sum(axis=1), window_error_bound(dom))


@pytest.mark.parametrize("dim,n_cells,collar,dyadic", [
    (1, 64, 2.0, True), (2, 16, 2.0, True), (1, 50, 1.7, False),
    (2, 10, 2.0, False)])
def test_window_sums_match_the_brute_force_row_sums(dim, n_cells, collar,
                                                    dyadic):
    # each node's window sum of the offset table is its total weight to
    # every node: the row sum of the weights of coordinate differences,
    # within the window bound (plus each term's lattice bound where the
    # coordinates are not exact).  At lag > 0 the offset-0 term, the node's
    # pair with itself in another slab, is part of the total, and leaving
    # it out would fall far outside the bound
    dom = build_grid(dim, 0.0, 1.0, n_cells, collar)
    eps = np.finfo(float).eps
    for expo in (dim + 0.75, dim + 1.9):
        bound = window_error_bound(dom)
        if not dyadic:
            bound += lattice_error_bound(dom, expo)
        for lag in (0.0, 0.3):
            got = _window_sums(dom, _offset_weights(dom, expo, lag))
            want = pair_weights(dom.node_coords, dom.vol, expo,
                                lag).sum(axis=1)
            assert_sums_within(got, want, want, bound)
            if lag:
                self_term = dom.vol ** 2 * lag ** -expo
                assert np.all(self_term > bound * eps * want)


@pytest.mark.parametrize("dim,n_cells,collar", [(1, 16, 2.0), (1, 64, 2.0),
                                                (2, 16, 2.0), (2, 7, 1.37)])
def test_no_outside_weight_is_negative(dim, n_cells, collar):
    # an outside weight is a window sum less a row sum, clamped at 0.  On a
    # set of every node (ineq's synthetic space-time support and the collar
    # table ``KernelTable.weights``) nothing is outside, and the two sums
    # agree to roundoff, either way: each outside weight is 0 or within the
    # window bound of it, never below.  On the interior and a random set
    # off the centre (its bounding box) the outside weights are positive
    dom = build_grid(dim, 0.0, 1.0, n_cells, collar)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(7)
    every = np.ones(dom.n_nodes, dtype=bool)
    some = ((rng.uniform(size=dom.n_nodes) < 0.5)
            & (dom.node_coords[:, -1] < 0.6))
    assert bounding_box(dom, some).sum() < dom.n_nodes
    for expo in (dim + 0.75, dim + 1.9):
        for lag in (0.0, 0.3):
            block, outside = node_set_weights(dom, every, expo, lag)
            total = block.sum(axis=1)
            assert np.all(outside >= 0.0)
            assert np.all(outside <= window_error_bound(dom) * eps * total)
            for nodes in (dom.interior_mask, some):
                assert np.all(node_set_weights(dom, nodes, expo, lag)[1] > 0.0)


GRIDS = [(1, 64, 2.0), (2, 16, 2.0), (2, 7, 1.37), (2, 32, 1.5)]


@pytest.mark.parametrize("dim,n_cells,collar", GRIDS)
def test_interior_rows_match_the_collar_table(monkeypatch, dim, n_cells,
                                              collar):
    # the interior block and tails are exactly the slices of the full
    # table, and the boundary weights its exterior row sums plus the tails
    # within the window bound (the tail adds one rounding relative to the
    # row's total).  Assembly builds one offset table; at p = 2 it reads
    # no box of it and holds no interior block, otherwise it reads the
    # interior's box once, as one copy and no row blocks: no weight to an
    # exterior node is formed
    dom = build_grid(dim, 0.0, 1.0, n_cells, collar)
    tables, boxes, blocks = [], [], []
    offset_weights = kernel_mod._offset_weights
    box_weights, row_blocks = kernel_mod._box_weights, kernel_mod._row_blocks

    def spy_table(*args, **kwargs):
        tables.append(args[1:])
        return offset_weights(*args, **kwargs)

    def spy_box(*args):
        view, box, total = box_weights(*args)
        boxes.append((view.shape, box))
        return view, box, total

    def spy_blocks(*args):
        for item in row_blocks(*args):
            blocks.append(item[1].shape)
            yield item

    monkeypatch.setattr(kernel_mod, "_offset_weights", spy_table)
    monkeypatch.setattr(kernel_mod, "_box_weights", spy_box)
    monkeypatch.setattr(kernel_mod, "_row_blocks", spy_blocks)
    mask = dom.interior_mask
    for s, p in ((0.5, 2.0), (0.3, 2.5)):
        params = params_with(s=s, p=p)
        tables.clear()
        boxes.clear()
        k = assemble_kernel(dom, params)
        assert tables == [(dim + s * p,)]
        if p == 2.0:
            assert boxes == []
            assert k.interior is None and k.boundary is None
            interior, boundary = dense_interior(k)
        else:
            assert k.degree is None and k.spectrum is None
            interior, boundary = k.interior, k.boundary
            assert not interior.flags.writeable
            assert not boundary.flags.writeable
            assert len(boxes) == 1
            assert boxes[0][0] == 2 * dom.interior_shape
            assert np.array_equal(boxes[0][1], mask)
        assert blocks == []
        w = k.weights
        assert w is k.weights and not w.flags.writeable
        assert w.shape == (dom.n_nodes, dom.n_nodes)
        assert np.array_equal(interior, w[np.ix_(mask, mask)])
        tails = kernel_mod._tail_weights(dom, params)
        assert np.array_equal(k.tail, tails)
        assert_sums_within(
            boundary, w[np.ix_(mask, ~mask)].sum(axis=1) + tails[mask],
            w[mask].sum(axis=1) + tails[mask], window_error_bound(dom) + 1)


def interior_row_blocks(dom, params):
    """The row blocks of the interior's box at ``params``' exponent, copied
    out as (lo, block, outside)."""
    table = _offset_weights(dom, dom.dim + params.s * params.p)
    view, _, total = kernel_mod._box_weights(dom, dom.interior_mask, table)
    return [(lo, block.copy(), outside) for lo, block, outside
            in kernel_mod._row_blocks(view, total, dom.n_nodes)]


@pytest.mark.parametrize("dim,n_cells,collar", [(1, 16, 2.0)] + GRIDS)
def test_boundary_is_the_same_at_any_block_size(monkeypatch, dim, n_cells,
                                                collar):
    # a block budget of one row forms the interior's row blocks one row at
    # a time, and their outside weights plus the tails are assembly's
    # boundary bit for bit: each row sums its own contiguous values
    # whatever the block, so the space-time sums, which read row blocks,
    # and assembly, which reads one copy, take the same outside weights.
    # The boundary is the collar table's exterior row sums plus the tails
    # within the window bound
    dom = build_grid(dim, 0.0, 1.0, n_cells, collar)
    mask = dom.interior_mask
    params = params_with(p=1.5, q=0.5)
    k = assemble_kernel(dom, params)
    monkeypatch.setattr(kernel_mod, "_BLOCK_BYTES", 8 * dom.n_nodes)
    blocks = interior_row_blocks(dom, params)
    assert [(lo, len(b)) for lo, b, _ in blocks] == [
        (lo, 1) for lo in range(dom.n_interior)]
    assert np.array_equal(np.concatenate([b for _, b, _ in blocks]),
                          k.interior)
    outside = np.concatenate([o for _, _, o in blocks])
    assert np.array_equal(outside + k.tail[mask], k.boundary)
    w = k.weights
    assert_sums_within(
        k.boundary, w[np.ix_(mask, ~mask)].sum(axis=1) + k.tail[mask],
        w[mask].sum(axis=1) + k.tail[mask], window_error_bound(dom) + 1)


@pytest.mark.parametrize("dim,n_cells,collar", GRIDS)
@pytest.mark.parametrize("rows", [1, 3, 40, 100])
def test_row_blocks_keep_to_lines_and_the_row_budget(monkeypatch, dim,
                                                     n_cells, collar, rows):
    # a line is a run of box nodes along the last axis.  Under a budget of
    # fewer rows than one line, every block is consecutive nodes of one
    # line; otherwise whole lines.  No block has more rows than the budget,
    # the blocks cover the box's rows in order, they are the interior block
    # of assembly (one copy of the box) bit for bit, and the outside
    # weights are the default budget's bit for bit
    dom = build_grid(dim, 0.0, 1.0, n_cells, collar)
    params = params_with(p=2.5)
    k = assemble_kernel(dom, params)
    line = dom.interior_shape[-1]
    default = np.concatenate(
        [o for _, _, o in interior_row_blocks(dom, params)])
    monkeypatch.setattr(kernel_mod, "_BLOCK_BYTES", 8 * dom.n_nodes * rows)
    blocks = interior_row_blocks(dom, params)
    assert [lo for lo, _, _ in blocks] == list(
        np.cumsum([0] + [len(b) for _, b, _ in blocks[:-1]]))
    for lo, block, _ in blocks:
        assert len(block) <= rows
        if rows < line:
            assert lo // line == (lo + len(block) - 1) // line
        else:
            assert lo % line == 0 == len(block) % line
    if rows < line:
        assert any(len(b) == rows for _, b, _ in blocks)
    else:
        assert len(blocks[0][1]) == min(rows // line * line, dom.n_interior)
    assert np.array_equal(np.concatenate([b for _, b, _ in blocks]),
                          k.interior)
    assert np.array_equal(np.concatenate([o for _, _, o in blocks]), default)


@pytest.mark.parametrize("dim,n_cells,p", [(1, 16, 2.0), (1, 16, 1.5),
                                           (2, 8, 2.0), (2, 8, 3.0)])
def test_assembly_evaluates_the_offset_table_once(monkeypatch, dim, n_cells,
                                                  p):
    # one pow per lattice offset, once: assembly builds the offset table a
    # single time, and the energies and gradients read what it built
    calls = []
    offset_weights = kernel_mod._offset_weights

    def spy(*args, **kwargs):
        calls.append(args[1:])
        return offset_weights(*args, **kwargs)

    monkeypatch.setattr(kernel_mod, "_offset_weights", spy)
    dom = build_grid(dim, 0.0, 1.0, n_cells, 2.0)
    params = params_with(p=p, t_end=0.02)
    k = assemble_kernel(dom, params)
    u = eval_preset(dom, "bump", 1.0)
    gagliardo_seminorm_p(u, k)
    rothe_gradient(u, u, k, params)
    minimize_step(u, k, params)
    assert calls == [(dim + 0.5 * p,)]


@pytest.mark.parametrize("dim,n_cells,collar", GRIDS + [(1, 50, 1.7),
                                                        (2, 24, 1.5)])
def test_fft_product_and_window_degree_match_the_gathered_block(
        dim, n_cells, collar):
    # at p = 2 the interior block is applied by FFT and each node's degree
    # is a window sum of the offset table; both against the copied block,
    # to roundoff relative to the sums of absolute terms.  For other p the
    # table holds the block and neither of them
    dom = build_grid(dim, 0.0, 1.0, n_cells, collar)
    rng = np.random.default_rng(11)
    rtol = 1e-13
    for s in (0.5, 0.3):
        k = assemble_kernel(dom, params_with(s=s, p=2.0))
        interior, boundary = dense_interior(k)
        want = interior.sum(axis=1) + boundary
        assert not k.degree.flags.writeable
        np.testing.assert_allclose(k.degree, want, rtol=rtol, atol=0.0)
        assert not k.spectrum.flags.writeable
        for x in (np.ones(dom.n_interior),
                  rng.uniform(-1.0, 1.0, dom.n_interior)):
            got = k.apply_interior(x)
            assert got.shape == x.shape
            scale = interior @ np.abs(x)
            assert np.all(np.abs(got - interior @ x) <= rtol * scale)
    k = assemble_kernel(dom, params_with(s=0.3, p=2.5))
    assert k.degree is None and k.spectrum is None


def test_node_guard_counts_interior_nodes(monkeypatch):
    # the guard refuses the dense interior block, which p = 2 never forms
    calls = []
    offset_weights = kernel_mod._offset_weights

    def spy(*args, **kwargs):
        calls.append(args[1:])
        return offset_weights(*args, **kwargs)

    monkeypatch.setattr(kernel_mod, "_offset_weights", spy)
    params = params_with(p=1.5)
    # 6400 collar nodes around 8 interior ones: the resident table is 8 x 8
    wide = build_grid(1, 0.0, 1.0, 8, 800.0)
    assert wide.n_nodes > 6000
    k = assemble_kernel(wide, params)
    assert k.interior.shape == (8, 8) and k.boundary.shape == (8,)
    assert len(calls) == 1      # the block's table, the only one
    # more than 6000 interior nodes are refused before any table is built
    calls.clear()
    big = build_grid(1, 0.0, 1.0, 6001, 1.0)
    assert big.n_interior > 6000
    with pytest.raises(ValueError, match="6001 interior nodes"):
        assemble_kernel(big, params)
    assert calls == []


def test_p2_runs_past_6000_interior_nodes_without_the_block(monkeypatch):
    # at p = 2 nothing dense is built, so no size is refused: 6400 interior
    # nodes (a 312 MiB block) take two steps with the block never formed.
    # For other p the block is built, and refused, at assembly
    def refuse(*args, **kwargs):
        raise AssertionError("the interior block was formed")

    monkeypatch.setattr(kernel_mod, "_node_set_weights", refuse)
    dom = build_grid(1, 0.0, 1.0, 6400, 1.25)
    assert dom.n_interior == 6400
    params = params_with(t_end=0.02)
    traj = run_flow(eval_preset(dom, "bump", 1.0),
                    assemble_kernel(dom, params), params)
    assert traj.n_steps == 2
    assert all(d.iterations >= 1 for d in traj.diagnostics)
    assert traj.kernel.interior is None and traj.kernel.boundary is None
    with pytest.raises(ValueError, match="6400 interior nodes"):
        assemble_kernel(dom, params_with(p=2.5))


def test_assembly_never_holds_the_collar_table():
    # converge-2d's grid: the full table would be 2304^2 doubles (40.5 MiB).
    # At p = 2 assembly and a whole run hold no (n, n) array: the interior
    # block alone would be 8 MiB.  For other p, assembly holds that block,
    # copied once from the interior's window view, with the offset table
    # (9025 doubles) and its window sums: 8.1 MiB in all; nothing is formed
    # for the 1280 exterior nodes
    dom = build_grid(2, 0.0, 1.0, 32, 1.5)
    assert (dom.n_nodes, dom.n_interior) == (2304, 1024)
    u0 = eval_preset(dom, "bump", 1.0)
    params = params_with(t_end=0.02)
    run_flow(u0, assemble_kernel(dom, params), params)  # loads numpy.fft
    peak = traced_peak(
        lambda: run_flow(u0, assemble_kernel(dom, params), params))[1]
    peak_block = traced_peak(
        lambda: assemble_kernel(dom, params_with(p=2.5)))[1]
    assert peak < 2 ** 20 < 8 * dom.n_interior ** 2
    assert peak_block < 9 * 2 ** 20 < 8 * dom.n_nodes ** 2


def tail_oracle_1d(x, cmin, cmax, sp):
    left = quad(lambda y: (x - y) ** (-(1.0 + sp)), -np.inf, cmin)[0]
    right = quad(lambda y: (y - x) ** (-(1.0 + sp)), cmax, np.inf)[0]
    return left + right


def test_tail_1d_closed_form_vs_quadrature():
    # center node of a 3-cell collar sits at distance 1 from both ends
    dom = build_grid(1, 0.0, 2.0, 3, 1.0)
    params = params_with(s=0.5, p=2.0)  # sp = 1
    i = 1
    assert dom.node_coords[i, 0] == 1.0
    t = kernel_mod._tail_weights(dom, params)[i]
    assert np.isclose(t, 2.0 * dom.vol, rtol=1e-14)
    oracle = dom.vol * tail_oracle_1d(1.0, 0.0, 2.0, 1.0)
    assert abs(t - oracle) <= 1e-10 * abs(oracle)
    # off-center node, non-integer exponent
    params = params_with(s=0.4, p=1.7)
    t0 = kernel_mod._tail_weights(dom, params)[0]
    x0 = dom.node_coords[0, 0]
    oracle = dom.vol * tail_oracle_1d(x0, 0.0, 2.0, 0.4 * 1.7)
    assert abs(t0 - oracle) <= 1e-10 * abs(oracle)


def test_tail_monotone_in_sp():
    dom = build_grid(1, 0.0, 2.0, 3, 1.0)
    values = [kernel_mod._tail_weights(dom, params_with(s=s, p=2.0))[1]
              for s in (0.3, 0.5, 0.7, 0.9)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_tail_2d_inscribed_disc():
    # center node at face distance 1, sp = 1: radial integral gives 2*pi
    dom = build_grid(2, (0.0, 0.0), (2.0, 2.0), 3, 1.0)
    params = params_with(s=0.5, p=2.0)
    center = 4  # node-major index of the middle node
    assert np.allclose(dom.node_coords[center], [1.0, 1.0])
    t = kernel_mod._tail_weights(dom, params)[center]
    assert np.isclose(t, dom.vol * 2.0 * math.pi, rtol=1e-14)
    oracle = quad(lambda r: 2.0 * math.pi * r ** (-2.0), 1.0, np.inf)[0]
    assert abs(t - dom.vol * oracle) <= 1e-10 * dom.vol * oracle


def test_tail_decreases_away_from_collar_boundary():
    dom = build_grid(1, 0.0, 1.0, 8, 2.0)
    params = params_with()
    k = assemble_kernel(dom, params)
    half = dom.n_nodes // 2
    assert all(k.tail[i] > k.tail[i + 1] for i in range(half - 1))


def test_scaling_law():
    rng = np.random.default_rng(3)
    lam = 2.7
    a = build_grid(1, 0.0, 1.0, 8, 2.0)
    b = build_grid(1, 0.0, lam, 8, 2.0)
    params = params_with(s=0.6, p=1.8)
    ka = assemble_kernel(a, params)
    kb = assemble_kernel(b, params)
    expo = 1.0 + 0.6 * 1.8
    for _ in range(20):
        i, j = rng.integers(0, a.n_nodes, 2)
        if i == j:
            continue
        fa = ka.weights[i, j] / a.vol ** 2
        fb = kb.weights[i, j] / b.vol ** 2
        assert np.isclose(fb, fa * lam ** (-expo), rtol=1e-12)


def test_pairing_refinement_stability():
    # smooth test pair, sp < 1: the bilinear pairing moves < 5% under
    # one refinement
    params = params_with(s=0.25, p=2.0)

    def pairing(n_cells):
        dom = build_grid(1, 0.0, 1.0, n_cells, 2.0)
        k = assemble_kernel(dom, params)
        x = dom.node_coords[:, 0]
        u = np.where(dom.interior_mask, np.sin(np.pi * x), 0.0)
        phi = np.where(dom.interior_mask, x * (1.0 - x), 0.0)
        du = u[:, None] - u[None, :]
        dphi = phi[:, None] - phi[None, :]
        return 0.5 * float(np.sum(k.weights * du * dphi))

    p32, p64 = pairing(32), pairing(64)
    assert abs(p32 - p64) / abs(p64) < 0.05


def test_no_function_takes_s_or_p_beside_a_kernel():
    # a kernel table owns the s and p it was built for: a function given
    # one reads them there, and takes no second copy that could disagree
    takers = []
    for info in pkgutil.iter_modules(fracflow.__path__):
        mod = importlib.import_module(f"fracflow.{info.name}")
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for fn in filter(inspect.isfunction, members):
                names = inspect.signature(fn).parameters.keys()
                if "kernel" in names and names & {"s", "p"}:
                    takers.append(fn.__qualname__)
    assert takers == []


def test_only_the_tolerance_rule_reads_solver_tol():
    # the run's tolerances are derived in one place: no other function or
    # method forms a second copy of the rule from solver_tol
    assert readers_of("solver_tol") == {
        "energy._tolerances", "kernel.FlowParams.__post_init__"}


def test_require_match_guards_mismatch():
    dom = build_grid(1, 0.0, 1.0, 8, 2.0)
    other = build_grid(1, 0.0, 1.0, 16, 2.0)
    k = assemble_kernel(dom, params_with(s=0.5, p=2.0))
    k.require_match(dom)
    k.require_match(dom, params_with(s=0.5, p=2.0))
    for bad in ((other,), (dom, params_with(s=0.5, p=3.0)),
                (other, params_with(s=0.5, p=2.0)),
                (dom, params_with(s=0.2, p=2.0))):
        with pytest.raises(ValueError, match=r"\(s, p, grid\)"):
            k.require_match(*bad)
    # flow parameters with another s than the kernel's are refused wherever
    # they meet it, as another p or grid is
    params = params_with(s=0.2, p=2.0)
    u = eval_preset(dom, "bump", 1.0)
    for call in (lambda: run_flow(u, k, params),
                 lambda: minimize_step(u, k, params),
                 lambda: _data_energies(u, k, params),
                 lambda: rothe_gradient(u, u, k, params),
                 lambda: verify.check_poincare(u, k, params),
                 # data on another grid
                 lambda: minimize_step(eval_preset(other, "bump", 1.0), k,
                                       params_with(s=0.5, p=2.0))):
        with pytest.raises(ValueError, match=r"\(s, p, grid\)"):
            call()
