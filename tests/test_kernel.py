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
from fracflow.kernel import _BLOCK_BYTES, _node_set_weights, _offset_weights
from oracles import dense_interior, pair_weights, readers_of, traced_peak


def params_with(s=0.5, p=2.0, q=1.0, h=0.01, t_end=0.1, **kw):
    return FlowParams(s=s, p=p, q=q, h=h, t_end=t_end, **kw)


def node_set_weights(dom, nodes, expo, lag=0.0):
    """``_node_set_weights`` of the offset table of these weights."""
    return _node_set_weights(dom, nodes, _offset_weights(dom, expo, lag))


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


def test_weights_match_whole_table_formula_across_row_blocks():
    # 1296 nodes: the table is gathered in row blocks of 25 rows, the last
    # one short.  dx = 1.5/36 is not a dyadic number, so the formula's rounded
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
    # a node subset is the same rows and columns of the whole table, at lag
    # 0 (self pairs inside a row block) and at lag > 0; the random subset
    # spans many blocks
    rng = np.random.default_rng(3)
    some = rng.uniform(size=dom.n_nodes) < 0.7
    assert some.sum() > _BLOCK_BYTES // (8 * dom.n_nodes)
    every = np.ones(dom.n_nodes, dtype=bool)
    for nodes in (dom.interior_mask, some):
        for lag, whole in ((0.0, k.weights),
                           (0.3, node_set_weights(dom, every, expo, 0.3)[0])):
            block, outside = node_set_weights(dom, nodes, expo, lag)
            assert np.array_equal(block, whole[np.ix_(nodes, nodes)])
            assert np.array_equal(outside,
                                  whole[np.ix_(nodes, ~nodes)].sum(axis=1))


@pytest.mark.parametrize("dim,n_cells,collar,dyadic", [
    (1, 64, 2.0, True), (2, 16, 2.0, True), (2, 32, 1.5, True),
    (2, 24, 1.5, False), (1, 50, 1.7, False), (2, 10, 2.0, False)])
def test_lattice_tables_match_the_coordinate_oracle(dim, n_cells, collar,
                                                    dyadic):
    # the offset-table gather against the weights of coordinate differences,
    # on the interior (a run's support), a random subset, and every node
    # (the synthetic support of ineq, with no node outside).  On a grid
    # whose coordinates are exact the two agree bit for bit
    dom = build_grid(dim, 0.0, 1.0, n_cells, collar)
    rng = np.random.default_rng(5)
    supports = (dom.interior_mask, rng.uniform(size=dom.n_nodes) < 0.5,
                np.ones(dom.n_nodes, dtype=bool))
    for expo in (dim + 0.75, dim + 1.9):
        bound = lattice_error_bound(dom, expo)
        for lag in (0.0, 0.3):
            for nodes in supports:
                block, outside = node_set_weights(dom, nodes, expo, lag)
                w = pair_weights(dom.node_coords, dom.vol, expo, lag,
                                 np.flatnonzero(nodes))
                every = np.arange(w.shape[0])
                want_block = w[np.ix_(every, nodes)]
                want_outside = w[np.ix_(every, ~nodes)].sum(axis=1)
                if dyadic:
                    assert np.array_equal(block, want_block)
                    assert np.array_equal(outside, want_outside)
                else:
                    assert_within(block, want_block, bound)
                    # sums of positive terms: each reordered partial sum
                    # adds at most u per term
                    assert_within(outside, want_outside,
                                  bound + dom.n_nodes)


GRIDS = [(1, 64, 2.0), (2, 16, 2.0), (2, 7, 1.37), (2, 32, 1.5)]


@pytest.mark.parametrize("dim,n_cells,collar", GRIDS)
def test_interior_rows_match_the_collar_table(monkeypatch, dim, n_cells,
                                              collar):
    # the interior block, boundary weights and tails are exactly the slices
    # of the full table.  Assembly builds one offset table; at p = 2 it
    # gathers nothing and holds no interior block, otherwise it gathers the
    # interior rows in three or more row blocks, once, and each block's
    # weights to the exterior in row chunks that fit the block budget with
    # their keys
    dom = build_grid(dim, 0.0, 1.0, n_cells, collar)
    budget = 8 * dom.n_nodes * (dom.n_interior // 3)
    monkeypatch.setattr(kernel_mod, "_BLOCK_BYTES", budget)
    tables, gathers = [], []
    offset_weights, gather = kernel_mod._offset_weights, kernel_mod._gather

    def spy_table(*args, **kwargs):
        tables.append(args[1:])
        return offset_weights(*args, **kwargs)

    def spy_gather(table, a, b, out=None):
        # the interior block is gathered in place, the exterior row sums not
        gathers.append((out is not None, a.size, b.size))
        return gather(table, a, b, out)

    monkeypatch.setattr(kernel_mod, "_offset_weights", spy_table)
    monkeypatch.setattr(kernel_mod, "_gather", spy_gather)
    mask = dom.interior_mask
    n_rest = dom.n_nodes - dom.n_interior
    for s, p in ((0.5, 2.0), (0.3, 2.5)):
        params = params_with(s=s, p=p)
        tables.clear()
        gathers.clear()
        k = assemble_kernel(dom, params)
        assert tables == [(dim + s * p,)]
        if p == 2.0:
            assert gathers == []
            assert k.interior is None and k.boundary is None
            interior, boundary = dense_interior(k)
        else:
            assert k.degree is None and k.spectrum is None
            interior, boundary = k.interior, k.boundary
            assert not interior.flags.writeable
            assert not boundary.flags.writeable
            blocks = [(rows, cols) for inner, rows, cols in gathers if inner]
            assert len(blocks) >= 3
            assert sum(rows for rows, _ in blocks) == dom.n_interior
            assert {cols for _, cols in blocks} == {dom.n_interior}
            chunks = []     # the exterior chunks' rows, block by block
            for inner, rows, cols in gathers:
                if inner:
                    chunks.append([])
                else:
                    assert cols == n_rest and 16 * rows * cols <= budget
                    chunks[-1].append(rows)
            assert [sum(c) for c in chunks] == [rows for rows, _ in blocks]
        w = k.weights
        assert w is k.weights and not w.flags.writeable
        assert w.shape == (dom.n_nodes, dom.n_nodes)
        assert np.array_equal(interior, w[np.ix_(mask, mask)])
        tails = kernel_mod._tail_weights(dom, params)
        assert np.array_equal(k.tail, tails)
        assert np.array_equal(
            boundary, w[np.ix_(mask, ~mask)].sum(axis=1) + tails[mask])


@pytest.mark.parametrize("dim,n_cells,collar", [(1, 16, 2.0)] + GRIDS)
def test_boundary_is_the_same_at_any_chunk_size(monkeypatch, dim, n_cells,
                                                collar):
    # a block budget of one exterior row with its keys gathers the weights
    # to the exterior one row at a time, and boundary is still the collar
    # table's row sums bit for bit: each row is summed over the same
    # contiguous values whatever the chunk, so a rerun is byte-identical
    # whatever block budget it assembles with
    dom = build_grid(dim, 0.0, 1.0, n_cells, collar)
    mask = dom.interior_mask
    n_rest = dom.n_nodes - dom.n_interior
    params = params_with(p=1.5, q=0.5)
    default = assemble_kernel(dom, params).boundary
    monkeypatch.setattr(kernel_mod, "_BLOCK_BYTES", 16 * n_rest)
    chunks, gather = [], kernel_mod._gather

    def spy_gather(table, a, b, out=None):
        if out is None:
            chunks.append(a.size)
        return gather(table, a, b, out)

    monkeypatch.setattr(kernel_mod, "_gather", spy_gather)
    k = assemble_kernel(dom, params)
    assert chunks == [1] * dom.n_interior
    assert np.array_equal(k.boundary, default)
    assert np.array_equal(
        k.boundary,
        k.weights[np.ix_(mask, ~mask)].sum(axis=1) + k.tail[mask])


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
    # is a window sum of the offset table; both against the gathered block,
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
    # nodes (a 312 MiB block) take two steps with the block never gathered.
    # For other p the block is built, and refused, at assembly
    def refuse(*args, **kwargs):
        raise AssertionError("the interior block was gathered")

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
    # block alone would be 8 MiB.  For other p, assembly holds that block
    # and, for one chunk of 12 rows of a 14-row block, the gathered weights
    # to the 1280 exterior nodes and their keys (120 KiB each): 8.4 MiB in
    # all; the offset table is 9025 doubles
    dom = build_grid(2, 0.0, 1.0, 32, 1.5)
    assert (dom.n_nodes, dom.n_interior) == (2304, 1024)
    u0 = eval_preset(dom, "bump", 1.0)
    params = params_with(t_end=0.02)
    run_flow(u0, assemble_kernel(dom, params), params)  # loads numpy.fft
    peak = traced_peak(
        lambda: run_flow(u0, assemble_kernel(dom, params), params))[1]
    peak_gather = traced_peak(lambda: assemble_kernel(dom, params_with(p=2.5)))[1]
    assert peak < 2 ** 20 < 8 * dom.n_interior ** 2
    assert peak_gather < 9 * 2 ** 20 < 8 * dom.n_nodes ** 2


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
