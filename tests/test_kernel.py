import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from fracflow import (FlowParams, assemble_kernel, build_grid, eval_preset,
                      minimize_step, rothe_gradient, run_flow, scale_for)
from fracflow.grid import GridFunction
from fracflow import kernel as kernel_mod
from fracflow import verify
from fracflow.kernel import _BLOCK_BYTES, _pair_weights


def params_with(s=0.5, p=2.0, q=1.0, h=0.01, t_end=0.1, **kw):
    return FlowParams(s=s, p=p, q=q, h=h, t_end=t_end, **kw)


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


def test_weights_match_whole_table_formula_across_row_blocks():
    # 1296 nodes: the table is built in two row blocks, the second one short
    dom = build_grid(2, (0.0, 0.0), (1.0, 1.0), 24, 1.5)
    assert dom.n_nodes == 1296
    params = params_with(s=0.3, p=2.5)
    k = assemble_kernel(dom, params)
    x, y = dom.node_coords.T
    dist = np.sqrt((x[:, None] - x[None, :]) ** 2
                   + (y[:, None] - y[None, :]) ** 2)
    np.fill_diagonal(dist, np.inf)
    expect = dist ** -(2.0 + params.s * params.p) * dom.vol ** 2
    assert np.array_equal(k.weights, expect)
    # a row subset is the same rows of the whole table, at lag 0 (self pairs
    # inside a row block) and at lag > 0; the random subset spans two blocks
    rng = np.random.default_rng(3)
    expo = 2.0 + params.s * params.p
    some = np.flatnonzero(rng.uniform(size=dom.n_nodes) < 0.7)
    assert some.size > _BLOCK_BYTES // (8 * dom.n_nodes)
    for idx in (np.flatnonzero(dom.interior_mask), some):
        for lag, whole in ((0.0, k.weights),
                           (0.3, _pair_weights(dom.node_coords, dom.vol,
                                               expo, 0.3))):
            part = _pair_weights(dom.node_coords, dom.vol, expo, lag, rows=idx)
            assert np.array_equal(part, whole[idx])


@pytest.mark.parametrize("dim,n_cells,collar", [
    (1, 64, 2.0), (2, 16, 2.0), (2, 7, 1.37), (2, 32, 1.5)])
def test_interior_rows_match_the_collar_table(monkeypatch, dim, n_cells,
                                              collar):
    # the interior block, boundary weights and tails are exactly the slices
    # of the full table, with the interior built in three or more row blocks
    dom = build_grid(dim, 0.0, 1.0, n_cells, collar)
    monkeypatch.setattr(kernel_mod, "_BLOCK_BYTES",
                        8 * dom.n_nodes * (dom.n_interior // 3))
    blocks = []

    def spy(*args, **kwargs):
        w = _pair_weights(*args, **kwargs)
        blocks.append(w.shape[0])
        return w

    monkeypatch.setattr(kernel_mod, "_pair_weights", spy)
    mask = dom.interior_mask
    for s, p in ((0.5, 2.0), (0.3, 2.5)):
        params = params_with(s=s, p=p)
        blocks.clear()
        k = assemble_kernel(dom, params)
        assert len(blocks) >= 3 and sum(blocks) == dom.n_interior
        w = k.weights
        assert w is k.weights and not w.flags.writeable
        assert w.shape == (dom.n_nodes, dom.n_nodes)
        assert np.array_equal(k.interior, w[np.ix_(mask, mask)])
        tails = kernel_mod._tail_weights(dom, params)
        assert np.array_equal(k.tail, tails)
        assert np.array_equal(
            k.boundary, w[np.ix_(mask, ~mask)].sum(axis=1) + tails[mask])


def test_node_guard_counts_interior_nodes(monkeypatch):
    # 6400 collar nodes around 8 interior ones: the resident table is 8 x 8
    wide = build_grid(1, 0.0, 1.0, 8, 800.0)
    assert wide.n_nodes > 6000
    k = assemble_kernel(wide, params_with())
    assert k.interior.shape == (8, 8) and k.boundary.shape == (8,)
    # more than 6000 interior nodes are refused before any weight is built
    calls = []
    monkeypatch.setattr(kernel_mod, "_pair_weights",
                        lambda *a, **kw: calls.append(a))
    big = build_grid(1, 0.0, 1.0, 6001, 1.0)
    assert big.n_interior > 6000
    with pytest.raises(ValueError, match="6001 interior nodes"):
        assemble_kernel(big, params_with())
    assert calls == []


def test_assembly_never_holds_the_collar_table():
    # converge-2d's grid: the full table would be 2304^2 doubles (40.5 MiB);
    # the interior block is 8 MiB, plus one row block of weights and one of
    # differences (8 MiB each)
    dom = build_grid(2, 0.0, 1.0, 32, 1.5)
    assert (dom.n_nodes, dom.n_interior) == (2304, 1024)
    tracemalloc.start()
    try:
        assemble_kernel(dom, params_with())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28 * 2 ** 20 < 8 * dom.n_nodes ** 2


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


def test_params_hash_guards_mismatch():
    dom = build_grid(1, 0.0, 1.0, 8, 2.0)
    other = build_grid(1, 0.0, 1.0, 16, 2.0)
    k = assemble_kernel(dom, params_with(s=0.5, p=2.0))
    k.require_match(dom, 0.5, 2.0)
    for bad in ((dom, 0.5, 3.0), (other, 0.5, 2.0), (dom, 0.2, 2.0)):
        with pytest.raises(ValueError, match=r"\(s, p, grid\)"):
            k.require_match(*bad)
    # flow parameters with another s than the kernel's are refused wherever
    # they meet it, as another p or grid is
    params = params_with(s=0.2, p=2.0)
    u = eval_preset(dom, "bump", 1.0)
    for call in (lambda: run_flow(u, k, params),
                 lambda: minimize_step(u, k, params),
                 lambda: scale_for(u, k, params),
                 lambda: rothe_gradient(u, u, k, params),
                 lambda: verify.check_poincare(u, k, params),
                 lambda: verify.chebyshev_level_sets(u, 2, params, k)):
        with pytest.raises(ValueError, match=r"\(s, p, grid\)"):
            call()
