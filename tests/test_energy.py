import math

import numpy as np
import pytest

from fracflow import (FlowParams, GridFunction, apply_frac_p_laplacian,
                      assemble_kernel, build_grid, energy_functional,
                      eval_preset, gagliardo_seminorm_p, lq_power_integral,
                      rothe_gradient, scan_alg_constants)
from fracflow.energy import (_data_energies, _pair_sum, _step_gradient,
                             _tolerances, alg_ratios, sgn_power)
from fracflow.rothe import _StepWorkspace, _ray_start
from fracflow.verify import alg_constants
from oracles import (dense_interior, interior_step_objective, on_collar,
                     scan_oracle, step_objective, zero_function)


def make_problem(n_cells=16, s=0.5, p=2.0, q=1.0, h=0.01):
    dom = build_grid(1, 0.0, 1.0, n_cells, 2.0)
    params = FlowParams(q=q, h=h, t_end=0.1)
    return dom, params, assemble_kernel(dom, s, p)


def smooth_pair(dom, seed=0, base_amp=1.0):
    """Smooth positive-ish test function and a smooth direction."""
    rng = np.random.default_rng(seed)
    mask = dom.interior_mask
    bump = eval_preset(dom, "bump", base_amp).values
    noise = rng.uniform(-1.0, 1.0, dom.n_nodes)[mask]
    w = GridFunction(dom, bump * (1.0 + 0.3 * noise))
    phi = GridFunction(dom, bump * rng.uniform(-1.0, 1.0, dom.n_nodes)[mask])
    return w, phi


def test_lq_power_integral_values():
    dom, params, _ = make_problem(4)
    assert lq_power_integral(zero_function(dom), 2.0) == 0.0
    # one interior node holding 2, vol = 0.25: 0.25 * 2^3 = 2
    vals = np.zeros(dom.n_interior)
    vals[0] = 2.0
    assert lq_power_integral(GridFunction(dom, vals), 3.0) == 2.0
    with pytest.raises(ValueError):
        lq_power_integral(zero_function(dom), 0.5)


def test_lq_homogeneity():
    dom, _, _ = make_problem()
    rng = np.random.default_rng(1)
    vals = rng.normal(size=dom.n_nodes)[dom.interior_mask]
    u = GridFunction(dom, vals)
    for r in (1.0, 2.0, 3.7):
        for lam in (-2.0, 0.5, 3.3):
            lam_u = GridFunction(dom, lam * vals)
            assert np.isclose(lq_power_integral(lam_u, r),
                              abs(lam) ** r * lq_power_integral(u, r),
                              rtol=1e-13)


def indicator_seminorm_oracle(dom, kernel, i, p):
    """Direct hand-style summation over the pair list for u = e_i."""
    total = 0.0
    for a in range(dom.n_nodes):
        for b in range(dom.n_nodes):
            if a == b:
                continue
            diff = (1.0 if a == i else 0.0) - (1.0 if b == i else 0.0)
            total += kernel.weights[a, b] * abs(diff) ** p
    for a in range(dom.n_nodes):
        val = 1.0 if a == i else 0.0
        total += 2.0 * kernel.tail[a] * abs(val) ** p
    return total


def test_seminorm_indicator_against_pairwise_oracle():
    dom, params, kernel = make_problem(8, p=2.0)
    i = np.flatnonzero(dom.interior_mask)[2]   # the third interior node
    vals = np.zeros(dom.n_interior)
    vals[2] = 1.0
    u = GridFunction(dom, vals)
    got = gagliardo_seminorm_p(u, kernel)
    oracle = indicator_seminorm_oracle(dom, kernel, i, 2.0)
    assert np.isclose(got, oracle, rtol=1e-13)
    # closed form of the same sum
    expect = 2.0 * kernel.weights[i].sum() + 2.0 * kernel.tail[i]
    assert np.isclose(got, expect, rtol=1e-13)
    # p = 2 energy of the indicator
    e = energy_functional(u, kernel)
    assert np.isclose(e, (kernel.weights[i].sum() + kernel.tail[i]) / 2.0,
                      rtol=1e-13)

    # random zero-exterior data: seminorm and gradient against dense sums
    # over the full collar table
    rng = np.random.default_rng(7)
    for dim, n_cells in ((1, 16), (2, 6)):
        dom = build_grid(dim, 0.0, 1.0, n_cells, 2.0)
        for p in (1.5, 2.0, 3.0):
            kernel = assemble_kernel(dom, 0.5, p)
            vals = rng.uniform(-1.0, 1.0, dom.n_nodes) * dom.interior_mask
            diff = vals[:, None] - vals[None, :]
            sem = (np.sum(kernel.weights * np.abs(diff) ** p)
                   + 2.0 * np.sum(kernel.tail * np.abs(vals) ** p))
            grad = (np.sum(kernel.weights * sgn_power(diff, p - 1.0), axis=1)
                    + kernel.tail * sgn_power(vals, p - 1.0))[dom.interior_mask]
            u = GridFunction(dom, vals[dom.interior_mask])
            assert np.isclose(gagliardo_seminorm_p(u, kernel), sem,
                              rtol=1e-13, atol=0.0)
            assert np.allclose(apply_frac_p_laplacian(u, kernel).values,
                               grad, rtol=1e-13, atol=1e-13 * np.abs(grad).max())
            held = ((kernel.degree, kernel.spectrum) if p == 2.0
                    else (kernel.interior, kernel.boundary))
            assert not any(arr.flags.writeable for arr in held)


def test_seminorm_zero_and_homogeneity():
    dom, params, kernel = make_problem(8, p=2.5)
    assert gagliardo_seminorm_p(zero_function(dom), kernel) == 0.0
    w, _ = smooth_pair(dom)
    base = gagliardo_seminorm_p(w, kernel)
    for lam in (0.5, -1.7):
        lam_w = GridFunction(dom, lam * w.values)
        assert np.isclose(gagliardo_seminorm_p(lam_w, kernel),
                          abs(lam) ** 2.5 * base, rtol=1e-12)
    assert np.isclose(energy_functional(w, kernel), base / 5.0, rtol=1e-14)


def test_kernel_mismatch_rejected():
    # a function on another grid than the kernel's
    _, _, kernel = make_problem(8, p=2.0)
    other = zero_function(build_grid(1, 0.0, 1.0, 16, 2.0))
    for energy in (gagliardo_seminorm_p, apply_frac_p_laplacian):
        with pytest.raises(ValueError, match="different grid"):
            energy(other, kernel)


def test_torsion_function_known_answer_1d():
    # on Omega = (-1, 1), u = (1 - x^2)_+^s satisfies
    # int (u(x) - u(y)) |x - y|^(-1-2s) dy = K inside Omega, with
    # K = Gamma(1+s) sqrt(pi) |Gamma(-s)| / Gamma(1/2) (Getoor 1961; Dyda
    # 2012): the unnormalized operator that A(u) / vol approximates at
    # p = 2.  The largest relative error on |x| < 1/2 falls under
    # refinement at order 1.3 at s = 0.25 and 1.0 at s = 0.5.  At
    # s = 0.75 it falls at order p - sp = 0.5 only, the order of the
    # own-cell integral that dropping the diagonal loses, and stays above
    # 5% (15%, 11%, 7.7%): the own-cell correction keeps that order but
    # cuts the error about 30x, so it must update this case on purpose
    p = 2.0
    for s in (0.25, 0.5, 0.75):
        k_exact = (math.gamma(1.0 + s) * math.sqrt(math.pi)
                   * abs(math.gamma(-s)) / math.gamma(0.5))
        errors = []
        for n_cells in (32, 64, 128):
            dom = build_grid(1, -1.0, 1.0, n_cells, 2.0)
            x = dom.node_coords[dom.interior_mask, 0]
            u = GridFunction(dom, (1.0 - x ** 2) ** s)
            got = apply_frac_p_laplacian(
                u, assemble_kernel(dom, s, p)).values / dom.vol
            inner = np.abs(x) < 0.5
            errors.append(float(np.max(np.abs(got[inner] - k_exact)))
                          / k_exact)
        orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        if s == 0.25:
            assert min(orders) >= 1.2, orders
        elif s == 0.5:
            assert min(orders) >= 0.9, orders
        else:
            assert all(abs(o - (p - s * p)) <= 0.1 for o in orders), orders
            assert min(errors) > 0.05, errors


def test_operator_zero_linearity_and_exterior():
    dom, params, kernel = make_problem(8, p=2.0)
    g0 = apply_frac_p_laplacian(zero_function(dom), kernel)
    assert np.all(g0.values == 0.0)
    u, v = smooth_pair(dom, 3)
    gu = apply_frac_p_laplacian(u, kernel).values
    gv = apply_frac_p_laplacian(v, kernel).values
    guv = apply_frac_p_laplacian(GridFunction(dom, u.values + v.values),
                                 kernel).values
    assert np.allclose(guv, gu + gv, rtol=1e-12, atol=1e-14)
    # the gradient is a grid function: one component per interior node
    assert gu.shape == (dom.n_interior,)


@pytest.mark.parametrize("p,q", [(1.5, 0.5), (1.5, 2.0), (2.0, 1.0),
                                 (3.0, 0.5), (3.0, 2.0)])
def test_gradients_match_finite_differences(p, q):
    dom, params, kernel = make_problem(16, p=p, q=q)
    w, phi = smooth_pair(dom, seed=11)
    uprev, _ = smooth_pair(dom, seed=12)
    eps = 1e-6
    w_plus = GridFunction(dom, w.values + eps * phi.values)
    w_minus = GridFunction(dom, w.values - eps * phi.values)

    g = apply_frac_p_laplacian(w, kernel)
    fd = (energy_functional(w_plus, kernel)
          - energy_functional(w_minus, kernel)) / (2.0 * eps)
    inner = float(g.values @ phi.values)
    assert abs(fd - inner) <= 1e-6 * max(abs(inner), 1e-12)

    rg = rothe_gradient(w, uprev, kernel, params)
    fd = (step_objective(w_plus, uprev, kernel, params)
          - step_objective(w_minus, uprev, kernel, params)) / (2.0 * eps)
    inner = float(rg.values @ phi.values)
    assert abs(fd - inner) <= 1e-6 * max(abs(inner), 1e-12)


def test_euler_identity_half_seminorm():
    # p-homogeneity: <grad energy, u> = p * energy = seminorm^p / 2
    dom, params, kernel = make_problem(12, p=2.6)
    for seed in range(5):
        w, _ = smooth_pair(dom, seed)
        lhs = float(apply_frac_p_laplacian(w, kernel).values @ w.values)
        sem = gagliardo_seminorm_p(w, kernel)
        scale = max(1.0, sem)
        assert abs(lhs - sem / 2.0) <= 1e-12 * scale


def test_step_functional_values():
    dom, params, kernel = make_problem(8)
    z = zero_function(dom)
    assert step_objective(z, z, kernel, params) == 0.0
    w, _ = smooth_pair(dom, 5)
    assert step_objective(w, z, kernel, params) > 0.0
    # w = u_prev collapses the time coupling to -(q/(q+1)) lq / h
    q, h = params.q, params.h
    val = step_objective(w, w, kernel, params)
    expect = (-(q / (q + 1.0)) / h * lq_power_integral(w, q + 1.0)
              + energy_functional(w, kernel))
    assert np.isclose(val, expect, rtol=1e-12)


def test_step_functional_convex_on_segments():
    dom, params, kernel = make_problem(12, p=1.5, q=0.5)
    uprev, _ = smooth_pair(dom, 8)
    w1, _ = smooth_pair(dom, 9)
    w2, _ = smooth_pair(dom, 10)
    scale = _tolerances(_data_energies(uprev, kernel, params), params)[0]
    f1 = step_objective(w1, uprev, kernel, params)
    f2 = step_objective(w2, uprev, kernel, params)
    for t in (0.25, 0.5, 0.75):
        mid = GridFunction(dom, t * w1.values + (1.0 - t) * w2.values)
        fmid = step_objective(mid, uprev, kernel, params)
        assert fmid <= t * f1 + (1.0 - t) * f2 + 1e-12 * scale


def test_p2_operator_monotone():
    dom, params, kernel = make_problem(12, p=2.0)
    for seed in range(5):
        u, _ = smooth_pair(dom, seed)
        v, _ = smooth_pair(dom, seed + 50)
        gu = apply_frac_p_laplacian(u, kernel).values
        gv = apply_frac_p_laplacian(v, kernel).values
        assert float((gu - gv) @ (u.values - v.values)) >= -1e-14


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("q", [1.0, 0.5])
def test_p2_laplacian_path_matches_elementwise_sums(dim, q):
    # at p = 2 every pair quantity is one product with the graph Laplacian
    # L = diag(degree) - interior; each must match the elementwise pair sums,
    # over the full collar table and through _pair_sum, to roundoff
    if dim == 1:
        dom = build_grid(1, 0.0, 1.0, 32, 2.0)
    else:
        dom = build_grid(2, (0.0, 0.0), (1.0, 1.0), 8, 2.0)
    params = FlowParams(q=q, h=0.01, t_end=0.01)
    kernel = assemble_kernel(dom, 0.5, 2.0)
    vol_h = dom.vol / params.h
    mask = dom.interior_mask
    ws = _StepWorkspace(kernel, params, params.solver_tol)
    assert ws.buf is None
    rtol = 1e-13
    for seed in range(3):
        u = eval_preset(dom, "random", 1.0, seed=seed)
        vals, x = on_collar(dom, u.values), u.values
        diff = np.subtract.outer(vals, vals)
        pair = (np.sum(kernel.weights * diff ** 2)
                + 2.0 * np.sum(kernel.tail * vals ** 2))
        elementwise = _pair_sum(x, x, *dense_interior(kernel), 2.0)
        assert elementwise == pytest.approx(pair, rel=rtol, abs=0.0)
        assert gagliardo_seminorm_p(u, kernel) == pytest.approx(
            elementwise, rel=rtol, abs=0.0)
        grad = (np.sum(kernel.weights * diff, axis=1)
                + kernel.tail * vals)[mask]
        atol = rtol * np.abs(grad).max()
        np.testing.assert_allclose(apply_frac_p_laplacian(u, kernel).values,
                                   grad, rtol=0.0, atol=atol)

        x_prev = eval_preset(dom, "random", 1.0, seed=seed + 10).values
        vprev = sgn_power(x_prev, q)
        time_part = vol_h * np.sum(np.abs(x) ** (q + 1.0) / (q + 1.0) - vprev * x)
        assert interior_step_objective(x, vprev, kernel, params,
                                       vol_h) == pytest.approx(
            time_part + elementwise / 4.0, rel=rtol, abs=0.0)
        step_grad = vol_h * (sgn_power(x, q) - vprev) + grad
        np.testing.assert_allclose(
            _step_gradient(x, vprev, kernel, params, vol_h), step_grad,
            rtol=0.0, atol=rtol * np.abs(step_grad).max())

        # the ray minimizer from u_prev = x solves
        # vol_h S1 (tau^q - 1) + tau P / 2 = 0, P the elementwise pair sum
        s1 = np.sum(np.abs(x) ** (q + 1.0))
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if vol_h * s1 * (mid ** q - 1.0) + mid * elementwise / 2.0 < 0.0:
                lo = mid
            else:
                hi = mid
        tau = _ray_start(ws, x)
        assert tau == pytest.approx(0.5 * (lo + hi), rel=rtol, abs=0.0)


def test_scan_constants_alpha2_exact():
    for c in (scan_oracle(2.0), alg_constants(2.0)):
        assert c.c1 == 1.0 and c.c2 == 1.0


def test_scan_constants_alpha3_hand_pair():
    # (xi, eta) = (1, -1): lower-ratio = 4 / 8 = 0.5, so c2 <= 0.5
    r1, r2 = alg_ratios(np.array([1.0]), np.array([-1.0]), 3.0)
    assert np.isclose(r2[0], 0.5, rtol=1e-15)
    c = scan_oracle(3.0)
    assert c.c2 <= 0.5 + 1e-14
    assert np.isclose(c.c2, 0.5, rtol=1e-12)
    c = alg_constants(3.0)
    assert (c.c1, c.c2) == (1.0, 0.5)


def test_closed_form_constants_match_scan():
    # the three regimes (1,2), (2,3), (3,inf) and both crossovers
    for alpha in (1.01, 1.3, 1.5, 1.8, 2.0, 2.5, 3.0, 4.0, 6.0):
        closed, scan = alg_constants(alpha), scan_oracle(alpha)
        assert closed.c1 == pytest.approx(scan.c1, rel=1e-13, abs=0.0)
        assert closed.c2 == pytest.approx(scan.c2, rel=1e-13, abs=0.0)


def test_scan_constants_validate_on_random_pairs():
    rng = np.random.default_rng(123)
    for alpha in (1.5, 2.5, 4.0):
        xi = rng.uniform(-3.0, 3.0, 10 ** 5)
        eta = rng.uniform(-3.0, 3.0, 10 ** 5)
        keep = (xi != eta) & (np.abs(xi) + np.abs(eta) > 0.0)
        r1, r2 = alg_ratios(xi[keep], eta[keep], alpha)
        for c in (scan_oracle(alpha), alg_constants(alpha)):
            # 1e-9 relative allowance for cancellation noise of near-equal pairs
            assert np.all(r1 <= c.c1 * (1.0 + 1e-9))
            assert np.all(r2 >= c.c2 * (1.0 - 1e-9))


def test_scan_rejects_bad_alpha():
    for constants in (scan_alg_constants, alg_constants):
        with pytest.raises(ValueError):
            constants(1.0)
