import numpy as np
import pytest

from fracflow import (FlowParams, GridFunction, apply_frac_p_laplacian,
                      assemble_kernel, build_grid, eval_preset,
                      gagliardo_seminorm_p, minimize_step, reconstruct,
                      rothe_functional, rothe_gradient, run_flow, truncate,
                      zero_function, NonConvergence)
from fracflow.energy import _step_objective, scale_for, sgn_power
from fracflow.rothe import (RECONSTRUCTION_KINDS, NonFiniteData,
                            _StepWorkspace, _ray_start)


def make_problem(n_cells=16, s=0.5, p=2.0, q=1.0, h=0.01, t_end=0.1, **kw):
    dom = build_grid(1, 0.0, 1.0, n_cells, 2.0)
    params = FlowParams(s=s, p=p, q=q, h=h, t_end=t_end, **kw)
    return dom, params, assemble_kernel(dom, params)


def test_zero_start_short_circuits():
    dom, params, kernel = make_problem()
    u, diag = minimize_step(zero_function(dom), kernel, params)
    assert np.all(u.values == 0.0)
    assert diag.iterations == 0


def test_step_decreases_objective():
    dom, params, kernel = make_problem(p=2.5, q=1.5)
    u_prev = eval_preset(dom, "bump", 1.0)
    u, diag = minimize_step(u_prev, kernel, params)
    assert (rothe_functional(u, u_prev, kernel, params)
            <= rothe_functional(u_prev, u_prev, kernel, params))
    scale = scale_for(u_prev, kernel, params)
    assert diag.grad_norm <= params.solver_tol * scale
    assert rothe_gradient(u, u_prev, kernel, params).linf() <= params.solver_tol * scale


def test_three_node_linear_solve_oracle():
    # p=2, q=1: the step equation is linear; compare with a dense solve
    dom = build_grid(1, 0.0, 1.0, 3, 1.0)
    params = FlowParams(s=0.5, p=2.0, q=1.0, h=0.05, t_end=0.1)
    kernel = assemble_kernel(dom, params)
    rng = np.random.default_rng(0)
    n = dom.n_nodes
    a_mat = np.zeros((n, n))
    for i in range(n):
        a_mat[i, i] = kernel.weights[i].sum() + kernel.tail[i]
        for j in range(n):
            if j != i:
                a_mat[i, j] = -kernel.weights[i, j]
    lhs = (dom.vol / params.h) * np.eye(n) + a_mat
    for _ in range(5):
        u_prev = GridFunction(dom, rng.uniform(-1.0, 1.0, n))
        direct = np.linalg.solve(lhs, (dom.vol / params.h) * u_prev.values)
        u, _ = minimize_step(u_prev, kernel, params)
        rel = np.linalg.norm(u.values - direct) / np.linalg.norm(direct)
        assert rel <= 1e-8


def test_minimize_step_explicit_scale():
    # a supplied run scale controls the stopping rule
    dom, params, kernel = make_problem()
    u_prev = eval_preset(dom, "bump", 1.0)
    u, diag = minimize_step(u_prev, kernel, params, scale=100.0)
    assert diag.grad_norm <= params.solver_tol * 100.0


def test_nonconvergence_carries_diagnostics():
    dom, params, kernel = make_problem(p=1.5, q=0.5, solver_max_iter=1)
    u_prev = eval_preset(dom, "step", 1.0)
    with pytest.raises(NonConvergence) as err:
        minimize_step(u_prev, kernel, params)
    assert err.value.iterations == 1
    assert err.value.grad_norm > 0.0


def test_flow_counts_and_zero_data():
    dom, params, kernel = make_problem(h=0.03, t_end=0.1)
    traj = run_flow(zero_function(dom), kernel, params)
    assert traj.n_steps == 4  # ceil(0.1 / 0.03)
    assert len(traj.steps) == 5
    assert all(np.all(u.values == 0.0) for u in traj.steps)

    traj = run_flow(eval_preset(dom, "bump", 1.0), kernel, params)
    assert traj.n_steps == 4 and traj.converged()


def test_flow_propagates_failure_step_index():
    dom, params, kernel = make_problem(p=1.5, q=0.5, solver_max_iter=1)
    with pytest.raises(NonConvergence) as err:
        run_flow(eval_preset(dom, "step", 1.0), kernel, params)
    assert err.value.step_index == 1


@pytest.mark.parametrize("p,q", [(2.0, 1.0), (1.5, 0.5), (3.0, 2.0)])
def test_gradient_fallback_converges(monkeypatch, p, q):
    # when the Newton solve fails the step falls back to -g under the same
    # line search; force that on every iteration
    monkeypatch.setattr(_StepWorkspace, "newton_direction",
                        lambda self, x, g: None)
    dom, params, kernel = make_problem(p=p, q=q)
    traj = run_flow(eval_preset(dom, "bump", 1.0), kernel, params)
    assert traj.converged()
    for diag in traj.diagnostics:
        assert diag.iterations > 0
        assert diag.fallbacks == diag.iterations


def test_newton_past_800_interior_nodes():
    # 2D, 1024 interior nodes: Newton runs at this size too, so the
    # degenerate p<2 step converges in a handful of iterations and the
    # linear p=2, q=1 step is solved in one
    dom = build_grid(2, (0.0, 0.0), (1.0, 1.0), 32, 1.5)
    assert int(dom.interior_mask.sum()) == 1024
    u0 = eval_preset(dom, "bump", 1.0)
    for p, q, n_steps, max_iters in ((1.5, 0.5, 1, 20), (2.0, 1.0, 3, 1)):
        params = FlowParams(s=0.5, p=p, q=q, h=0.01, t_end=0.01 * n_steps,
                            solver_max_iter=100)
        traj = run_flow(u0, assemble_kernel(dom, params), params)
        assert traj.n_steps == n_steps and traj.converged()
        for diag in traj.diagnostics:
            assert 1 <= diag.iterations <= max_iters
            assert diag.fallbacks == 0


def test_ground_state_step_is_the_ray_start():
    # p=2, q=1: a lowest eigenvector v of the operator, A v = lam vol v,
    # steps exactly to v / (1 + lam h), which lies on the ray tau * v
    dom, params, kernel = make_problem(p=2.0, q=1.0)
    interior = np.flatnonzero(dom.interior_mask)
    a_mat = np.empty((interior.size, interior.size))
    for col, node in enumerate(interior):
        e = np.zeros(dom.n_nodes)
        e[node] = 1.0
        a_mat[:, col] = apply_frac_p_laplacian(
            GridFunction(dom, e), kernel, 2.0).values[interior]
    mu, vecs = np.linalg.eigh(a_mat)
    lam = mu[0] / dom.vol
    v = np.zeros(dom.n_nodes)
    v[interior] = vecs[:, 0]
    u, diag = minimize_step(GridFunction(dom, v), kernel, params)
    assert diag.iterations == 0
    assert abs(diag.ray_tau - 1.0 / (1.0 + lam * params.h)) <= 1e-12
    np.testing.assert_allclose(u.values, v / (1.0 + lam * params.h),
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("p,q", [(1.5, 2.0), (2.0, 0.5), (3.0, 1.0)])
def test_ray_start_closed_form_objective(dim, p, q):
    # the start objective comes from the two ray sums, not from a second
    # objective evaluation; it must equal the objective at tau * x0, lie
    # at or below the objective at x0, and tau must minimize along the ray
    # (h = 1e6 drives tau far below 1, as on an extinction step)
    if dim == 1:
        dom = build_grid(1, 0.0, 1.0, 16, 2.0)
    else:
        dom = build_grid(2, (0.0, 0.0), (1.0, 1.0), 6, 2.0)
    for h in (0.01, 1e6):
        params = FlowParams(s=0.5, p=p, q=q, h=h, t_end=h)
        kernel = assemble_kernel(dom, params)
        ws = _StepWorkspace(dom, kernel, params)
        for seed in range(3):
            x0 = eval_preset(dom, "random", 1.0, seed=seed).interior_values()
            vprev = sgn_power(x0, q)
            tau, f = _ray_start(ws, x0)
            assert 0.0 < tau < 1.0
            assert f == pytest.approx(_step_objective(
                tau * x0, vprev, kernel, params, ws.vol_h), rel=1e-12)
            assert f <= ws.objective(x0, vprev)
            for t in (tau * (1.0 - 1e-6), tau * (1.0 + 1e-6)):
                assert ws.objective(t * x0, vprev) >= f
            if h > 1.0:
                assert tau < 1e-3


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_overflowing_data_fails_before_the_first_step(monkeypatch):
    # the p=3 seminorm of amplitude-1e120 data is inf: no step may run
    dom, params, kernel = make_problem(p=3.0)
    monkeypatch.setattr("fracflow.rothe._solve_step", None)
    with pytest.raises(NonFiniteData, match="overflow"):
        run_flow(eval_preset(dom, "bump", 1e120), kernel, params)


def test_solver_objective_history_monotone():
    dom, params, kernel = make_problem(p=1.5, q=0.5)
    u0 = eval_preset(dom, "step", 1.0)
    traj = run_flow(u0, kernel, params, keep_history=True)
    slack = 1e-12 * traj.scale
    for diag in traj.diagnostics:
        hist = np.array(diag.f_history)
        assert np.all(np.diff(hist) <= slack)


def test_determinism_bitwise():
    dom, params, kernel = make_problem(p=2.5, q=0.5)
    u0 = eval_preset(dom, "random", 1.0, seed=4)
    a = run_flow(u0, kernel, params)
    b = run_flow(u0, kernel, params)
    for ua, ub in zip(a.steps, b.steps):
        assert np.array_equal(ua.values, ub.values)


def test_reconstruction_knots_and_midpoints():
    dom, params, kernel = make_problem(q=1.7)
    u0 = eval_preset(dom, "bump", 1.0)
    traj = run_flow(u0, kernel, params)
    h, q = params.h, params.q
    for m in (0, 1, traj.n_steps):
        t = m * h
        um = traj.steps[m].values
        assert np.array_equal(reconstruct(traj, "u_lin", t).values, um)
        assert np.array_equal(reconstruct(traj, "bar_u", t).values, um)
        assert np.array_equal(reconstruct(traj, "bar_v", t).values,
                              sgn_power(um, q))
        assert np.array_equal(reconstruct(traj, "bar_w", t).values,
                              sgn_power(um, (q + 1.0) / 2.0))
    mid = 1.5 * h
    expect = 0.5 * (traj.steps[1].values + traj.steps[2].values)
    assert np.allclose(reconstruct(traj, "u_lin", mid).values, expect,
                       rtol=1e-12, atol=1e-15)
    with pytest.raises(ValueError):
        reconstruct(traj, "u_lin", -0.01)
    with pytest.raises(ValueError):
        reconstruct(traj, "u_lin", params.t_end + 10 * h)
    with pytest.raises(ValueError):
        reconstruct(traj, "nope", 0.0)


def test_interpolation_elementary_bounds():
    """Step/linear reconstructions obey the four pointwise comparisons."""
    dom, params, kernel = make_problem(q=0.8, h=0.02, t_end=0.1)
    u0 = eval_preset(dom, "random", 1.0, seed=9)
    traj = run_flow(u0, kernel, params)
    h, q = params.h, params.q
    rng = np.random.default_rng(2)
    kinds = (("bar_u", "u_lin", 1.0), ("bar_v", "v_lin", q),
             ("bar_w", "w_lin", (q + 1.0) / 2.0))
    tol = 1e-12
    for m in range(1, traj.n_steps + 1):
        for t in rng.uniform((m - 1) * h, m * h, size=10):
            theta_r = (m * h - t) / h
            for bar_kind, lin_kind, e in kinds:
                fm = sgn_power(traj.steps[m].values, e)
                fprev = sgn_power(traj.steps[m - 1].values, e)
                bar = reconstruct(traj, bar_kind, t).values
                lin = reconstruct(traj, lin_kind, t).values
                # convex-combination bound
                assert np.all(np.abs(lin) <= (1 - theta_r) * np.abs(fm)
                              + theta_r * np.abs(fprev) + tol)
                # gap to the step function, local and history forms
                assert np.all(np.abs(bar - lin)
                              <= theta_r * np.abs(fm - fprev) + tol)
                bar_lag = (sgn_power(traj.steps[m - 1].values, e) if t - h <= 0
                           else reconstruct(traj, bar_kind, t - h).values)
                assert np.all(np.abs(lin) <= np.abs(bar) + np.abs(bar_lag) + tol)
                assert np.all(np.abs(bar - lin) <= np.abs(bar - bar_lag) + tol)


def test_near_unit_p_converges_on_symmetric_data():
    # p close to 1: the minimizer of symmetric data holds exactly equal
    # pairs; the cluster-snap refinement is what makes the tolerance
    # reachable here
    dom, params, kernel = make_problem(s=0.9, p=1.2, q=0.3, h=0.01,
                                       t_end=0.03)
    traj = run_flow(eval_preset(dom, "bump", 1.0), kernel, params)
    assert traj.converged()


def test_truncate_values():
    dom, params, kernel = make_problem(4)
    i = np.flatnonzero(dom.interior_mask)
    vals = np.zeros(dom.n_nodes)
    vals[i[0]], vals[i[1]], vals[i[2]] = 0.1, 3.0, -1.0
    u = GridFunction(dom, vals)
    plus = truncate(u, "+", 2)
    assert plus[i[0]] == 0.5    # clamped up to 1/ell
    assert plus[i[1]] == 2.0    # clamped down to ell
    assert plus[i[2]] == 0.5    # negative part removed, then clamped
    assert np.all(plus[~dom.interior_mask] == 0.5)
    minus = truncate(u, "-", 2)
    assert minus[i[2]] == 1.0
    assert minus[i[1]] == 0.5
    with pytest.raises(ValueError):
        truncate(u, "+", 1)
    with pytest.raises(ValueError):
        truncate(u, "x", 2)
