import tracemalloc

import numpy as np
import pytest

from fracflow import (FlowParams, GridFunction, apply_frac_p_laplacian,
                      assemble_kernel, build_grid, eval_preset,
                      gagliardo_seminorm_p, minimize_step, reconstruct,
                      rothe_gradient, run_flow, truncate, NonConvergence)
from fracflow.energy import (_data_energies, _tolerances, lq_power_integral,
                             sgn_power)
from fracflow import rothe
from fracflow.rothe import (NonFiniteData, _StepWorkspace, _ray_start,
                            _snap_clusters, _solve_step)
from oracles import (dense_interior, interior_step_objective,
                     snap_clusters_loop, step_objective, zero_function)


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
    assert (step_objective(u, u_prev, kernel, params)
            <= step_objective(u_prev, u_prev, kernel, params))
    tol_abs = _tolerances(_data_energies(u_prev, kernel, params), params)[1]
    assert diag.grad_norm <= tol_abs
    assert rothe_gradient(u, u_prev, kernel, params).linf() <= tol_abs


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


def test_nonconvergence_carries_diagnostics():
    # the error carries the failing step's partial diagnostics; CG
    # iterations are counted for p >= 2 only
    for p, q in ((1.5, 0.5), (3.0, 2.0)):
        dom, params, kernel = make_problem(p=p, q=q, solver_max_iter=1)
        u_prev = eval_preset(dom, "step", 1.0)
        with pytest.raises(NonConvergence) as err:
            minimize_step(u_prev, kernel, params)
        assert err.value.iterations == 1
        assert err.value.grad_norm > 0.0
        diag = err.value.diagnostics
        assert (diag.iterations, diag.grad_norm) == (1, err.value.grad_norm)
        assert diag.fallbacks == 0 and 0.0 < diag.ray_tau <= 1.0
        assert (diag.linear_iters > 0) == (p >= 2.0)


def test_flow_counts_and_zero_data():
    dom, params, kernel = make_problem(h=0.03, t_end=0.1)
    traj = run_flow(zero_function(dom), kernel, params)
    assert traj.n_steps == 4  # ceil(0.1 / 0.03)
    assert traj.u.shape == (5, dom.n_interior)
    assert np.all(traj.u == 0.0)

    traj = run_flow(eval_preset(dom, "bump", 1.0), kernel, params)
    assert traj.n_steps == 4


def test_flow_propagates_failure_step_index():
    dom, params, kernel = make_problem(p=1.5, q=0.5, solver_max_iter=1)
    with pytest.raises(NonConvergence) as err:
        run_flow(eval_preset(dom, "step", 1.0), kernel, params)
    assert err.value.step_index == 1
    assert str(err.value).startswith(
        "step solver did not reach tolerance at step 1: 1 iterations")
    diag = err.value.diagnostics
    assert diag.iterations == 1 and diag.grad_norm == err.value.grad_norm
    assert diag.linear_iters == 0


def test_failed_line_search_raises_after_one_search(monkeypatch):
    # each iteration runs one backtracking search along its direction: when
    # no trial lowers the gradient norm, the step fails after that search's
    # 60 halvings (1 + 60 gradient calls), with no second search
    calls = []
    gradient = _StepWorkspace.gradient

    def spy(self, x, vprev):
        calls.append(x)
        g = gradient(self, x, vprev)
        return g if len(calls) == 1 else np.full_like(g, np.inf)

    monkeypatch.setattr(_StepWorkspace, "gradient", spy)
    dom, params, kernel = make_problem()
    with pytest.raises(NonConvergence) as err:
        minimize_step(eval_preset(dom, "bump", 1.0), kernel, params)
    assert err.value.iterations == 1
    assert err.value.diagnostics.backtracks == 60
    assert len(calls) == 61


_AT_32 = dict(n_cells=32, solver_max_iter=500)


@pytest.mark.parametrize("p,q,size", [
    pytest.param(2.0, 1.0, {}, id="2.0-1.0"),
    pytest.param(1.5, 0.5, {}, id="1.5-0.5"),
    pytest.param(3.0, 2.0, {}, id="3.0-2.0"),
    pytest.param(2.0, 1.0, _AT_32, id="2.0-1.0-32cells"),
    pytest.param(1.5, 0.5, _AT_32, id="1.5-0.5-32cells",
                 marks=pytest.mark.xfail(
                     strict=True, raises=NonConvergence,
                     reason="ROADMAP items 4 and 12: the -g fallback stalls "
                     "at (1.5, 0.5) from 32 cells on; 16 cells pass by luck")),
    pytest.param(3.0, 2.0, _AT_32, id="3.0-2.0-32cells"),
])
def test_gradient_fallback_converges(monkeypatch, p, q, size):
    # when the Newton solve fails the step falls back to -g under the same
    # line search; force that on every iteration
    monkeypatch.setattr(_StepWorkspace, "newton_direction",
                        lambda self, x, g: None)
    dom, params, kernel = make_problem(p=p, q=q, **size)
    traj = run_flow(eval_preset(dom, "bump", 1.0), kernel, params)
    for diag in traj.diagnostics:
        assert diag.iterations > 0
        assert diag.fallbacks == diag.iterations


def test_newton_past_800_interior_nodes(monkeypatch):
    # 2D, 1024 interior nodes: Newton runs at this size too, so the
    # degenerate p<2 step converges in a handful of iterations and the
    # linear p=2, q=1 step is solved in one.  For p >= 2 the Newton
    # directions come from CG, with no dense solve; p < 2 keeps the LU solve
    dom = build_grid(2, (0.0, 0.0), (1.0, 1.0), 32, 1.5)
    assert int(dom.interior_mask.sum()) == 1024
    u0 = eval_preset(dom, "bump", 1.0)
    lu = np.linalg.solve
    solves = []

    def spy(a, b):
        solves.append(a.shape)
        return lu(a, b)

    def refuse(a, b):
        raise AssertionError("dense solve for p >= 2")

    for p, q, n_steps, max_iters in ((1.5, 0.5, 1, 20), (2.0, 1.0, 3, 1),
                                     (3.0, 2.0, 2, 5), (2.0, 0.5, 2, 4)):
        monkeypatch.setattr(np.linalg, "solve", spy if p < 2.0 else refuse)
        solves.clear()
        params = FlowParams(s=0.5, p=p, q=q, h=0.01, t_end=0.01 * n_steps,
                            solver_max_iter=100)
        traj = run_flow(u0, assemble_kernel(dom, params), params)
        assert traj.n_steps == n_steps
        for diag in traj.diagnostics:
            assert 1 <= diag.iterations <= max_iters
            assert diag.fallbacks == 0
            assert (diag.linear_iters > 0) == (p >= 2.0)
        if p < 2.0:
            assert solves == [(1024, 1024)] * sum(
                d.iterations for d in traj.diagnostics)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("p,q", [(2.0, 1.0), (3.0, 2.0), (2.0, 0.5)])
def test_cg_direction_meets_its_residual_target(dim, p, q):
    # for p >= 2 the Newton direction is an inexact CG solve of the model
    # H d = -g: its residual is within a quarter of the stopping tolerance
    # and it is a descent direction.  H is rebuilt here from its definition,
    # the Hessian of the step objective (random data has no equal pairs and
    # no zero nodes, so the clamp is inactive)
    if dim == 1:
        dom = build_grid(1, 0.0, 1.0, 32, 2.0)
    else:
        dom = build_grid(2, (0.0, 0.0), (1.0, 1.0), 8, 2.0)
    params = FlowParams(s=0.5, p=p, q=q, h=0.01, t_end=0.01)
    kernel = assemble_kernel(dom, params)
    interior, boundary = dense_interior(kernel)
    for seed in range(3):
        u0 = eval_preset(dom, "random", 1.0, seed=seed)
        tol_abs = _tolerances(_data_energies(u0, kernel, params), params)[1]
        ws = _StepWorkspace(kernel, params, tol_abs)
        x0 = u0.values
        x = 0.5 * x0
        g = ws.gradient(x, sgn_power(x0, q))
        assert np.max(np.abs(g)) > 1e3 * tol_abs
        d = ws.newton_direction(x, g)
        assert ws.linear_iters > 0
        w = interior * np.abs(np.subtract.outer(x, x)) ** (p - 2.0)
        np.fill_diagonal(w, 0.0)
        hess = -(p - 1.0) * w
        hess[np.diag_indices_from(hess)] = (
            (p - 1.0) * (w.sum(axis=1) + boundary * np.abs(x) ** (p - 2.0))
            + ws.vol_h * q * np.abs(x) ** (q - 1.0))
        assert np.max(np.abs(hess @ d + g)) <= tol_abs / 4.0
        assert d @ g < 0.0


def test_p2_step_forms_no_pair_matrix():
    # at p = 2 the objective, the gradient and the Newton model are products
    # with the interior block: a whole step solve, workspace included, peaks
    # below one (n, n) array; at p = 3 the workspace array alone reaches it
    dom = build_grid(2, (0.0, 0.0), (1.0, 1.0), 16, 2.0)
    n = dom.n_interior
    u_prev = eval_preset(dom, "random", 1.0, seed=0)
    for p, q in ((2.0, 0.5), (3.0, 0.5)):
        params = FlowParams(s=0.5, p=p, q=q, h=0.01, t_end=0.01)
        kernel = assemble_kernel(dom, params)
        tol_abs = _tolerances(_data_energies(u_prev, kernel, params),
                              params)[1]
        tracemalloc.start()
        try:
            ws = _StepWorkspace(kernel, params, tol_abs)
            _, diag = _solve_step(ws, u_prev.values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diag.iterations > 1 and diag.linear_iters > 0
        assert (peak < n * n * 8) == (p == 2.0), (p, peak, n * n * 8)


def _parse_step_calls(events, x_final):
    """Counters of one step solve from the sequence of its Newton-direction
    ("n"), gradient ("g") and non-None cluster-snap ("s") calls.  The ray
    start is one g, and each iteration is n g+ [s g]: every line-search
    trial is one gradient call, so each g after the first of a run is one
    halving, and a snap is followed by one gradient call at the snapped
    point.  The snap was accepted when the next iterate (the point of the
    next n, or the step's result) is the snapped point."""
    letters = "".join(e[0] for e in events)
    assert letters[0] == "g"        # the gradient at the ray start
    iterates = [x for letter, x in events if letter == "n"] + [x_final]
    assert np.array_equal(iterates[0], events[0][1])
    pos, it, backtracks, snaps = 1, 0, 0, 0
    while pos < len(letters):
        assert letters[pos] == "n"
        it += 1
        pos += 1
        run = len(letters[pos:]) - len(letters[pos:].lstrip("g"))
        assert run >= 1
        backtracks += run - 1
        pos += run
        if letters[pos:pos + 1] == "s":
            snapped = events[pos][1]
            assert letters[pos + 1] == "g"
            assert np.array_equal(events[pos + 1][1], snapped)
            snaps += np.array_equal(iterates[it], snapped)
            pos += 2
    return it, backtracks, snaps


@pytest.mark.parametrize("s,p,q,preset,seed,step", [
    (0.5, 1.5, 2.0, "random", 3, 6),    # backtracks
    (0.9, 1.2, 0.3, "bump", 0, 4),      # ... and takes a cluster snap
])
def test_step_counters_match_the_call_sequence(monkeypatch, s, p, q, preset,
                                               seed, step):
    # on every step of the run, backtracks and snaps are read back from the
    # sequence of Newton-direction, gradient and snap calls of its solve
    dom, params, kernel = make_problem(s=s, p=p, q=q, t_end=0.01 * step)
    traj = run_flow(eval_preset(dom, preset, 1.0, seed=seed), kernel, params)
    assert traj.n_steps == step

    events = []
    ws = _StepWorkspace(kernel, params, traj.tol_abs)
    newton, gradient, snap = (ws.newton_direction, ws.gradient,
                              rothe._snap_clusters)

    def spy_newton(x, g):
        events.append(("n", x.copy()))
        return newton(x, g)

    def spy_gradient(x, vprev):
        events.append(("g", x.copy()))
        return gradient(x, vprev)

    def spy_snap(x):
        out = snap(x)
        if out is not None:
            events.append(("s", out.copy()))
        return out

    ws.newton_direction, ws.gradient = spy_newton, spy_gradient
    monkeypatch.setattr(rothe, "_snap_clusters", spy_snap)
    for prev, diag in zip(traj.u, traj.diagnostics):
        events.clear()
        x, again = _solve_step(ws, prev)
        assert again == diag
        assert _parse_step_calls(events, x) == (
            diag.iterations, diag.backtracks, diag.snaps)
    assert sum(d.backtracks for d in traj.diagnostics) > 0
    assert any(d.snaps for d in traj.diagnostics) == (p < 1.5)


def test_ground_state_step_is_the_ray_start():
    # p=2, q=1: a lowest eigenvector v of the operator, A v = lam vol v,
    # steps exactly to v / (1 + lam h), which lies on the ray tau * v
    dom, params, kernel = make_problem(p=2.0, q=1.0)
    n = dom.n_interior
    a_mat = np.empty((n, n))
    for col, e in enumerate(np.eye(n)):
        a_mat[:, col] = apply_frac_p_laplacian(
            GridFunction(dom, e), kernel).values
    mu, vecs = np.linalg.eigh(a_mat)
    lam = mu[0] / dom.vol
    v = vecs[:, 0]
    u, diag = minimize_step(GridFunction(dom, v), kernel, params)
    assert diag.iterations == 0
    assert abs(diag.ray_tau - 1.0 / (1.0 + lam * params.h)) <= 1e-12
    np.testing.assert_allclose(u.values, v / (1.0 + lam * params.h),
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("p,q", [(1.5, 2.0), (2.0, 0.5), (3.0, 1.0)])
def test_ray_start_closed_form_objective(dim, p, q):
    # tau comes from the closed form of the objective along the ray; it
    # must minimize the step objective there: no lower value just off tau
    # or at tau = 1 (h = 1e6 drives tau far below 1, as on an extinction
    # step)
    if dim == 1:
        dom = build_grid(1, 0.0, 1.0, 16, 2.0)
    else:
        dom = build_grid(2, (0.0, 0.0), (1.0, 1.0), 6, 2.0)
    for h in (0.01, 1e6):
        params = FlowParams(s=0.5, p=p, q=q, h=h, t_end=h)
        kernel = assemble_kernel(dom, params)
        ws = _StepWorkspace(kernel, params, params.solver_tol)
        for seed in range(3):
            u_prev = eval_preset(dom, "random", 1.0, seed=seed)
            tau = _ray_start(ws, u_prev.values)
            assert 0.0 < tau < 1.0

            def along_ray(t):
                w = GridFunction(dom, t * u_prev.values)
                return step_objective(w, u_prev, kernel, params)

            f = along_ray(tau)
            assert f <= along_ray(1.0)
            for t in (tau * (1.0 - 1e-6), tau * (1.0 + 1e-6)):
                assert along_ray(t) >= f
            if h > 1.0:
                assert tau < 1e-3


def test_extinguishing_flow_keeps_decaying_below_underflow():
    # p - 1 < q: the sup falls by tens of orders of magnitude per step near
    # extinction.  Once sum |u|^(q+1) of the raw values underflows, the ray
    # start must still find tau < 1, so the sup never stalls while positive
    dom, params, kernel = make_problem(n_cells=32, p=1.5, q=2.0, t_end=0.5)
    traj = run_flow(eval_preset(dom, "random", 1.0, seed=7), kernel, params)
    assert traj.linf[-1] == 0.0
    for prev, cur in zip(traj.linf, traj.linf[1:]):
        if prev > 0.0:
            assert cur < prev


@pytest.mark.filterwarnings("error")
def test_overflowing_data_fails_before_the_first_step(monkeypatch):
    # the p=3 seminorm of amplitude-1e120 data is inf: no step may run
    dom, params, kernel = make_problem(p=3.0)
    monkeypatch.setattr("fracflow.rothe._solve_step", None)
    with pytest.raises(NonFiniteData, match="overflow"):
        run_flow(eval_preset(dom, "bump", 1e120), kernel, params)


@pytest.mark.filterwarnings("error")
def test_minimize_step_refuses_overflowing_data():
    # with no scale given, a step takes the scale of its data as run_flow
    # does, and data whose energies overflow are refused the same way: an
    # inf scale would pass any gradient, and the step return u_prev unsolved
    dom, params, kernel = make_problem()
    with pytest.raises(NonFiniteData, match="overflow"):
        minimize_step(eval_preset(dom, "bump", 1e160), kernel, params)


def test_solver_objective_history_monotone(monkeypatch):
    # the Newton direction is formed once per iteration, at the current
    # iterate: record the iterates there and re-evaluate the objective
    iterates = []
    newton = _StepWorkspace.newton_direction

    def spy(self, x, g):
        iterates.append(x.copy())
        return newton(self, x, g)

    monkeypatch.setattr(_StepWorkspace, "newton_direction", spy)
    dom, params, kernel = make_problem(p=1.5, q=0.5)
    u0 = eval_preset(dom, "step", 1.0)
    traj = run_flow(u0, kernel, params)
    assert len(iterates) == sum(d.iterations for d in traj.diagnostics) > 0
    slack = 1e-12 * traj.scale
    vol_h = dom.vol / params.h
    start = 0
    for m, diag in enumerate(traj.diagnostics, 1):
        xs = iterates[start:start + diag.iterations]
        xs.append(traj.u[m])
        start += diag.iterations
        vprev = sgn_power(traj.u[m - 1], params.q)
        hist = np.array([interior_step_objective(x, vprev, kernel, params,
                                                 vol_h)
                         for x in xs])
        assert np.all(np.diff(hist) <= slack)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_gradient_norm_falls_at_every_accepted_iterate(monkeypatch, p):
    # the accept rule is backtracking on the gradient 2-norm: from the ray
    # start to the step's result, each accepted iterate (recorded where its
    # Newton direction is formed) has a smaller gradient 2-norm than the
    # one before it
    norms = []
    newton = _StepWorkspace.newton_direction

    def spy(self, x, g):
        norms.append(float(np.linalg.norm(g)))
        return newton(self, x, g)

    monkeypatch.setattr(_StepWorkspace, "newton_direction", spy)
    dom, params, kernel = make_problem(p=p, q=0.5)
    traj = run_flow(eval_preset(dom, "random", 1.0, seed=3), kernel, params)
    assert len(norms) == sum(d.iterations for d in traj.diagnostics)
    assert max(d.iterations for d in traj.diagnostics) > 1
    start = 0
    for m, diag in enumerate(traj.diagnostics, 1):
        hist = norms[start:start + diag.iterations]
        start += diag.iterations
        final = rothe_gradient(GridFunction(dom, traj.u[m]),
                               GridFunction(dom, traj.u[m - 1]), kernel, params)
        hist.append(float(np.linalg.norm(final.values)))
        assert np.all(np.diff(hist) < 0.0), (m, hist)


def test_snap_clusters_matches_the_loop_oracle():
    # the vectorized snap sets each run of close sorted values to its mean,
    # as the loop over the gaps does, for clusters of one to hundreds of
    # values, tiny values that snap to zero, and no clusters.  The group
    # sums add in another order than ``mean`` (a run is one sign), so each
    # of the two means of k values is within (k - 1) eps / 2 of the exact
    # one, plus the rounding of the division
    rng = np.random.default_rng(5)
    eps = np.finfo(float).eps
    snapped = 0
    for n in (1, 2, 31, 256):
        for n_centers in sorted({1, max(1, n // 16), max(1, n // 2), n}):
            for _ in range(5):
                centers = (rng.standard_normal(n_centers)
                           * 10.0 ** float(rng.integers(-3, 4)))
                x = rng.choice(centers, n) * (1.0 + eps * rng.integers(-4, 5, n))
                x[rng.random(n) < 0.1] *= 1e-17
                fast, loop = _snap_clusters(x), snap_clusters_loop(x)
                assert (fast is None) == (loop is None)
                if fast is not None:
                    snapped += 1
                    np.testing.assert_allclose(fast, loop, rtol=n * eps,
                                               atol=0.0)
    assert snapped > 0
    distinct = np.linspace(-1.0, 1.0, 40) + 0.01
    assert _snap_clusters(distinct) is None
    assert snap_clusters_loop(distinct) is None


def test_trajectory_series_match_direct_evaluation():
    # the series are built lazily from the same functions on the same arrays
    dom, params, kernel = make_problem(p=1.5, q=2.0)
    traj = run_flow(eval_preset(dom, "random", 1.0, seed=3), kernel, params)
    assert traj.kernel is kernel
    steps = [GridFunction(dom, row) for row in traj.u]
    direct = {
        "seminorm": [gagliardo_seminorm_p(u, kernel) for u in steps],
        "lq_pow": [lq_power_integral(u, params.q + 1.0) for u in steps],
        "linf": [u.linf() for u in steps]}
    for name, values in direct.items():
        series = getattr(traj, name)
        assert isinstance(series, tuple) and series is getattr(traj, name)
        assert len(series) == traj.n_steps + 1
        assert np.array(series).tobytes() == np.array(values).tobytes()


def test_determinism_bitwise():
    dom, params, kernel = make_problem(p=2.5, q=0.5)
    u0 = eval_preset(dom, "random", 1.0, seed=4)
    a = run_flow(u0, kernel, params)
    b = run_flow(u0, kernel, params)
    assert np.array_equal(a.u, b.u)


def test_reconstruction_knots_and_midpoints():
    dom, params, kernel = make_problem(q=1.7)
    u0 = eval_preset(dom, "bump", 1.0)
    traj = run_flow(u0, kernel, params)
    h = params.h
    knots = (0, 1, traj.n_steps)
    values, _ = reconstruct(traj, [m * h for m in knots])
    for row, m in zip(values, knots):
        assert np.array_equal(row, traj.u[m])
    expect = 0.5 * (traj.u[1] + traj.u[2])
    assert np.allclose(reconstruct(traj, [1.5 * h])[0][0], expect,
                       rtol=1e-12, atol=1e-15)
    with pytest.raises(ValueError):
        reconstruct(traj, [-0.01])
    for bad in (params.t_end + 10 * h, np.nan):
        with pytest.raises(ValueError, match="outside"):
            reconstruct(traj, [0.0, bad])


def test_trajectory_array_and_reconstruct_at_knots_and_midpoints():
    # 2D, p = 1.5: the steps are one read-only (N+1, n_interior) array, and
    # one reconstruct call at times that mix every knot, 0 and t_end
    # included, with every midpoint returns the steps themselves at the
    # knots and the slopes (u_m - u_(m-1)) / h exactly at the midpoints
    dom = build_grid(2, (0.0, 0.0), (1.0, 1.0), 6, 2.0)
    params = FlowParams(s=0.5, p=1.5, q=1.0, h=0.01, t_end=0.05)
    kernel = assemble_kernel(dom, params)
    traj = run_flow(eval_preset(dom, "bump", 1.0), kernel, params)
    u, h, n = traj.u, params.h, traj.n_steps
    assert n == 5 and u.shape == (n + 1, dom.n_interior)
    assert not u.flags.writeable
    with pytest.raises(ValueError):
        u[1, 0] = 0.0
    knots = np.append(np.arange(n) * h, params.t_end)
    mids = (np.arange(n) + 0.5) * h
    taus = np.empty(2 * n + 1)
    taus[0::2], taus[1::2] = knots, mids
    values, slopes = reconstruct(traj, taus)
    assert values.shape == slopes.shape == (2 * n + 1, dom.n_interior)
    assert np.array_equal(values[0::2], u)
    assert np.array_equal(slopes[1::2], (u[1:] - u[:-1]) / h)
    np.testing.assert_allclose(values[1::2], 0.5 * (u[1:] + u[:-1]),
                               rtol=1e-12, atol=1e-15)


def test_interpolation_elementary_bounds():
    """The linear interpolant obeys the four pointwise comparisons with the
    right-continuous step function, which is u_m on ((m-1)h, mh]."""
    dom, params, kernel = make_problem(q=0.8, h=0.02, t_end=0.1)
    u0 = eval_preset(dom, "random", 1.0, seed=9)
    traj = run_flow(u0, kernel, params)
    h = params.h
    rng = np.random.default_rng(2)
    tol = 1e-12
    for m in range(1, traj.n_steps + 1):
        ts = rng.uniform((m - 1) * h, m * h, size=10)
        for t, lin in zip(ts, reconstruct(traj, ts)[0]):
            theta_r = (m * h - t) / h
            bar = traj.u[m]          # the step function at t
            bar_lag = traj.u[m - 1]  # ... and at t - h
            # convex-combination bound
            assert np.all(np.abs(lin) <= (1 - theta_r) * np.abs(bar)
                          + theta_r * np.abs(bar_lag) + tol)
            # gap to the step function, local and history forms
            assert np.all(np.abs(bar - lin)
                          <= theta_r * np.abs(bar - bar_lag) + tol)
            assert np.all(np.abs(lin) <= np.abs(bar) + np.abs(bar_lag) + tol)
            assert np.all(np.abs(bar - lin) <= np.abs(bar - bar_lag) + tol)


def test_near_unit_p_converges_on_symmetric_data():
    # p close to 1: the minimizer of symmetric data holds exactly equal
    # pairs, which float steps can only approach; cluster snaps land on
    # them.  Without snaps this run still converges, but in 48 iterations
    # and 200 backtracks instead of 18 and 8
    dom, params, kernel = make_problem(s=0.9, p=1.2, q=0.3, h=0.01,
                                       t_end=0.03)
    # run_flow raises NonConvergence unless every step meets the tolerance
    run_flow(eval_preset(dom, "bump", 1.0), kernel, params)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the stopping "
                   "tolerance has a floor at 1, so small data is not solved")
def test_small_data_decays_like_unit_data():
    # at p = 2, q = 1 the flow is linear: data scaled by 1e-10 must decay by
    # the same ratio, which takes Newton iterations as at amplitude 1
    dom, params, kernel = make_problem(n_cells=64, t_end=0.5)
    ratios, iterations = [], []
    for amplitude in (1.0, 1e-10):
        traj = run_flow(eval_preset(dom, "bump", amplitude), kernel, params)
        ratios.append(traj.linf[50] / traj.linf[0])
        iterations.append(sum(d.iterations for d in traj.diagnostics))
    assert iterations[1] > 0
    assert ratios[1] == pytest.approx(ratios[0], rel=1e-6, abs=0.0)


def test_truncate_values():
    x = np.array([0.1, 3.0, -1.0, 0.0])
    plus = truncate(x, "+", 2)
    assert plus[0] == 0.5    # clamped up to 1/ell
    assert plus[1] == 2.0    # clamped down to ell
    assert plus[2] == 0.5    # negative part removed, then clamped
    assert plus[3] == 0.5    # a zero value is clamped up too
    minus = truncate(x, "-", 2)
    assert minus[2] == 1.0
    assert minus[1] == 0.5
    # a stack of value arrays is truncated row by row
    both = truncate(np.stack([x, -x]), "+", 2)
    assert np.array_equal(both, np.stack([plus, minus]))
    with pytest.raises(ValueError):
        truncate(x, "+", 1)
    with pytest.raises(ValueError):
        truncate(x, "x", 2)
