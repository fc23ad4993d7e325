"""Acceptance suite: one test per criterion, one printed verdict line each.

The solver sweep (criteria 1-5) covers s in {0.25, 0.5, 0.75}, p in
{1.5, 2, 3}, q in {0.5, 1, 2} and the three data presets on a 32-cell 1D
grid with 50 implicit steps; every inequality is checked at the run's
tol_check (``energy._tolerances``).
"""

import math
import time

import numpy as np
import pytest

from fracflow import (FlowParams, GridFunction, apply_frac_p_laplacian,
                      assemble_kernel, build_grid, energy_functional,
                      eval_preset, gagliardo_seminorm_p, minimize_step,
                      reconstruct, rothe_gradient, run_flow)
from fracflow import verify
from fracflow.cli import main
from fracflow.energy import alg_ratios
from oracles import (on_collar, scan_oracle, st_seminorm_bruteforce,
                     step_objective)

S_VALUES = (0.25, 0.5, 0.75)
P_VALUES = (1.5, 2.0, 3.0)
Q_VALUES = (0.5, 1.0, 2.0)
PRESETS = ("bump", "step", "random")


def report_line(criterion: str, ok: bool) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def sweep():
    """All 81 trajectories of the acceptance sweep, built once.  A step
    that fails raises NonConvergence here, which fails every criterion that
    reads the sweep."""
    t0 = time.time()
    dom = build_grid(1, 0.0, 1.0, 32, 2.0)
    runs = {}
    for s in S_VALUES:
        for p in P_VALUES:
            for q in Q_VALUES:
                params = FlowParams(q=q, h=0.01, t_end=0.5)
                kernel = assemble_kernel(dom, s, p)
                for preset in PRESETS:
                    u0 = eval_preset(dom, preset, 1.0, seed=7)
                    traj = run_flow(u0, kernel, params)
                    runs[(s, p, q, preset)] = traj
    return {"runs": runs, "domain": dom, "elapsed": time.time() - t0}


def test_criterion_1_energy_estimates(sweep):
    failures = []
    for key, traj in sweep["runs"].items():
        for e in verify.check_energy_estimates(traj):
            if not e.passed:
                failures.append((key, e.name, e.lhs, e.rhs))
    ok = not failures and sweep["elapsed"] < 300.0
    report_line("1 energy estimate suite (E1-E4 on the 81-run sweep)", ok)
    assert not failures, failures[:5]
    assert sweep["elapsed"] < 300.0, f"sweep took {sweep['elapsed']:.0f}s"


def test_sweep_extinction_steps_start_on_the_ray(sweep):
    # with p - 1 < q the flow dies out in finite time and one step drops u by
    # orders of magnitude; started at the best multiple of u_prev, no step
    # takes more than 100 iterations, and the whole sweep at most 12,000
    worst = {key: max(d.iterations for d in traj.diagnostics)
             for key, traj in sweep["runs"].items() if key[1] - 1.0 < key[2]}
    total = sum(d.iterations for traj in sweep["runs"].values()
                for d in traj.diagnostics)
    slow = {key: w for key, w in worst.items() if w > 100}
    report_line(f"extinction steps: worst {max(worst.values())} iterations, "
                f"sweep total {total}", not slow and total <= 12_000)
    assert not slow, list(slow.items())[:5]
    assert total <= 12_000


def test_sweep_steps_take_at_most_100_iterations(sweep):
    # not only the extinction steps: no step of any run takes more than 100
    # iterations
    worst = {key: max(d.iterations for d in traj.diagnostics)
             for key, traj in sweep["runs"].items()}
    slow = {key: w for key, w in worst.items() if w > 100}
    report_line(f"every sweep step within 100 iterations "
                f"(worst {max(worst.values())})", not slow)
    assert not slow, sorted(slow.items(), key=lambda kv: -kv[1])[:5]


def test_criterion_2_max_principle(sweep):
    failures = []
    for key, traj in sweep["runs"].items():
        e = verify.check_max_principle(traj)
        if not e.passed:
            failures.append((key, e.lhs, e.rhs, e.tol))
    report_line("2 maximum principle on the sweep", not failures)
    assert not failures, failures[:5]


def test_criterion_3_time_derivative_bounds(sweep):
    failures = []
    for key, traj in sweep["runs"].items():
        entries = verify.check_time_derivative_bounds(traj)
        assert entries[0].constant_used is not None
        if key[2] >= 1.0:
            assert [e.name for e in entries] == ["T1", "T2"]
        for e in entries:
            assert e.constant_used is not None and e.note
            if not e.passed:
                failures.append((key, e.name, e.lhs, e.rhs))
    report_line("3 time-derivative bounds with recorded constants",
                not failures)
    assert not failures, failures[:5]


def test_criterion_4_weak_residual(sweep):
    worst = 0.0
    failures = []
    for key, traj in sweep["runs"].items():
        e = verify.check_weak_residual(traj)
        worst = max(worst, e.lhs / traj.tol_abs)
        if e.lhs > traj.tol_abs:
            failures.append((key, e.lhs, traj.tol_abs))
    report_line(f"4 weak-form residual <= tol_abs (worst ratio {worst:.3f})",
                not failures)
    assert not failures, failures[:5]


def test_criterion_5_truncation_energy(sweep):
    failures = []
    for key, traj in sweep["runs"].items():
        q = key[2]
        rhs_by_ell = []
        for ell in (2, 8, 32):
            entries = verify.check_truncation_energy(traj, ell)
            assert all(e.skipped is None for e in entries)
            rhs_by_ell.append(entries[0].rhs)
            for e in entries:
                if not e.passed:
                    failures.append((key, e.name, e.lhs, e.rhs))
        if q == 1.0:
            base = rhs_by_ell[0]
            for other in rhs_by_ell[1:]:
                assert abs(other - base) <= 1e-12 * base
    report_line("5 truncation energy, both q-branches, ell in {2,8,32}",
                not failures)
    assert not failures, failures[:5]


def test_criterion_6_linear_solve_oracle():
    dom = build_grid(1, 0.0, 1.0, 8, 2.0)   # 16 nodes, 8 interior
    params = FlowParams(q=1.0, h=0.01, t_end=0.1)
    kernel = assemble_kernel(dom, 0.5, 2.0)
    n = dom.n_nodes
    interior = dom.interior_mask
    a_mat = np.zeros((n, n))
    for i in range(n):
        a_mat[i, i] = kernel.weights[i].sum() + kernel.tail[i]
        a_mat[i, :] -= kernel.weights[i]
    lhs_full = (dom.vol / params.h) * np.eye(n) + a_mat
    lhs = lhs_full[np.ix_(interior, interior)]
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        vals = rng.uniform(-1.0, 1.0, n)[interior]
        u_prev = GridFunction(dom, vals)
        direct = np.linalg.solve(lhs, (dom.vol / params.h) * vals)
        u, _ = minimize_step(u_prev, kernel, params)
        rel = np.linalg.norm(u.values - direct) / np.linalg.norm(direct)
        worst = max(worst, rel)
    report_line(f"6 linear p=2,q=1 oracle (worst rel err {worst:.2e})",
                worst <= 1e-8)
    assert worst <= 1e-8


def test_criterion_7_gradient_oracles():
    dom = build_grid(1, 0.0, 1.0, 16, 2.0)
    bump = eval_preset(dom, "bump", 1.0).values
    mask = dom.interior_mask
    rng = np.random.default_rng(2024)
    eps = 1e-6
    worst = 0.0
    for p in P_VALUES:
        for q in Q_VALUES:
            params = FlowParams(q=q, h=0.01, t_end=0.1)
            kernel = assemble_kernel(dom, 0.5, p)
            w = GridFunction(dom, bump * (1.0 + 0.3 * rng.uniform(
                -1.0, 1.0, dom.n_nodes)[mask]))
            uprev = GridFunction(dom, bump * (1.0 + 0.3 * rng.uniform(
                -1.0, 1.0, dom.n_nodes)[mask]))
            g_en = apply_frac_p_laplacian(w, kernel)
            g_ro = rothe_gradient(w, uprev, kernel, params)
            for _ in range(50):
                phi = GridFunction(dom, bump * rng.uniform(
                    -1.0, 1.0, dom.n_nodes)[mask])
                w_plus = GridFunction(dom, w.values + eps * phi.values)
                w_minus = GridFunction(dom, w.values - eps * phi.values)
                fd = (energy_functional(w_plus, kernel)
                      - energy_functional(w_minus, kernel)) / (2 * eps)
                inner = float(g_en.values @ phi.values)
                worst = max(worst, abs(fd - inner) / max(abs(inner), 1e-12))
                fd = (step_objective(w_plus, uprev, kernel, params)
                      - step_objective(w_minus, uprev, kernel,
                                       params)) / (2 * eps)
                inner = float(g_ro.values @ phi.values)
                worst = max(worst, abs(fd - inner) / max(abs(inner), 1e-12))
    report_line(f"7 gradient finite-difference oracles (worst {worst:.2e})",
                worst <= 1e-6)
    assert worst <= 1e-6


def test_criterion_8_algebraic_inequalities():
    # the closed-form constants the reports use, and their brute-force oracle
    sources = (verify.alg_constants, scan_oracle)
    exact_ok = all(c.c1 == 1.0 and c.c2 == 1.0
                   for c in (src(2.0) for src in sources))
    violations = 0
    rng = np.random.default_rng(88)
    for alpha in (1.5, 2.5, 4.0):
        xi = rng.uniform(-1.0, 1.0, 10 ** 5)
        eta = rng.uniform(-1.0, 1.0, 10 ** 5)
        keep = (xi != eta) & (np.abs(xi) + np.abs(eta) > 0.0)
        xi, eta = xi[keep], eta[keep]
        phix = np.sign(xi) * np.abs(xi) ** (alpha - 1.0)
        phie = np.sign(eta) * np.abs(eta) ** (alpha - 1.0)
        base = (np.abs(xi) + np.abs(eta)) ** (alpha - 2.0)
        for src in sources:
            c = src(alpha)
            # 1e-9 relative float allowance: ratios of nearly equal arguments
            # carry cancellation noise ~eps/|xi-eta| in the last digits
            upper_ok = (np.abs(phix - phie)
                        <= c.c1 * base * np.abs(xi - eta) * (1.0 + 1e-9))
            lower_ok = ((phix - phie) * (xi - eta)
                        >= c.c2 * base * (xi - eta) ** 2 * (1.0 - 1e-9))
            violations += int(np.sum(~upper_ok)) + int(np.sum(~lower_ok))
    ok = exact_ok and violations == 0
    report_line(f"8 power-difference constants (alpha=2 exact, "
                f"{violations} violations)", ok)
    assert exact_ok
    assert violations == 0


def test_criterion_9_poincare():
    violations = 0
    for dim, n_cells in ((1, 32), (2, 8)):
        dom = build_grid(dim, 0.0, 1.0, n_cells, 2.0)
        params = FlowParams(q=1.0, h=0.01, t_end=0.1)
        kernel = assemble_kernel(dom, 0.5, 2.0)
        rng = np.random.default_rng(1000 + dim)
        for _ in range(100):
            vals = rng.uniform(-1, 1, dom.n_nodes)[dom.interior_mask]
            e = verify.check_poincare(GridFunction(dom, vals), kernel,
                                      params)
            violations += 0 if e.passed else 1
    report_line(f"9 Poincare bound with explicit constant "
                f"({violations} violations / 200 draws)", violations == 0)
    assert violations == 0


def test_criterion_10_spacetime_interpolation():
    dom = build_grid(1, 0.0, 1.0, 8, 2.0)
    all_ok = True
    # trajectories at 8-node x 8-time resolution
    for (s, p, q) in ((0.5, 2.0, 1.0), (0.25, 1.5, 0.5), (0.75, 3.0, 2.0)):
        params = FlowParams(q=q, h=0.02, t_end=0.2)
        kernel = assemble_kernel(dom, s, p)
        traj = run_flow(eval_preset(dom, "bump", 1.0), kernel, params)
        e = verify.check_spacetime_sobolev(traj, 0.25, 0.4, 8)
        all_ok &= e.passed

    # tiny case against the literal 4-loop oracle
    params = FlowParams(q=1.0, h=0.025, t_end=0.1)
    kernel = assemble_kernel(dom, 0.5, 2.0)
    traj = run_flow(eval_preset(dom, "bump", 1.0), kernel, params)
    got = verify.spacetime_seminorm_w1(traj, 0.25, 8)
    taus = (np.arange(8) + 0.5) * (params.t_end / 8)
    vals = on_collar(dom, reconstruct(traj, taus)[0])
    oracle = st_seminorm_bruteforce(vals, dom, params.t_end / 8, 0.25)
    oracle_ok = abs(got - oracle) <= 1e-12 * oracle
    all_ok &= oracle_ok

    # 20 synthetic space-time functions
    rng = np.random.default_rng(7)
    x = dom.node_coords[:, 0]
    a0, b0 = dom.collar_min[0], dom.collar_max[0]
    prof = 4.0 * (x - a0) * (b0 - x) / (b0 - a0) ** 2
    t_total = 0.2
    taus = (np.arange(8) + 0.5) * (t_total / 8)
    n_synth_pass = 0
    for _ in range(20):
        a, b = rng.uniform(0.2, 1.0), rng.uniform(-1.0, 1.0)
        omega = 2.0 * math.pi * rng.integers(1, 4) / t_total
        phase = rng.uniform(0.0, 2.0 * math.pi)
        vals = np.stack([prof * (a + b * math.sin(omega * t + phase))
                         for t in taus])
        dvals = np.stack([prof * (b * omega * math.cos(omega * t + phase))
                          for t in taus])
        e = verify.check_spacetime_sobolev_values(vals, dvals, dom, t_total,
                                                  0.25, 0.4)
        n_synth_pass += int(e.passed)
    all_ok &= (n_synth_pass == 20)
    report_line(f"10 space-time interpolation bound (oracle match "
                f"{oracle_ok}, synthetic {n_synth_pass}/20)", all_ok)
    assert oracle_ok and n_synth_pass == 20 and all_ok


def test_criterion_11_cauchy_refinement():
    t0 = time.time()
    dom = build_grid(1, 0.0, 1.0, 32, 2.0)
    params = FlowParams(q=1.0, h=0.04, t_end=0.4)
    kernel = assemble_kernel(dom, 0.5, 2.0)
    u0 = eval_preset(dom, "bump", 1.0)
    entries, rows = verify.cauchy_refinement_study(
        u0, kernel, params, levels=3, gamma=1.0, s_prime=0.25)
    d = [row[3] for row in rows]        # the d_plus column
    assert [row[1:3] for row in rows] == [[0.04, 0.02], [0.02, 0.01]]
    elapsed = time.time() - t0
    ok = d[0] > d[1] > 0.0 and elapsed < 120.0
    report_line(f"11 refinement contraction d0={d[0]:.3e} > d1={d[1]:.3e} > 0 "
                f"({elapsed:.1f}s)", ok)
    assert d[0] > d[1] > 0.0
    assert elapsed < 120.0
    minus = next(e for e in entries if e.name == "CAUCHY-minus")
    assert minus.passed


def test_criterion_12_determinism(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("\n".join([
        "n_cells = 16", "h = 0.02", "t_end = 0.1",
        f"output_dir = {tmp_path / 'out'}"]) + "\n")
    assert main(["run", "--config", str(cfg)]) == 0
    first = {name: (tmp_path / "out" / name).read_bytes()
             for name in ("trace.csv", "report.json")}
    assert main(["run", "--config", str(cfg)]) == 0
    same = all((tmp_path / "out" / name).read_bytes() == blob
               for name, blob in first.items())
    report_line("12 byte-identical trace.csv and report.json", same)
    assert same
