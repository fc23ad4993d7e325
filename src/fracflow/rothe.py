"""Implicit time stepping by per-step convex minimization.

Each step solves

    min_w  (vol/h) sum_i ( |w_i|^{q+1}/(q+1) - |u_i|^{q-1} u_i w_i )
           + seminorm_p(w) / (2p)

over the interior nodes (exterior nodes are hard-constrained to zero).  The
objective is strictly convex and C^1 for every p > 1, q > 0, so no smoothing
of the power nonlinearities is needed.  Steps are proposed by a damped
Newton direction from a clamped curvature model (with a Barzilai-Borwein
gradient step as fallback) and accepted by Armijo backtracking, warm-started
from the previous step; once the objective decrease drops below float
resolution the accept rule switches to the residual norm, which is what the
tight gradient stopping rule actually needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridDomain, GridFunction, zero_function
from .kernel import FlowParams, KernelTable
from .energy import sgn_power, scale_for, _pair_sum, _add_pair_gradient

__all__ = [
    "NonConvergence", "StepDiagnostics", "RotheTrajectory", "minimize_step",
    "run_flow", "reconstruct", "truncate", "RECONSTRUCTION_KINDS",
]

RECONSTRUCTION_KINDS = ("bar_u", "u_lin", "bar_v", "v_lin", "bar_w", "w_lin")

_ARMIJO_C = 1e-4
_MAX_BACKTRACK = 200


class NonConvergence(RuntimeError):
    """Raised when a step solve exhausts solver_max_iter.

    Usually a sign that the time step h or the tolerance is misconfigured.
    """

    def __init__(self, iterations: int, grad_norm: float, step_index: int | None = None):
        self.iterations = iterations
        self.grad_norm = grad_norm
        self.step_index = step_index
        where = "" if step_index is None else f" at step {step_index}"
        super().__init__(
            f"step solver did not reach tolerance{where}: "
            f"{iterations} iterations, grad inf-norm {grad_norm:.3e}")


@dataclass(frozen=True)
class StepDiagnostics:
    iterations: int
    grad_norm: float
    functional_value: float
    f_history: tuple = ()


class _StepWorkspace:
    """Step-invariant quantities of one run, on the interior nodes."""

    def __init__(self, domain: GridDomain, kernel: KernelTable, params: FlowParams):
        kernel.require_match(domain, params.p)
        self.kernel = kernel
        self.params = params
        self.mask = domain.interior_mask
        self.vol_h = domain.vol / params.h

    def objective(self, x: np.ndarray, vprev: np.ndarray) -> float:
        p, q = self.params.p, self.params.q
        time_part = self.vol_h * float(
            np.sum(np.abs(x) ** (q + 1.0) / (q + 1.0) - vprev * x))
        return time_part + _pair_sum(x, self.kernel, p) / (2.0 * p)

    def gradient(self, x: np.ndarray, vprev: np.ndarray) -> np.ndarray:
        p, q = self.params.p, self.params.q
        g = self.vol_h * (sgn_power(x, q) - vprev)
        return _add_pair_gradient(g, x, self.kernel, p)

    def newton_direction(self, x: np.ndarray, g: np.ndarray) -> np.ndarray | None:
        """Damped-Newton proposal from a clamped Hessian model.

        For p < 2 or q < 1 the true curvature is unbounded where increments
        vanish, so the |.|^(p-2) and |.|^(q-1) weights are clamped below at a
        small magnitude floor.  The model stays symmetric positive definite
        (diagonal time term plus a weighted graph Laplacian plus positive
        tails), so the solve yields a descent direction.
        """
        p, q, kern = self.params.p, self.params.q, self.kernel
        floor = 32.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(x))))
        diff = x[:, None] - x[None, :]
        wd = kern.interior * np.maximum(np.abs(diff), floor) ** (p - 2.0)
        hess = -(p - 1.0) * wd
        absx = np.maximum(np.abs(x), floor)
        di = ((p - 1.0) * (wd.sum(axis=1) + kern.boundary * absx ** (p - 2.0))
              + self.vol_h * q * absx ** (q - 1.0))
        hess[np.diag_indices_from(hess)] += di
        try:
            d = np.linalg.solve(hess, -g)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(d)) or float(d @ g) >= 0.0:
            return None
        return d


def _snap_clusters(x: np.ndarray) -> np.ndarray | None:
    """Collapse coordinates that agree to roundoff onto their exact mean.

    For p close to 1 the pair gradient of a difference z scales like
    |z|^(p-1), so a roundoff-level z can dominate a tight tolerance; the
    minimizer of symmetric data has exactly equal pairs, which float steps
    can only approach.  Returns the snapped vector, or None if nothing is
    close enough to merge.  Tiny values snap to exactly zero.
    """
    eps = np.finfo(float).eps
    out = x.copy()
    scale = max(1.0, float(np.max(np.abs(x))))
    out[np.abs(out) <= 8.0 * eps * scale] = 0.0
    order = np.argsort(out)
    xs = out[order]
    gaps = np.diff(xs)
    close = gaps <= 32.0 * eps * np.maximum(np.abs(xs[:-1]), np.abs(xs[1:]))
    if not close.any() and np.array_equal(out, x):
        return None
    start = 0
    for i in range(len(gaps) + 1):
        if i == len(gaps) or not close[i]:
            if i > start:
                out[order[start:i + 1]] = xs[start:i + 1].mean()
            start = i + 1
    return None if np.array_equal(out, x) else out


def _solve_step(ws: _StepWorkspace, u_prev: np.ndarray, tol_abs: float,
                max_iter: int, keep_history: bool) -> tuple[np.ndarray, StepDiagnostics]:
    q = ws.params.q
    x0 = u_prev[ws.mask]
    if not np.any(x0):
        # unique minimizer of a nonnegative functional vanishing at 0
        diag = StepDiagnostics(0, 0.0, 0.0, (0.0,) if keep_history else ())
        return np.zeros_like(x0), diag

    vprev = sgn_power(x0, q)
    x = x0.copy()
    f = ws.objective(x, vprev)
    g = ws.gradient(x, vprev)
    gnorm = float(np.max(np.abs(g)))
    history = [f] if keep_history else None
    # near the minimum the true objective decrease can drop below what the
    # float comparison of f resolves (the curvature is unbounded for p < 2 or
    # q < 1); once that happens the accept rule switches from the objective
    # to the residual 2-norm, which keeps ~7 extra digits of headroom
    noise = 8.0 * np.finfo(float).eps
    use_newton = x0.size <= 800
    residual_mode = False
    stalled = 0

    t_bb = 1.0 / (1.0 + float(np.linalg.norm(g)))
    x_old = None
    g_old = None
    for it in range(1, max_iter + 1):
        if gnorm <= tol_abs:
            diag = StepDiagnostics(it - 1, gnorm, f,
                                   tuple(history) if keep_history else ())
            return x, diag
        if x_old is not None:
            dx = x - x_old
            dg = g - g_old
            denom = float(dx @ dg)
            if denom > 0.0:
                t_bb = float(dx @ dx) / denom
            t_bb = min(max(t_bb, 1e-17), 1e17)
        d = ws.newton_direction(x, g) if use_newton else None
        if d is None:
            d = -t_bb * g
        if not residual_mode:
            slope = float(g @ d)
            t = 1.0
            floor = noise * (1.0 + abs(f))
            for _ in range(_MAX_BACKTRACK):
                x_try = x + t * d
                f_try = ws.objective(x_try, vprev)
                if np.isfinite(f_try) and f_try <= f + _ARMIJO_C * t * slope + floor:
                    break
                t *= 0.5
            stalled = stalled + 1 if f_try >= f - floor else 0
            if stalled >= 2:
                residual_mode = True
            x_old, g_old = x, g
            x, f = x_try, f_try
            g = ws.gradient(x, vprev)
        else:
            merit = float(np.linalg.norm(g))
            accepted = False
            for trial_d in (d, -t_bb * g):
                t = 1.0
                for _ in range(60):
                    x_try = x + t * trial_d
                    g_try = ws.gradient(x_try, vprev)
                    m_try = float(np.linalg.norm(g_try))
                    if np.isfinite(m_try) and m_try <= (1.0 - _ARMIJO_C * t) * merit:
                        accepted = True
                        break
                    t *= 0.5
                if accepted:
                    break
            if not accepted:
                raise NonConvergence(it, gnorm)
            snapped = _snap_clusters(x_try)
            if snapped is not None:
                g_snap = ws.gradient(snapped, vprev)
                if float(np.linalg.norm(g_snap)) < m_try:
                    x_try, g_try = snapped, g_snap
            x_old, g_old = x, g
            x, g = x_try, g_try
            f = ws.objective(x, vprev)
        gnorm = float(np.max(np.abs(g)))
        if keep_history:
            history.append(f)
    if gnorm <= tol_abs:
        return x, StepDiagnostics(max_iter, gnorm, f,
                                  tuple(history) if keep_history else ())
    raise NonConvergence(max_iter, gnorm)


def _expand(domain: GridDomain, interior: np.ndarray) -> GridFunction:
    full = np.zeros(domain.n_nodes)
    full[domain.interior_mask] = interior
    return GridFunction(domain, full)


def minimize_step(u_prev: GridFunction, kernel: KernelTable, params: FlowParams,
                  scale: float | None = None,
                  keep_history: bool = False) -> tuple[GridFunction, StepDiagnostics]:
    """Solve one implicit step, warm-started at u_prev.

    Returns the minimizer together with its diagnostics.  The stopping rule
    is inf-norm of the interior gradient <= solver_tol * scale; with scale
    taken from u_prev when not supplied by the caller.
    """
    if scale is None:
        scale = scale_for(u_prev, kernel, params)
    ws = _StepWorkspace(u_prev.domain, kernel, params)
    x, diag = _solve_step(ws, u_prev.values, params.solver_tol * scale,
                          params.solver_max_iter, keep_history)
    return _expand(u_prev.domain, x), diag


@dataclass(frozen=True, eq=False)
class RotheTrajectory:
    """Step sequence u_0 ... u_N of one run, with per-step diagnostics."""

    domain: GridDomain
    params: FlowParams
    scale: float
    steps: tuple        # N+1 GridFunctions
    diagnostics: tuple  # N StepDiagnostics, for steps 1..N

    @property
    def n_steps(self) -> int:
        return len(self.steps) - 1

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.params.h

    @property
    def t_final(self) -> float:
        return self.n_steps * self.params.h

    def converged(self) -> bool:
        tol = self.params.solver_tol * self.scale
        return all(d.grad_norm <= tol for d in self.diagnostics)


def run_flow(u0: GridFunction, kernel: KernelTable, params: FlowParams,
             keep_history: bool = False) -> RotheTrajectory:
    """March N = ceil(t_end/h) implicit steps starting from u0."""
    kernel.require_match(u0.domain, params.p)
    scale = scale_for(u0, kernel, params)
    ws = _StepWorkspace(u0.domain, kernel, params)
    tol_abs = params.solver_tol * scale
    steps = [u0]
    diags = []
    current = u0.values
    for m in range(1, params.n_steps + 1):
        try:
            x, diag = _solve_step(ws, current, tol_abs, params.solver_max_iter,
                                  keep_history)
        except NonConvergence as err:
            raise NonConvergence(err.iterations, err.grad_norm, step_index=m) from None
        gf = _expand(u0.domain, x)
        steps.append(gf)
        diags.append(diag)
        current = gf.values
    return RotheTrajectory(domain=u0.domain, params=params, scale=scale,
                           steps=tuple(steps), diagnostics=tuple(diags))


def _kind_exponent(kind: str, q: float) -> float:
    if kind in ("bar_u", "u_lin"):
        return 1.0
    if kind in ("bar_v", "v_lin"):
        return q
    if kind in ("bar_w", "w_lin"):
        return (q + 1.0) / 2.0
    raise ValueError(f"unknown reconstruction kind {kind!r}")


def reconstruct(traj: RotheTrajectory, kind: str, t: float) -> GridFunction:
    """Evaluate one of the six time reconstructions at t in [0, t_end].

    bar_* are right-continuous step functions; *_lin interpolate the nodal
    power values |u_m|^(e-1) u_m linearly between knots (not powers of the
    interpolant).  At knot times both families agree exactly.
    """
    e = _kind_exponent(kind, traj.params.q)
    h = traj.params.h
    n = traj.n_steps
    if t < 0.0 or t > max(traj.params.t_end, traj.t_final):
        raise ValueError(f"t={t} outside [0, {traj.params.t_end}]")
    m_exact = int(round(t / h))
    if 0 <= m_exact <= n and t == m_exact * h:
        vals = sgn_power(traj.steps[m_exact].values, e)
        return GridFunction(traj.domain, vals)
    m = min(n, int(math.floor(t / h)) + 1)
    if kind.startswith("bar"):
        vals = sgn_power(traj.steps[m].values, e)
        return GridFunction(traj.domain, vals)
    theta = (t - (m - 1) * h) / h
    fm = sgn_power(traj.steps[m].values, e)
    fprev = sgn_power(traj.steps[m - 1].values, e)
    return GridFunction(traj.domain, theta * fm + (1.0 - theta) * fprev)


def truncate(u: GridFunction, sign: str, ell: int) -> np.ndarray:
    """Signed part of u clamped to the band [1/ell, ell].

    Returns a plain array: the result equals 1/ell on every exterior node,
    so it is not a zero-exterior grid function.
    """
    if int(ell) != ell or ell < 2:
        raise ValueError("ell must be an integer >= 2")
    if sign == "+":
        part = np.maximum(u.values, 0.0)
    elif sign == "-":
        part = np.maximum(-u.values, 0.0)
    else:
        raise ValueError("sign must be '+' or '-'")
    return np.clip(part, 1.0 / ell, float(ell))
