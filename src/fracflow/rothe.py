"""Implicit time stepping by per-step convex minimization.

Each step solves

    min_w  (vol/h) sum_i ( |w_i|^{q+1}/(q+1) - |u_i|^{q-1} u_i w_i )
           + seminorm_p(w) / (2p)

over the interior nodes (exterior nodes are hard-constrained to zero).  The
objective is strictly convex and C^1 for every p > 1, q > 0, so no smoothing
of the power nonlinearities is needed.  Steps are proposed by a damped
Newton direction from a clamped curvature model, at every problem size, and
accepted by Armijo backtracking.  Newton starts at the best multiple
tau * u_prev of the previous step (the ray predictor, ``_ray_start``): the
objective along that ray has a closed form in two sums, and on the step
where a p - 1 < q flow dies out, u drops by orders of magnitude, which
damped Newton from u_prev itself would close in thousands of small steps.
Once the objective decrease drops below float resolution the accept rule
switches to the residual norm, which is what the tight gradient stopping
rule actually needs.  Should the Newton solve fail, the plain negative
gradient takes its place under the same line search.  Each Newton iteration
costs a dense solve on the interior nodes, O(n_interior^3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridDomain, GridFunction, zero_function
from .kernel import FlowParams, KernelTable
from .energy import (sgn_power, scale_for, _expand, _pair_sum,
                     _step_objective, _step_gradient)

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


class NonFiniteData(ValueError):
    """Raised before the first step when the tolerance scale of the initial
    data is not finite: the data are large enough to overflow its energies."""


@dataclass(frozen=True)
class StepDiagnostics:
    iterations: int
    grad_norm: float
    functional_value: float
    f_history: tuple = ()
    fallbacks: int = 0      # iterations where the Newton solve failed
    ray_tau: float = 1.0    # the solve started at ray_tau * u_prev


class _StepWorkspace:
    """Step-invariant quantities of one run, on the interior nodes, and the
    one (n, n) scratch array that every pair matrix of the solve is formed in."""

    def __init__(self, domain: GridDomain, kernel: KernelTable, params: FlowParams):
        kernel.require_match(domain, params.p)
        self.kernel = kernel
        self.params = params
        self.mask = domain.interior_mask
        self.vol_h = domain.vol / params.h
        n = kernel.interior.shape[0]
        self.buf = np.empty((n, n))

    def objective(self, x: np.ndarray, vprev: np.ndarray) -> float:
        return _step_objective(x, vprev, self.kernel, self.params, self.vol_h,
                               self.buf)

    def gradient(self, x: np.ndarray, vprev: np.ndarray) -> np.ndarray:
        return _step_gradient(x, vprev, self.kernel, self.params, self.vol_h,
                              self.buf)

    def newton_direction(self, x: np.ndarray, g: np.ndarray) -> np.ndarray | None:
        """Damped-Newton proposal from a clamped Hessian model.

        For p < 2 or q < 1 the true curvature is unbounded where increments
        vanish, so the |.|^(p-2) and |.|^(q-1) weights are clamped below at a
        small magnitude floor.  The model stays symmetric positive definite
        (diagonal time term plus a weighted graph Laplacian plus positive
        tails), so the solve yields a descent direction.

        The model is assembled in the workspace array, so the memory it needs
        is that array plus the copy LAPACK's solve makes of it.
        """
        p, q, kern = self.params.p, self.params.q, self.kernel
        floor = 32.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(x))))
        wd = np.subtract.outer(x, x, out=self.buf)
        np.abs(wd, out=wd)
        np.maximum(wd, floor, out=wd)
        wd **= p - 2.0
        wd *= kern.interior
        absx = np.maximum(np.abs(x), floor)
        di = ((p - 1.0) * (wd.sum(axis=1) + kern.boundary * absx ** (p - 2.0))
              + self.vol_h * q * absx ** (q - 1.0))
        hess = wd                   # wd is not read past di
        hess *= -(p - 1.0)
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


def _ray_start(ws: _StepWorkspace, x0: np.ndarray) -> tuple[float, float]:
    """The minimizer tau of the step objective on the ray tau * x0, and the
    objective value there.

    With S1 = sum |x0|^(q+1) (which is vprev . x0) and P the pair sum of x0
    (which scales as tau^p along the ray),

        F(tau)  = vol_h S1 (tau^(q+1)/(q+1) - tau) + tau^p P / (2p),
        F'(tau) = vol_h S1 (tau^q - 1) + tau^(p-1) P / 2,

    so the ray costs one pair sum.  F' rises from -vol_h S1 near 0 to P/2 at
    1, so its one root in (0, 1] is the minimizer.  In s = log tau,
    F'(e^s) = a (e^(qs) - 1) + b e^((p-1)s) is increasing and convex, so
    Newton started right of the root descends onto it without overshooting.
    The start s = min(0, log(a/b) / (p-1)) is right of the root (there
    b e^((p-1)s) >= a, or s = 0) and tracks it when tau is tiny, as on the
    step where a p - 1 < q flow dies out (tau near 1e-5), so no bracket is
    fixed in advance.  Iteration stops once the root is pinned to a few
    ulps of tau, or once roundoff has carried s past it.
    """
    p, q = ws.params.p, ws.params.q
    s1 = float(np.sum(np.abs(x0) ** (q + 1.0)))
    pair = _pair_sum(x0, x0, ws.kernel.interior, ws.kernel.boundary, p, ws.buf)
    a, b = ws.vol_h * s1, 0.5 * pair
    s = 0.0
    if a > 0.0 and b > 0.0 and math.isfinite(a + b):
        s = min(0.0, (math.log(a) - math.log(b)) / (p - 1.0))
        for _ in range(100):
            eq, ep = math.exp(q * s), math.exp((p - 1.0) * s)
            phi = a * math.expm1(q * s) + b * ep
            if phi <= 0.0:
                break
            ds = phi / (a * q * eq + b * (p - 1.0) * ep)
            s -= ds
            if ds <= 4.0 * np.finfo(float).eps:
                break
    tau = math.exp(s)
    f = a * (tau ** (q + 1.0) / (q + 1.0) - tau) + tau ** p * pair / (2.0 * p)
    return tau, f


def _solve_step(ws: _StepWorkspace, u_prev: np.ndarray, tol_abs: float,
                max_iter: int, keep_history: bool) -> tuple[np.ndarray, StepDiagnostics]:
    q = ws.params.q
    x0 = u_prev[ws.mask]
    if not np.any(x0):
        # unique minimizer of a nonnegative functional vanishing at 0
        diag = StepDiagnostics(0, 0.0, 0.0, (0.0,) if keep_history else ())
        return np.zeros_like(x0), diag

    vprev = sgn_power(x0, q)
    tau, f = _ray_start(ws, x0)
    x = tau * x0
    g = ws.gradient(x, vprev)
    gnorm = float(np.max(np.abs(g)))
    history = [f] if keep_history else None
    # near the minimum the true objective decrease can drop below what the
    # float comparison of f resolves (the curvature is unbounded for p < 2 or
    # q < 1); once that happens the accept rule switches from the objective
    # to the residual 2-norm, which keeps ~7 extra digits of headroom
    noise = 8.0 * np.finfo(float).eps
    residual_mode = False
    stalled = 0
    fallbacks = 0

    for it in range(1, max_iter + 1):
        if gnorm <= tol_abs:
            diag = StepDiagnostics(it - 1, gnorm, f,
                                   tuple(history) if keep_history else (),
                                   fallbacks, tau)
            return x, diag
        d = ws.newton_direction(x, g)
        if d is None:
            fallbacks += 1
            d = -g
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
            x, f = x_try, f_try
            g = ws.gradient(x, vprev)
        else:
            merit = float(np.linalg.norm(g))
            accepted = False
            for trial_d in (d, -g):
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
            x, g = x_try, g_try
            f = ws.objective(x, vprev)
        gnorm = float(np.max(np.abs(g)))
        if keep_history:
            history.append(f)
    if gnorm <= tol_abs:
        return x, StepDiagnostics(max_iter, gnorm, f,
                                  tuple(history) if keep_history else (),
                                  fallbacks, tau)
    raise NonConvergence(max_iter, gnorm)


def minimize_step(u_prev: GridFunction, kernel: KernelTable, params: FlowParams,
                  scale: float | None = None,
                  keep_history: bool = False) -> tuple[GridFunction, StepDiagnostics]:
    """Solve one implicit step, started at the best multiple of u_prev.

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
    """March N = ceil(t_end/h) implicit steps starting from u0.

    Raises NonFiniteData, before any step, if the tolerance scale of u0
    overflows."""
    kernel.require_match(u0.domain, params.p)
    scale = scale_for(u0, kernel, params)
    if not math.isfinite(scale):
        raise NonFiniteData(f"the energies of the initial data overflow "
                            f"(tolerance scale {scale!r})")
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
