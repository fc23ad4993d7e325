"""Implicit time stepping: one Newton solve of each step's equation.

Each step solves the Euler-Lagrange equation

    (vol/h) (|w|^{q-1} w - |u|^{q-1} u) + A_p(w) = 0

on the interior nodes (exterior nodes are hard-constrained to zero), where
A_p is the gradient of seminorm_p / (2p); w is the unique minimizer of the
strictly convex, C^1 step objective

    (vol/h) sum_i ( |w_i|^{q+1}/(q+1) - |u_i|^{q-1} u_i w_i )
           + seminorm_p(w) / (2p),

so no smoothing of the power nonlinearities is needed.  Steps are proposed
by a damped Newton direction from a clamped curvature model, at every
problem size, and accepted by one rule: backtracking on the 2-norm of the
step's gradient (the residual merit of Newton's method for nonlinear
equations), which is what the gradient stopping rule measures.  Should the
Newton solve fail, the plain negative gradient takes its place under the
same line search.  After each accepted point the solver tries snapping
coordinates that agree to roundoff onto their mean (``_snap_clusters``).
Newton starts at the best multiple tau * u_prev of the previous step (the
ray predictor, ``_ray_start``): the objective along that ray has a closed
form in two sums, and on the step where a p - 1 < q flow dies out, u drops
by orders of magnitude, which damped Newton from u_prev itself would close
in thousands of small steps.  For p >= 2 the Newton system is solved
inexactly by Jacobi-preconditioned conjugate gradients, one model product
per CG iteration, to a residual below a quarter of the step's stopping
tolerance; for p < 2, where the clamped pair weights make the model too
ill-conditioned for CG, by a dense O(n_interior^3) LU solve.  At p = 2 the
pair operator is the kernel's graph Laplacian L (see ``energy``): the
gradient and every CG product are each one product with the interior
block, taken by FFT in O(n_interior log n_interior) work, the model
L + diag(time term) is never assembled, and nothing of size n_interior^2
is formed or read.  For p != 2 the gradient and the model each form one
pair matrix, O(n_interior^2), in the workspace array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import GridDomain, GridFunction
from .kernel import FlowParams, KernelTable
from .energy import (NonFiniteData, sgn_power, scale_for, lq_power_integral,
                     gagliardo_seminorm_p, _data_energies, _expand,
                     _self_pair_sum, _step_gradient)

__all__ = [
    "NonConvergence", "StepDiagnostics", "RotheTrajectory", "minimize_step",
    "run_flow", "reconstruct", "truncate",
]

_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 60    # halvings of one line search before the step fails


class NonConvergence(RuntimeError):
    """Raised when a step solve exhausts solver_max_iter.

    Usually a sign that the time step h or the tolerance is misconfigured.
    """

    def __init__(self, iterations: int, grad_norm: float,
                 step_index: int | None = None,
                 diagnostics: StepDiagnostics | None = None):
        self.iterations = iterations
        self.grad_norm = grad_norm
        self.step_index = step_index
        self.diagnostics = diagnostics  # the failing step's history so far
        where = "" if step_index is None else f" at step {step_index}"
        super().__init__(
            f"step solver did not reach tolerance{where}: "
            f"{iterations} iterations, grad inf-norm {grad_norm:.3e}")


@dataclass(frozen=True)
class StepDiagnostics:
    iterations: int
    grad_norm: float
    fallbacks: int = 0      # iterations where the Newton solve failed
    ray_tau: float = 1.0    # the solve started at ray_tau * u_prev
    linear_iters: int = 0   # CG iterations over the step; 0 for direct solves
    backtracks: int = 0     # line-search halvings over the step
    snaps: int = 0          # iterations whose point was a cluster snap


class _StepWorkspace:
    """Step-invariant quantities of one run, on the interior nodes, and for
    p != 2 the one (n, n) scratch array that every pair matrix of the solve
    is formed in (``buf``; None at p = 2, where no pair matrix is formed).

    ``tol_abs`` is the run's gradient stopping tolerance; ``linear_iters``
    counts the CG iterations of the Newton solves since the step began.
    The caller has matched params and its data's grid to the kernel."""

    def __init__(self, kernel: KernelTable, params: FlowParams,
                 tol_abs: float):
        self.kernel = kernel
        self.params = params
        self.tol_abs = tol_abs
        self.mask = kernel.domain.interior_mask
        self.vol_h = kernel.domain.vol / params.h
        n = kernel.domain.n_interior
        self.buf = None if params.p == 2.0 else np.empty((n, n))
        self.linear_iters = 0

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

        At p = 2 the model is L + diag(vol_h q |x|^(q-1)), with L the
        kernel's graph Laplacian, and ``_cg`` applies it as
        di * v - interior @ v, the product taken by FFT: nothing is
        assembled.  Otherwise the model is assembled in the workspace array.
        For p > 2 its pair weights are bounded and ``_cg`` multiplies by it,
        with no further (n, n) memory; for p < 2 LAPACK's solve takes a copy
        of it.
        """
        p, q, kern = self.params.p, self.params.q, self.kernel
        absx = np.abs(x)
        floor = 32.0 * np.finfo(float).eps * max(1.0, float(absx.max()))
        np.maximum(absx, floor, out=absx)
        time_di = self.vol_h * q * absx ** (q - 1.0)
        if p == 2.0:
            di = kern.degree + time_di
            d = self._cg(lambda v: di * v - kern.apply_interior(v), di, g)
        else:
            wd = np.subtract.outer(x, x, out=self.buf)
            np.abs(wd, out=wd)
            np.maximum(wd, floor, out=wd)
            wd **= p - 2.0
            wd *= kern.interior
            di = ((p - 1.0) * (wd.sum(axis=1) + kern.boundary * absx ** (p - 2.0))
                  + time_di)
            hess = wd               # wd is not read past di
            hess *= -(p - 1.0)
            hess[np.diag_indices_from(hess)] += di
            if p > 2.0:
                d = self._cg(lambda v: hess @ v, di, g)
            else:
                try:
                    d = np.linalg.solve(hess, -g)
                except np.linalg.LinAlgError:
                    return None
        if d is None or not np.all(np.isfinite(d)) or float(d @ g) >= 0.0:
            return None
        return d

    def _cg(self, apply, diag: np.ndarray,
            g: np.ndarray) -> np.ndarray | None:
        """Inexact solution of H d = -g by Jacobi-preconditioned conjugate
        gradients from d = 0, for the SPD model H given by its product
        ``apply(v)`` = H v (a fresh array) and its diagonal ``diag``.

        Stops once the residual inf-norm is at most tol_abs / 4, so that the
        exact quadratic model (p = 2, q = 1) still ends its step in one Newton
        iteration; or once it reaches roundoff relative to g; or after n
        iterations.  Every iterate from d = 0 of an SPD system is a descent
        direction, so the last one is returned.  None if the model shows
        non-positive or non-finite curvature along a search direction.
        On small grids numpy's per-call cost dominates an iteration, so the
        updates are made in place, in preallocated arrays.
        """
        eps = np.finfo(float).eps
        stop = max(0.25 * self.tol_abs, 64.0 * eps * float(np.abs(g).max()))
        dinv = 1.0 / diag
        d = np.zeros_like(g)
        r = -g
        z = dinv * r
        direction = z.copy()
        step = np.empty_like(g)
        rz = float(r @ z)
        for _ in range(g.size):
            self.linear_iters += 1
            hd = apply(direction)
            curv = float(direction @ hd)
            if not (0.0 < curv < math.inf):
                return None
            alpha = rz / curv
            d += np.multiply(alpha, direction, out=step)
            r -= np.multiply(alpha, hd, out=hd)
            if float(np.abs(r, out=z).max()) <= stop:
                break
            np.multiply(dinv, r, out=z)
            rz_next = float(r @ z)
            direction *= rz_next / rz
            direction += z
            rz = rz_next
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
    close = np.diff(xs) <= 32.0 * eps * np.maximum(np.abs(xs[:-1]),
                                                   np.abs(xs[1:]))
    # each run of sorted values joined by close gaps becomes its mean
    starts = np.flatnonzero(np.concatenate(([True], ~close)))
    counts = np.diff(np.append(starts, xs.size))
    out[order] = np.repeat(np.add.reduceat(xs, starts) / counts, counts)
    return None if np.array_equal(out, x) else out


def _ray_start(ws: _StepWorkspace, x0: np.ndarray) -> float:
    """The minimizer tau of the step objective on the ray tau * x0.

    With S1 = sum |x0|^(q+1) (which is vprev . x0) and P the pair sum of x0
    (which scales as tau^p along the ray),

        F(tau)  = vol_h S1 (tau^(q+1)/(q+1) - tau) + tau^p P / (2p),
        F'(tau) = vol_h S1 (tau^q - 1) + tau^(p-1) P / 2,

    so the ray costs one pair sum.  F' rises from -vol_h S1 near 0 to P/2 at
    1, so its one root in (0, 1] is the minimizer.  In s = log tau,
    F'(e^s) / a = (e^(qs) - 1) + c e^((p-1)s), with a = vol_h S1, b = P/2 and
    c = b/a, is increasing and convex, so Newton started right of the root
    descends onto it without overshooting.  The start
    s = min(0, -log(c) / (p-1)) is right of the root (there
    c e^((p-1)s) >= 1, or s = 0) and tracks it when tau is tiny, as on the
    step where a p - 1 < q flow dies out (tau near 1e-5), so no bracket is
    fixed in advance.  Iteration stops once the root is pinned to a few
    ulps of tau, or once roundoff has carried s past it.

    Both sums are taken on x0 / M, M = max |x0|, and log c gets the scaling
    back as (p - q - 1) log M: S1 is M^(q+1) times the first sum, and would
    underflow on its own once an extinguishing flow is small enough (a sup of
    1e-110 at q = 2), where the ray would then stop moving.
    """
    p, q = ws.params.p, ws.params.q
    m = float(np.max(np.abs(x0)))
    y = x0 / m
    s1 = float(np.sum(np.abs(y) ** (q + 1.0)))
    pair = _self_pair_sum(y, ws.kernel, ws.buf)
    a, b = ws.vol_h * s1, 0.5 * pair
    s = 0.0
    if a > 0.0 and b > 0.0 and math.isfinite(a + b):
        log_c = math.log(b) - math.log(a) + (p - q - 1.0) * math.log(m)
        s = min(0.0, -log_c / (p - 1.0))
        for _ in range(100):
            eq, ec = math.exp(q * s), math.exp(log_c + (p - 1.0) * s)
            phi = math.expm1(q * s) + ec
            if phi <= 0.0:
                break
            ds = phi / (q * eq + (p - 1.0) * ec)
            s -= ds
            if ds <= 4.0 * np.finfo(float).eps:
                break
    return math.exp(s)


def _solve_step(ws: _StepWorkspace,
                u_prev: np.ndarray) -> tuple[np.ndarray, StepDiagnostics]:
    tol_abs, max_iter = ws.tol_abs, ws.params.solver_max_iter
    ws.linear_iters = 0
    x0 = u_prev[ws.mask]
    if not np.any(x0):
        # unique minimizer of a nonnegative functional vanishing at 0
        return np.zeros_like(x0), StepDiagnostics(0, 0.0)

    vprev = sgn_power(x0, ws.params.q)
    tau = _ray_start(ws, x0)
    x = tau * x0
    g = ws.gradient(x, vprev)
    gnorm = float(np.max(np.abs(g)))
    fallbacks = backtracks = snaps = 0

    def diagnostics(iterations: int) -> StepDiagnostics:
        return StepDiagnostics(iterations, gnorm, fallbacks, tau,
                               ws.linear_iters, backtracks, snaps)

    for it in range(1, max_iter + 1):
        if gnorm <= tol_abs:
            return x, diagnostics(it - 1)
        d = ws.newton_direction(x, g)
        if d is None:
            fallbacks += 1
            d = -g
        merit = float(np.linalg.norm(g))
        t = 1.0
        for _ in range(_MAX_BACKTRACKS):
            x_try = x + t * d
            g_try = ws.gradient(x_try, vprev)
            m_try = float(np.linalg.norm(g_try))
            if np.isfinite(m_try) and m_try <= (1.0 - _ARMIJO_C * t) * merit:
                break
            t *= 0.5
            backtracks += 1
        else:
            raise NonConvergence(it, gnorm, diagnostics=diagnostics(it))
        snapped = _snap_clusters(x_try)
        if snapped is not None:
            g_snap = ws.gradient(snapped, vprev)
            if float(np.linalg.norm(g_snap)) < m_try:
                x_try, g_try = snapped, g_snap
                snaps += 1
        x, g = x_try, g_try
        gnorm = float(np.max(np.abs(g)))
    diag = diagnostics(max_iter)
    if gnorm <= tol_abs:
        return x, diag
    raise NonConvergence(max_iter, gnorm, diagnostics=diag)


def minimize_step(u_prev: GridFunction, kernel: KernelTable, params: FlowParams,
                  scale: float | None = None) -> tuple[GridFunction, StepDiagnostics]:
    """Solve one implicit step, started at the best multiple of u_prev.

    Returns the minimizer together with its diagnostics.  The stopping rule
    is inf-norm of the interior gradient <= solver_tol * scale; with scale
    taken from u_prev when not supplied by the caller, which raises
    NonFiniteData, as ``run_flow`` does, if an energy of u_prev overflows.
    """
    kernel.require_match(u_prev.domain, params)
    if scale is None:
        scale = scale_for(u_prev, kernel, params)
    ws = _StepWorkspace(kernel, params, params.solver_tol * scale)
    x, diag = _solve_step(ws, u_prev.values)
    return _expand(u_prev.domain, x), diag


@dataclass(frozen=True, eq=False)
class RotheTrajectory:
    """Steps u_0 ... u_N of one run, their diagnostics and energy series,
    on the grid of the kernel they were solved with.

    Every step met the run's stopping rule, grad_norm <= solver_tol * scale:
    construction refuses anything else (a NaN grad_norm included), so each
    check reads a converged trajectory."""

    params: FlowParams
    kernel: KernelTable  # the kernel the steps were solved with
    scale: float
    steps: tuple        # N+1 GridFunctions
    diagnostics: tuple  # N StepDiagnostics, for steps 1..N
    # ([u_0]^p, ||u_0||_{q+1}^{q+1}), the first entries of the series
    _u0_energies: tuple = field(repr=False)

    def __post_init__(self):
        tol = self.params.solver_tol * self.scale
        if not all(d.grad_norm <= tol for d in self.diagnostics):
            raise ValueError("trajectory has unconverged steps")

    @property
    def domain(self) -> GridDomain:
        return self.kernel.domain

    @property
    def n_steps(self) -> int:
        return len(self.steps) - 1

    def _series(self, at: int, energy) -> tuple:
        return ((self._u0_energies[at],)
                + tuple(energy(u) for u in self.steps[1:]))

    @cached_property
    def lq_pow(self) -> tuple:      # ||u_m||_{q+1}^{q+1}, m = 0..N
        return self._series(
            1, lambda u: lq_power_integral(u, self.params.q + 1.0))

    @cached_property
    def seminorm(self) -> tuple:    # [u_m]^p, m = 0..N
        return self._series(
            0, lambda u: gagliardo_seminorm_p(u, self.kernel))

    @cached_property
    def linf(self) -> tuple:        # max |u_m|, m = 0..N
        return tuple(u.linf() for u in self.steps)

    @property
    def t_final(self) -> float:
        return self.n_steps * self.params.h


def run_flow(u0: GridFunction, kernel: KernelTable,
             params: FlowParams) -> RotheTrajectory:
    """March N = ceil(t_end/h) implicit steps starting from u0.

    Raises NonFiniteData, before any step, if an energy of u0 overflows.
    The energies of u0 that give the scale are the first entries of the
    trajectory's series."""
    energies, scale = _data_energies(u0, kernel, params)
    ws = _StepWorkspace(kernel, params, params.solver_tol * scale)
    steps = [u0]
    diags = []
    current = u0.values
    for m in range(1, params.n_steps + 1):
        try:
            x, diag = _solve_step(ws, current)
        except NonConvergence as err:
            raise NonConvergence(err.iterations, err.grad_norm, step_index=m,
                                 diagnostics=err.diagnostics) from None
        gf = _expand(u0.domain, x)
        steps.append(gf)
        diags.append(diag)
        current = gf.values
    return RotheTrajectory(params=params, kernel=kernel, scale=scale,
                           steps=tuple(steps), diagnostics=tuple(diags),
                           _u0_energies=energies)


def reconstruct(traj: RotheTrajectory, t: float) -> GridFunction:
    """The piecewise-linear interpolant of u_0 ... u_N at t in [0, t_end];
    at a knot time it is that step itself."""
    h = traj.params.h
    n = traj.n_steps
    if t < 0.0 or t > max(traj.params.t_end, traj.t_final):
        raise ValueError(f"t={t} outside [0, {traj.params.t_end}]")
    m_exact = int(round(t / h))
    if 0 <= m_exact <= n and t == m_exact * h:
        return traj.steps[m_exact]
    m = min(n, int(math.floor(t / h)) + 1)
    theta = (t - (m - 1) * h) / h
    return GridFunction(traj.domain, theta * traj.steps[m].values
                        + (1.0 - theta) * traj.steps[m - 1].values)


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
