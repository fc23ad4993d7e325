"""Nonlocal energies and gradients of grid functions.

Everything here is a plain function of the interior values of a grid
function (``GridFunction.values``), at the s and p of the kernel table it
is given; a gradient is again a grid function, since the exterior nodes are
held at zero and only its interior components enter.  The seminorm follows
the double-integral convention: the pair sum runs over ordered pairs (both
(i,j) and (j,i)), and the tail term carries a factor 2 because the region
beyond the collar pairs with each node in both orders.  The energy is the
seminorm divided by 2p, and ``apply_frac_p_laplacian`` is its exact gradient
on the interior nodes.

At p = 2 the pair operator is linear: it is the graph Laplacian
L = diag(degree) - interior of the kernel (``KernelTable.degree``), the
gradient is L x and the pair sum of x with itself is 2 x.(L x), so both are
one product with the interior block, which the kernel applies by FFT
(``KernelTable.apply_interior``): no (n, n) array is read or formed.  Every
other p, and every sum of two different vectors, forms |a_i - b_j|^r over
the pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction
from .kernel import FlowParams, KernelTable

__all__ = [
    "AlgConstants", "sgn_power", "lq_power_integral", "gagliardo_seminorm_p",
    "energy_functional", "apply_frac_p_laplacian", "rothe_gradient",
    "scan_alg_constants", "alg_ratios",
]


def sgn_power(x, e: float):
    """Odd power map sign(x)|x|^e, continuous at 0 for e > 0."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.abs(x) ** e


def lq_power_integral(u: GridFunction, r: float) -> float:
    """vol * sum_i |u_i|^r, i.e. the r-th power of the L^r norm on the grid."""
    if r < 1.0:
        raise ValueError("exponent r must be at least 1")
    return float(u.domain.vol * np.sum(np.abs(u.values) ** r))


def _pair_sum(a: np.ndarray, b: np.ndarray, block: np.ndarray,
              boundary: np.ndarray, r: float,
              buf: np.ndarray | None = None,
              rows: slice = slice(None)) -> float:
    """sum_ij k_ij |a_i - b_j|^r over the rows i in ``rows`` (all of them by
    default), for a, b that vanish off one node set: block holds k for
    those rows against the whole set, in any shape of that many values (a
    box's window view for a whole set), boundary[i] row i's weight to
    everything outside it.  The sum splits by rows exactly, its boundary
    term sum_i boundary_i (|a_i|^r + |b_i|^r) too, so the row blocks of a
    set add up to its whole sum.  a and b may also be stacks of such
    vectors, one per row, paired row by row; the sum then runs over every
    pair.  The pair terms are formed in ``buf`` when given."""
    a_rows, b_rows = a[..., rows], b[..., rows]
    m = np.subtract(a_rows[..., :, None], b[..., None, :], out=buf)
    np.abs(m, out=m)
    a_end, b_end = np.abs(a_rows), np.abs(b_rows)
    if r != 1.0:  # |x| ** 1.0 == |x|: no pass is needed at r = 1
        m **= r
        a_end **= r
        b_end **= r
    terms = m.reshape((-1,) + block.shape)
    terms *= block
    pair = float(m.sum())
    return pair + (float((boundary * a_end).sum())
                   + float((boundary * b_end).sum()))


def _laplacian(x: np.ndarray, kernel: KernelTable) -> np.ndarray:
    """L x for the graph Laplacian L = diag(degree) - interior: the pair
    operator at p = 2."""
    return kernel.degree * x - kernel.apply_interior(x)


def _self_pair_sum(x: np.ndarray, kernel: KernelTable,
                   buf: np.ndarray | None = None) -> float:
    """``_pair_sum(x, x, ...)`` on the interior block: at p = 2 it is
    2 x.(L x), otherwise the pair matrix is formed in ``buf`` when given."""
    if kernel.p == 2.0:
        return 2.0 * float(x @ _laplacian(x, kernel))
    return _pair_sum(x, x, kernel.interior, kernel.boundary, kernel.p, buf)


def _add_pair_gradient(g: np.ndarray, x: np.ndarray, kernel: KernelTable,
                       buf: np.ndarray | None = None) -> np.ndarray:
    """g += gradient of ``_self_pair_sum(x, ...) / (2p)``, in place so that
    the caller's own terms stay first in the floating-point sum.  At p = 2
    it is L x; otherwise the pair matrix is formed in ``buf`` when given."""
    p = kernel.p
    if p == 2.0:
        g += _laplacian(x, kernel)
        return g
    m = np.subtract.outer(x, x, out=buf)
    negative = m < 0.0
    np.abs(m, out=m)
    m **= p - 1.0
    terms = m.reshape(kernel.interior.shape)
    terms *= kernel.interior
    np.negative(m, out=m, where=negative)
    g += np.sum(m, axis=1)
    g += kernel.boundary * sgn_power(x, p - 1.0)
    return g


def gagliardo_seminorm_p(u: GridFunction, kernel: KernelTable) -> float:
    """p-th power of the nonlocal seminorm (pair sum plus doubled tail term),
    for the kernel's own s and p."""
    kernel.require_match(u.domain)
    return _self_pair_sum(u.values, kernel)


def energy_functional(u: GridFunction, kernel: KernelTable) -> float:
    return gagliardo_seminorm_p(u, kernel) / (2.0 * kernel.p)


def apply_frac_p_laplacian(u: GridFunction,
                           kernel: KernelTable) -> GridFunction:
    """Exact gradient of ``energy_functional`` at u.

    Component i:  sum_j w_ij |u_i-u_j|^(p-2)(u_i-u_j) + t_i |u_i|^(p-2) u_i,
    over the interior nodes i, j, with t_i the weight of node i to the
    exterior nodes plus its tail.  For every grid function phi,
    <result, phi> equals the directional derivative of the energy at u
    along phi.
    """
    kernel.require_match(u.domain)
    x = u.values
    return GridFunction(u.domain,
                        _add_pair_gradient(np.zeros_like(x), x, kernel))


def _step_gradient(x: np.ndarray, vprev: np.ndarray, kernel: KernelTable,
                   params: FlowParams, vol_h: float,
                   buf: np.ndarray | None = None) -> np.ndarray:
    """Gradient in x, on the interior nodes, of the objective of one
    implicit step,

        vol_h sum_i ( |x_i|^(q+1)/(q+1) - vprev_i x_i ) + pair sum / (2p),

    given vprev = sgn_power(u_prev, q) on the interior and vol_h = vol / h.
    Its zero is the step's equation, which the solver drives to tolerance."""
    g = vol_h * (sgn_power(x, params.q) - vprev)
    return _add_pair_gradient(g, x, kernel, buf)


def rothe_gradient(w: GridFunction, u_prev: GridFunction,
                   kernel: KernelTable, params: FlowParams) -> GridFunction:
    """Gradient in w of the objective of the implicit step from u_prev
    (``_step_gradient``), the residual of the step's equation."""
    kernel.require_match(w.domain, params)
    return GridFunction(w.domain, _step_gradient(
        w.values, sgn_power(u_prev.values, params.q), kernel, params,
        w.domain.vol / params.h))


class NonFiniteData(ValueError):
    """Raised when an energy of some data is not finite, as it overflows
    (to inf, or to nan where inf - inf meets); a run raises it before its
    first step."""


def _data_energies(u0: GridFunction, kernel: KernelTable,
                   params: FlowParams) -> tuple:
    """The energies ([u0]^p, ||u0||_{q+1}^{q+1}) of a run's data; raises
    NonFiniteData if either is not finite.  Both are checked, not the scale:
    ``max`` drops a nan that is not its first argument.  Overflow is
    silenced while they are evaluated, since this named error reports it."""
    kernel.require_match(u0.domain, params)
    with np.errstate(over="ignore", invalid="ignore"):
        energies = (gagliardo_seminorm_p(u0, kernel),
                    lq_power_integral(u0, params.q + 1.0))
    if not all(map(math.isfinite, energies)):
        raise NonFiniteData(f"the energies of the initial data overflow "
                            f"([u0]^p = {energies[0]!r}, "
                            f"||u0||^(q+1) = {energies[1]!r})")
    return energies


def _tolerances(energies: tuple, params: FlowParams) -> tuple:
    """The run's one tolerance rule: from its data's energies, the scale,
    the steps' stopping tolerance and the trajectory entries' tolerance."""
    scale = max(1.0, *energies)
    return scale, params.solver_tol * scale, 10.0 * params.solver_tol * scale


@dataclass(frozen=True)
class AlgConstants:
    """Extremal constants of the two power-difference inequalities.

    For all real xi, eta (not both 0, xi != eta) and phi(x) = |x|^(alpha-2) x:

        |phi(xi) - phi(eta)|          <= c1 (|xi|+|eta|)^(alpha-2) |xi-eta|
        (phi(xi) - phi(eta))(xi-eta)  >= c2 (|xi|+|eta|)^(alpha-2) |xi-eta|^2
    """

    alpha: float
    c1: float
    c2: float


def alg_ratios(xi: np.ndarray, eta: np.ndarray, alpha: float):
    """Ratios whose sup/inf define c1 and c2; caller excludes xi == eta."""
    phi_x = sgn_power(xi, alpha - 1.0)
    phi_e = sgn_power(eta, alpha - 1.0)
    d = xi - eta
    base = (np.abs(xi) + np.abs(eta)) ** (alpha - 2.0)
    r1 = np.abs(phi_x - phi_e) / (base * np.abs(d))
    r2 = (phi_x - phi_e) * d / (base * d ** 2)
    return r1, r2


def scan_alg_constants(alpha: float) -> AlgConstants:
    """Brute-force the extremal constants of the power-difference bounds.

    This is the test oracle for the closed form ``verify.alg_constants``.
    Both ratios are 0-homogeneous and invariant under swapping the arguments
    and under a joint sign flip, so every pair (xi, eta) is ratio-equivalent
    to some (t, 1) with t in [-1, 1).  A dense sweep of t, with nodes at
    t = -1 and t = 0 (where the ratios have kinks) and refined around its
    extrema, pins them.  The band next to t = 1 is excluded: there the
    float evaluation is cancellation-dominated, and the analytic limit
    (alpha-1)/2^(alpha-2) at t -> 1 covers that region exactly.
    """
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1")
    cut = 1.0 - 1e-3
    n = 2_000_000
    t = np.concatenate((np.linspace(-1.0, 0.0, n + 1),
                        np.linspace(0.0, cut, n + 1)[1:]))
    r1, r2 = alg_ratios(t, np.ones_like(t), alpha)
    i1, i2 = int(np.argmax(r1)), int(np.argmin(r2))
    diag_limit = (alpha - 1.0) / 2.0 ** (alpha - 2.0)
    c1 = max(float(r1[i1]), diag_limit)
    c2 = min(float(r2[i2]), diag_limit)
    step = 1.0 / n          # the wider of the two spacings
    for idx in (i1, i2):
        lo = max(-1.0, t[idx] - 2.0 * step)
        hi = min(cut, t[idx] + 2.0 * step)
        tt = np.linspace(lo, hi, 1_000_001)
        rr1, rr2 = alg_ratios(tt, np.ones_like(tt), alpha)
        c1 = max(c1, float(np.max(rr1)))
        c2 = min(c2, float(np.min(rr2)))
    return AlgConstants(alpha=alpha, c1=c1, c2=c2)
