"""Nonlocal energies and gradients on the collar grid.

Everything here is a plain function of nodal values.  The seminorm follows
the double-integral convention: the pair sum runs over ordered pairs (both
(i,j) and (j,i)), and the tail term carries a factor 2 because the region
beyond the collar pairs with each node in both orders.  The energy is the
seminorm divided by 2p, and ``apply_frac_p_laplacian`` is its exact gradient
on the interior nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridDomain, GridFunction
from .kernel import FlowParams, KernelTable

__all__ = [
    "AlgConstants", "sgn_power", "lq_power_integral", "gagliardo_seminorm_p",
    "energy_functional", "apply_frac_p_laplacian", "rothe_functional",
    "rothe_gradient", "scan_alg_constants", "alg_ratios", "scale_for",
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


def _pair_sum(x: np.ndarray, kernel: KernelTable, p: float) -> float:
    """Seminorm power of the zero-exterior function with interior values x;
    its exterior pairs and tail act on |x_i|^p alone, via kernel.boundary."""
    pair = float(np.sum(kernel.interior * np.abs(x[:, None] - x[None, :]) ** p))
    return pair + 2.0 * float(np.sum(kernel.boundary * np.abs(x) ** p))


def _add_pair_gradient(g: np.ndarray, x: np.ndarray, kernel: KernelTable,
                       p: float) -> np.ndarray:
    """g += gradient of ``_pair_sum(x) / (2p)``, in place so that the
    caller's own terms stay first in the floating-point sum."""
    g += np.sum(kernel.interior * sgn_power(x[:, None] - x[None, :], p - 1.0),
                axis=1)
    g += kernel.boundary * sgn_power(x, p - 1.0)
    return g


def gagliardo_seminorm_p(u: GridFunction, kernel: KernelTable, p: float) -> float:
    """p-th power of the nonlocal seminorm (pair sum plus doubled tail term)."""
    kernel.require_match(u.domain, p)
    return _pair_sum(u.interior_values(), kernel, p)


def energy_functional(u: GridFunction, kernel: KernelTable, p: float) -> float:
    return gagliardo_seminorm_p(u, kernel, p) / (2.0 * p)


def apply_frac_p_laplacian(u: GridFunction, kernel: KernelTable,
                           p: float) -> GridFunction:
    """Exact gradient of ``energy_functional`` at u.

    Interior component i:  sum_j w_ij |u_i-u_j|^(p-2)(u_i-u_j)
                           + t_i |u_i|^(p-2) u_i.
    Exterior components are reported as 0 (those nodes are constrained).
    For every zero-exterior direction phi, <result, phi> equals the
    directional derivative of the energy at u along phi.
    """
    kernel.require_match(u.domain, p)
    x = u.interior_values()
    g = np.zeros(u.domain.n_nodes)
    g[u.domain.interior_mask] = _add_pair_gradient(np.zeros_like(x), x, kernel, p)
    return GridFunction(u.domain, g)


def rothe_functional(w: GridFunction, u_prev: GridFunction,
                     kernel: KernelTable, params: FlowParams) -> float:
    """Objective of one implicit step: time coupling plus nonlocal energy."""
    q, h, vol = params.q, params.h, w.domain.vol
    wv, uv = w.values, u_prev.values
    time_part = (vol / h) * float(np.sum(
        np.abs(wv) ** (q + 1.0) / (q + 1.0) - sgn_power(uv, q) * wv))
    return time_part + energy_functional(w, kernel, params.p)


def rothe_gradient(w: GridFunction, u_prev: GridFunction,
                   kernel: KernelTable, params: FlowParams) -> GridFunction:
    """Gradient of ``rothe_functional`` in w; zero on exterior nodes."""
    q, h, vol = params.q, params.h, w.domain.vol
    g = (vol / h) * (sgn_power(w.values, q) - sgn_power(u_prev.values, q))
    g = g + apply_frac_p_laplacian(w, kernel, params.p).values
    return GridFunction(w.domain, g)


def scale_for(u0: GridFunction, kernel: KernelTable, params: FlowParams) -> float:
    """Tolerance scale for one run: max(1, seminorm^p, L^{q+1} power) of u0."""
    return max(1.0, gagliardo_seminorm_p(u0, kernel, params.p),
               lq_power_integral(u0, params.q + 1.0))


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


def _directional_extrema(alpha: float):
    """Extrema of both ratios over the direction slice (t, 1), t in [-1, 1).

    By 0-homogeneity and the swap/sign symmetries every pair (xi, eta) is
    ratio-equivalent to some (t, 1) with |t| <= 1, so a dense 1-D sweep pins
    the extrema far more accurately than a 2-D lattice.  The band next to
    t = 1 is excluded: there the float evaluation is cancellation-dominated,
    and the analytic diagonal limit covers that region exactly.
    """
    cut = 1.0 - 1e-3
    n = 4_000_001
    t = np.linspace(-1.0, cut, n)
    ones = np.ones_like(t)
    r1, r2 = alg_ratios(t, ones, alpha)
    i1, i2 = int(np.argmax(r1)), int(np.argmin(r2))
    c1, c2 = float(r1[i1]), float(r2[i2])
    step = (cut + 1.0) / (n - 1)
    for idx in (i1, i2):
        lo = max(-1.0, t[idx] - 2.0 * step)
        hi = min(cut, t[idx] + 2.0 * step)
        tt = np.linspace(lo, hi, 1_000_001)
        rr1, rr2 = alg_ratios(tt, np.ones_like(tt), alpha)
        c1 = max(c1, float(np.max(rr1)))
        c2 = min(c2, float(np.min(rr2)))
    return c1, c2


def scan_alg_constants(alpha: float, grid_resolution: int = 801,
                       scan_range: float = 1.0) -> AlgConstants:
    """Brute-force the extremal constants of the power-difference bounds.

    Both ratios are 0-homogeneous, so the result does not depend on
    scan_range.  A lattice sweep of (xi, eta) pairs is sharpened by a dense
    refined sweep of the direction parameter and by the analytic xi -> eta
    limit (alpha-1)/2^(alpha-2), which is where the extremum sits for part
    of the alpha range and which finite sampling can only approach.
    """
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1")
    ax = np.linspace(-scan_range, scan_range, grid_resolution)
    xi, eta = np.meshgrid(ax, ax, indexing="ij")
    xi, eta = xi.ravel(), eta.ravel()
    keep = (xi != eta) & (np.abs(xi) + np.abs(eta) > 0.0)
    r1, r2 = alg_ratios(xi[keep], eta[keep], alpha)
    dir_c1, dir_c2 = _directional_extrema(alpha)
    diag_limit = (alpha - 1.0) / 2.0 ** (alpha - 2.0)
    c1 = max(float(np.max(r1)), dir_c1, diag_limit)
    c2 = min(float(np.min(r2)), dir_c2, diag_limit)
    return AlgConstants(alpha=alpha, c1=c1, c2=c2)
