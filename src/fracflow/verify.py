"""Inequality checks evaluated on computed trajectories.

Every check produces entries holding the two sides of one estimate, the
constant that was used, and a pass flag.  The estimates fall in two groups:
those that are exact consequences of the per-step optimality conditions
(energy decay, sup bounds, weighted dissipation, truncation energies, weak
residual) and therefore can only be violated by solver inexactness, and
those inherited from continuum inequalities with explicit proof constants
(Poincare, space-time interpolation, level-set bounds) evaluated by midpoint
quadrature.  The checks of a trajectory read its steps as the one array
``traj.u`` of interior values, all steps at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import GridDomain, GridFunction
from .kernel import (FlowParams, KernelTable, _box_weights, _offset_weights,
                     _row_blocks)
from .energy import (AlgConstants, sgn_power, lq_power_integral,
                     gagliardo_seminorm_p, _data_energies,
                     _pair_sum, _tolerances)
from .rothe import RotheTrajectory, run_flow, reconstruct, truncate

__all__ = [
    "CheckEntry", "VerificationReport", "p_star",
    "check_energy_estimates", "check_time_derivative_bounds",
    "check_max_principle", "check_truncation_energy", "check_poincare",
    "spacetime_sum_fits", "spacetime_seminorm_w1", "check_spacetime_sobolev",
    "check_spacetime_sobolev_values", "check_weak_residual",
    "check_initial_trend", "cauchy_refinement_study", "chebyshev_level_sets",
    "measure_sobolev_constant", "alg_constants",
]

# volume of the unit ball, dimensions 1 and 2
_UNIT_BALL_VOL = {1: 2.0, 2: math.pi}

# the seeded probe set of measure_sobolev_constant
_SOBOLEV_PROBES = 64
_SOBOLEV_SEED = 1234


def alg_constants(alpha: float) -> AlgConstants:
    """Extremal constants of the two power-difference inequalities, in
    closed form: with b = 2^(2-alpha),

        c1 = max(1, b, (alpha-1) b),    c2 = min(1, b, (alpha-1) b).

    Both ratios of ``energy.alg_ratios`` are 0-homogeneous and invariant
    under swapping the arguments and under a joint sign flip, so it is
    enough to look at (t, 1) with t in [-1, 1).  There phi is increasing,
    so both ratios equal

        f(t) = (1 - phi(t)) / ((1+|t|)^(alpha-2) (1-t)),

    whose extremes sit at t = 0 (value 1), t = -1 (value b) and t -> 1
    (value (alpha-1) b); these are the classical (|a|+|b|)^(p-2)
    inequalities of the p-Laplacian (Lindqvist, Notes on the p-Laplace
    equation).  The form is exact at alpha = 2 and alpha = 3 and within a
    few ulp elsewhere, far inside every check's tolerance, so it is not
    rounded outward: that would turn the exact c1 = c2 = 1 at alpha = 2
    into 1 +- ulp.  ``energy.scan_alg_constants`` is its test oracle.
    """
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1")
    b = 2.0 ** (2.0 - alpha)
    ends = (1.0, b, (alpha - 1.0) * b)
    return AlgConstants(alpha=alpha, c1=max(ends), c2=min(ends))


@dataclass
class CheckEntry:
    """One verified estimate: lhs <= rhs + tol, with the constant recorded."""

    name: str
    ref: str
    lhs: float
    rhs: float
    constant_used: float | None = None
    tol: float = 0.0
    skipped: str | None = None
    note: str | None = None

    @property
    def passed(self) -> bool:
        if self.skipped is not None:
            return True
        return self.lhs <= self.rhs + self.tol

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def to_dict(self) -> dict:
        d = {"name": self.name, "paper_ref": self.ref, "lhs": self.lhs,
             "rhs": self.rhs, "constant_used": self.constant_used,
             "margin": self.margin, "pass": self.passed, "tol": self.tol}
        if self.skipped is not None:
            d["skipped"] = self.skipped
        if self.note is not None:
            d["note"] = self.note
        return d


@dataclass
class VerificationReport:
    meta: dict
    entries: list

    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_dict(self) -> dict:
        return {"meta": self.meta,
                "entries": [e.to_dict() for e in self.entries]}


def p_star(n: int, s: float, p: float) -> float | None:
    """The fractional Sobolev exponent n p / (n - s p), None when s p >= n."""
    sp = s * p
    return n * p / (n - sp) if sp < n else None


def _step_sum(traj: RotheTrajectory, vals: np.ndarray, f) -> float:
    """sum_m h vol sum_i f(vals[m], vals[m-1])_i over m = 1..N, for an
    array vals with one row per step of the trajectory."""
    h, vol = traj.params.h, traj.domain.vol
    return sum(h * vol * float(row)
               for row in np.sum(f(vals[1:], vals[:-1]), axis=1))


def _degenerate_weight(a: np.ndarray, b: np.ndarray, expo: float) -> np.ndarray:
    """(|a|+|b|)^expo with the 0^negative case resolved to 0.

    Wherever both arguments vanish the accompanying squared difference is 0,
    so the product is the limit value 0; this also avoids 0**0 = 1 at
    expo = 0.
    """
    su = np.abs(a) + np.abs(b)
    out = np.zeros_like(su)
    pos = su > 0.0
    out[pos] = su[pos] ** expo
    return out


# ---------------------------------------------------------------------------
# estimates that are exact at the discrete level


def check_energy_estimates(traj: RotheTrajectory) -> list:
    """Four entries: sup bound, time-integrated seminorm, weighted
    dissipation, and per-step seminorm decay."""
    q, p, h = traj.params.q, traj.kernel.p, traj.params.h
    tol = traj.tol_check
    lq_pow, sem = traj.lq_pow, traj.seminorm
    c2 = alg_constants(q + 1.0).c2

    entries = [CheckEntry(
        name="E1", ref="sup-lq-power-bound",
        lhs=max(lq_pow[1:]), rhs=lq_pow[0], tol=tol)]
    entries.append(CheckEntry(
        name="E2", ref="seminorm-time-integral-bound",
        lhs=h * float(np.sum(sem[1:])),
        rhs=(2.0 * q / (q + 1.0)) * lq_pow[0],
        constant_used=2.0 * q / (q + 1.0), tol=tol))

    dissip = _step_sum(traj, traj.u,
                       lambda um, up: _degenerate_weight(um, up, q - 1.0)
                       * ((um - up) / h) ** 2)
    entries.append(CheckEntry(
        name="E3", ref="weighted-dissipation-bound",
        lhs=c2 * dissip, rhs=sem[0] / (2.0 * p),
        constant_used=c2, tol=tol))

    steps_up = [sem[m] - sem[m - 1] for m in range(1, traj.n_steps + 1)]
    entries.append(CheckEntry(
        name="E4", ref="stepwise-seminorm-decay",
        lhs=max(steps_up), rhs=0.0, tol=tol))
    return entries


def check_time_derivative_bounds(traj: RotheTrajectory) -> list:
    """L2 bound on the half-power interpolant derivative, and for q >= 1 the
    L1 bound on the q-power interpolant derivative."""
    q, p, h = traj.params.q, traj.kernel.p, traj.params.h
    tol = traj.tol_check
    s0 = traj.seminorm[0]
    c1_half = alg_constants((q + 3.0) / 2.0).c1
    full = alg_constants(q + 1.0)
    c2 = full.c2

    wvals = sgn_power(traj.u, (q + 1.0) / 2.0)
    lhs1 = _step_sum(traj, wvals, lambda wm, wp: ((wm - wp) / h) ** 2)
    const1 = c1_half ** 2 / c2
    entries = [CheckEntry(
        name="T1", ref="halfpower-derivative-l2-bound",
        lhs=lhs1, rhs=const1 * s0 / (2.0 * p), constant_used=const1, tol=tol,
        note=f"c1({(q + 3.0) / 2.0})={c1_half!r} c2({q + 1.0})={c2!r}")]

    if q >= 1.0:
        c1_full = full.c1
        vvals = sgn_power(traj.u, q)
        lhs2 = _step_sum(traj, vvals, lambda vm, vp: np.abs(vm - vp) / h)
        t_total = traj.t_final
        omega_t = traj.domain.omega_volume * t_total
        l0 = traj.lq_pow[0]
        const2 = c1_full * 2.0 ** ((q - 1.0) / 2.0) / math.sqrt(2.0 * p * c2)
        rhs2 = (const2 * omega_t ** (1.0 / (q + 1.0))
                * (t_total * l0) ** ((q - 1.0) / (2.0 * (q + 1.0)))
                * math.sqrt(s0))
        entries.append(CheckEntry(
            name="T2", ref="qpower-derivative-l1-bound",
            lhs=lhs2, rhs=rhs2, constant_used=const2, tol=tol,
            note=f"c1({q + 1.0})={c1_full!r} c2({q + 1.0})={c2!r}"))
    return entries


def check_max_principle(traj: RotheTrajectory) -> CheckEntry:
    """The flow never exceeds the initial sup bound."""
    return CheckEntry(name="MAX", ref="sup-norm-bound",
                      lhs=max(traj.linf[1:]), rhs=traj.linf[0],
                      tol=traj.tol_check)


def check_truncation_energy(traj: RotheTrajectory, ell: int) -> list:
    """Time-derivative energy of the clamped positive/negative parts.

    For q >= 1 the bound degrades like ell^(q-1); for 0 < q < 1 the smaller
    of the squared and the (q+1)-power integrals is bounded with an extra
    3^(1-q) factor, valid for h <= 1.
    """
    q, p, h = traj.params.q, traj.kernel.p, traj.params.h
    tol = traj.tol_check
    s0 = traj.seminorm[0]
    c2 = alg_constants(q + 1.0).c2

    entries = []
    for sign, tag in (("+", "plus"), ("-", "minus")):
        tr = truncate(traj.u, sign, ell)
        sq = _step_sum(traj, tr, lambda tm, tp: (np.abs(tm - tp) / h) ** 2)
        name = f"TRUNC-{tag}-ell{ell}"
        if q >= 1.0:
            const = float(ell) ** (q - 1.0) / (2.0 * p * c2)
            entries.append(CheckEntry(
                name=name, ref="truncation-derivative-l2-bound",
                lhs=sq, rhs=const * s0, constant_used=const, tol=tol))
        else:
            if h > 1.0:
                entries.append(CheckEntry(
                    name=name, ref="truncation-derivative-min-bound",
                    lhs=0.0, rhs=0.0, tol=tol,
                    skipped="requires h <= 1"))
                continue
            qp = _step_sum(traj, tr,
                           lambda tm, tp: (np.abs(tm - tp) / h) ** (q + 1.0))
            const = 3.0 ** (1.0 - q) * float(ell) ** (1.0 - q) / (2.0 * p * c2)
            entries.append(CheckEntry(
                name=name, ref="truncation-derivative-min-bound",
                lhs=min(sq, qp), rhs=const * s0, constant_used=const, tol=tol,
                note="min of squared and (q+1)-power integrals"))
    return entries


def check_weak_residual(traj: RotheTrajectory) -> CheckEntry:
    """Max over steps and interior basis directions of the step equation
    residual (``traj.residual``; a nan fails), bounded by the stopping rule."""
    return CheckEntry(name="RESID", ref="step-equation-residual",
                      lhs=float(np.max(traj.residual)), rhs=traj.tol_abs,
                      tol=traj.tol_check)


# ---------------------------------------------------------------------------
# continuum inequalities with explicit constants


def check_poincare(u: GridFunction, kernel: KernelTable,
                   params: FlowParams) -> CheckEntry:
    """Nonlocal Poincare bound with the explicit far-field constant
    (sp / (n alpha_n)) (2 diam Omega)^sp, on the domain of u."""
    domain = u.domain
    kernel.require_match(domain)
    n = domain.dim
    sp = kernel.s * kernel.p
    const = sp / (n * _UNIT_BALL_VOL[n]) * (2.0 * domain.omega_diameter) ** sp
    if not np.any(u.values):
        return CheckEntry(name="POINCARE", ref="poincare-bound",
                          lhs=0.0, rhs=0.0, constant_used=const,
                          skipped="zero function (vacuous)")
    energies = _data_energies(u, kernel, params)
    return CheckEntry(name="POINCARE", ref="poincare-bound",
                      lhs=lq_power_integral(u, kernel.p),
                      rhs=const * energies[0], constant_used=const,
                      tol=_tolerances(energies, params)[2])


def spacetime_sum_fits(n_nodes: int, t_grid: int) -> bool:
    """Whether node_count^2 * t_grid^2 is at most 1e8.  The guard bounds
    work, not memory: the space-time sums cost box^2 pair terms per slab
    pair, for the smallest box holding the support, and one O((2m-1)^dim)
    window sum per offset table, and copy their weights one row block at a
    time."""
    return n_nodes ** 2 * t_grid ** 2 <= 10 ** 8


def _require_spacetime_fits(n_nodes: int, t_grid: int) -> None:
    if not spacetime_sum_fits(n_nodes, t_grid):
        raise ValueError("space-time sum too large: node_count^2 * t_grid^2 "
                         "must not exceed 1e8")


def _spacetime_skip(n_nodes: int, t_grid: int,
                    name: str = "ST-SOBOLEV") -> CheckEntry | None:
    """The skipped space-time entry when the space-time sum would exceed its
    guard, else None: decided from the shapes, before anything is sampled."""
    if spacetime_sum_fits(n_nodes, t_grid):
        return None
    return CheckEntry(name=name, ref="spacetime-interpolation-bound", lhs=0.0,
                      rhs=0.0, skipped="space-time sum guard exceeded")


def _slab_pair_sums(vals: np.ndarray, domain: GridDomain, expo: float,
                    lag: int, dist: float) -> float:
    """sum over the slab pairs (k, k + lag) of the W^{.,1} pair sum of
    vals[k] against vals[k + lag], with weights vol^2 (|x - y|^2 +
    dist^2)^(-expo/2), over the smallest box holding the support of vals
    (the nodes where some slab is nonzero; none gives 0).  The box weights
    come one row block at a time, and each block adds its rows' share of
    every slab pair's sum before the next is copied.  A block takes as many
    slab pairs per pair sum as keep their pair terms within its weights to
    every node, so a small box pays few calls per block.  What is held at
    once is one block (see ``kernel._row_blocks``) and the pair terms,
    formed in one buffer per call, sized by the first block, the largest."""
    support = vals.any(axis=0)
    if not support.any():
        return 0.0
    view, box, weight = _box_weights(domain, support,
                                     _offset_weights(domain, expo, dist))
    on_box = vals[:, box]
    a, b = on_box[:vals.shape[0] - lag], on_box[lag:]
    per_sum = domain.n_nodes // on_box.shape[1]
    total, buf = 0.0, None
    for lo, block, outside in _row_blocks(view, weight, domain.n_nodes):
        if buf is None:     # the first block is the largest
            buf = np.empty(min(per_sum, len(a)) * block.size)
        rows = slice(lo, lo + outside.size)
        for k in range(0, len(a), per_sum):
            x, y = a[k:k + per_sum], b[k:k + per_sum]
            terms = buf[:len(x) * block.size].reshape((len(x),) + block.shape)
            total += _pair_sum(x, y, block, outside, 1.0, terms, rows)
    return total


def spacetime_seminorm_values(vals: np.ndarray, domain: GridDomain,
                              dt: float, s_prime: float) -> float:
    """Midpoint-rule space-time W^{s',1} seminorm of sampled values.

    vals[k, i] holds the function at time slab midpoint k and node i; the
    kernel is dist^-(n+1+s') over the (n+1)-dimensional cylinder, diagonal
    excluded.  The kernel depends on the lag |k-k'| only and is symmetric,
    so slab pair (k', k) repeats (k, k'): each lag is summed once, doubled.
    """
    if not (0.0 < s_prime < 1.0):
        raise ValueError("s_prime must lie in (0,1)")
    n_t, n_nodes = vals.shape
    _require_spacetime_fits(n_nodes, n_t)
    total = 0.0
    for lag in range(n_t):
        part = _slab_pair_sums(vals, domain, domain.dim + 1 + s_prime, lag,
                               lag * dt)
        total += part if lag == 0 else 2.0 * part
    return dt ** 2 * total


def _sample_lin(traj: RotheTrajectory, t_grid: int):
    """Values and slopes of the piecewise-linear interpolant at the
    midpoints of t_grid slabs, on every collar node, which is what the
    space-time sums take; the size guard of those sums runs first, so an
    oversized grid samples nothing."""
    domain = traj.domain
    _require_spacetime_fits(domain.n_nodes, t_grid)
    dt = traj.params.t_end / t_grid
    taus = (np.arange(t_grid) + 0.5) * dt
    values, slopes = reconstruct(traj, taus)
    on_collar = np.zeros((2, t_grid, domain.n_nodes))
    on_collar[:, :, domain.interior_mask] = values, slopes
    return on_collar[0], on_collar[1], dt


def spacetime_seminorm_w1(traj: RotheTrajectory, s_prime: float,
                          t_grid: int) -> float:
    """Space-time W^{s',1} seminorm of the piecewise-linear interpolant over
    the cylinder."""
    if t_grid < 2:
        raise ValueError("t_grid must be at least 2")
    vals, _, dt = _sample_lin(traj, t_grid)
    return spacetime_seminorm_values(vals, traj.domain, dt, s_prime)


def check_spacetime_sobolev_values(vals: np.ndarray, dvals: np.ndarray,
                                   domain: GridDomain, t_total: float,
                                   s_prime: float, s_bar: float,
                                   tol: float = 0.0) -> CheckEntry:
    """Two sides of the space-time interpolation bound for sampled values."""
    if not (0.0 < s_prime < s_bar < 1.0):
        raise ValueError("need 0 < s_prime < s_bar < 1")
    dt = t_total / vals.shape[0]
    lhs = spacetime_seminorm_values(vals, domain, dt, s_prime)
    l1_dt = dt * domain.vol * float(np.sum(np.abs(dvals)))
    spatial = dt * _slab_pair_sums(vals, domain, domain.dim + s_bar, 0, 0.0)
    n = domain.dim
    angular = n * _UNIT_BALL_VOL[n]
    diam = domain.collar_diameter
    c_i = (angular * diam ** (s_bar - s_prime) / (s_bar - s_prime)
           * 2.0 * t_total ** (1.0 - s_bar) / (1.0 - s_bar))
    c_ii = 2.0 * t_total ** (s_bar - s_prime) / (s_bar - s_prime)
    rhs = c_i * l1_dt + c_ii * spatial
    return CheckEntry(name="ST-SOBOLEV", ref="spacetime-interpolation-bound",
                      lhs=lhs, rhs=rhs, constant_used=c_i, tol=tol,
                      note=f"c_time={c_i!r} c_space={c_ii!r}")


def check_spacetime_sobolev(traj: RotheTrajectory, s_prime: float,
                            s_bar: float, t_grid: int) -> CheckEntry:
    """Space-time interpolation bound for the linear-in-time reconstruction;
    skipped when the work of the space-time sum would exceed its guard
    (``spacetime_sum_fits``)."""
    skip = _spacetime_skip(traj.domain.n_nodes, t_grid)
    if skip is not None:
        return skip
    vals, dvals, _ = _sample_lin(traj, t_grid)
    return check_spacetime_sobolev_values(
        vals, dvals, traj.domain, traj.params.t_end, s_prime, s_bar,
        tol=traj.tol_check)


def check_initial_trend(traj: RotheTrajectory) -> CheckEntry:
    """Informational: seminorm gap between the reconstruction and the initial
    data at shrinking times.  Recorded without pass/fail semantics."""
    taus = traj.params.t_end / 4.0 ** np.arange(4)
    values, _ = reconstruct(traj, taus)
    gaps = [(float(t), gagliardo_seminorm_p(
        GridFunction(traj.domain, v - traj.u[0]), traj.kernel))
        for t, v in zip(taus, values)]
    note = " ".join(f"t={tv!r}:{gv!r}" for tv, gv in gaps)
    return CheckEntry(name="INIT-TREND", ref="initial-data-attainment-trend",
                      lhs=gaps[-1][1], rhs=gaps[0][1],
                      skipped="informational trend only", note=note)


# ---------------------------------------------------------------------------
# refinement study and level sets


def cauchy_refinement_study(u0: GridFunction, kernel: KernelTable,
                            params: FlowParams, levels: int = 3,
                            gamma: float = 1.0, *,
                            s_prime: float) -> tuple[list, list]:
    """Distances between successive h-refined runs in L^gamma of the cylinder.

    Runs the flow at h, h/2, ..., h/2^(levels-1), samples the linear
    reconstructions of the positive and negative parts on the finest step
    midpoints and reports whether the successive distances decrease: the
    two CAUCHY entries, and one row (k, h_k, h_(k+1), d_plus, d_minus) per
    pair of successive levels.  The
    levels run one at a time: each level's samples are kept only until the
    next level's are taken and both distances of the pair formed, and no
    trajectory outlives its sampling.
    """
    if levels < 3:
        raise ValueError("levels must be at least 3")
    if not gamma >= 1.0:        # nan fails too
        raise ValueError("gamma must be at least 1")
    n = u0.domain.dim
    if not (0.0 < s_prime < kernel.s):
        raise ValueError("s_prime must lie in (0, s)")
    bound = min((n + 1.0) / (n + 1.0 - s_prime),
                p_star(n, kernel.s, kernel.p) or math.inf)
    if gamma >= bound:
        raise ValueError(f"gamma must be below {bound!r} for these exponents")

    hs = [params.h / 2 ** k for k in range(levels)]
    h_fine = hs[-1]
    n_samp = int(math.floor(params.t_end / h_fine + 1e-12))
    taus = (np.arange(n_samp) + 0.5) * h_fine
    vol = u0.domain.vol
    signs = {"plus": 1.0, "minus": -1.0}
    dists = {tag: [] for tag in signs}
    coarse = None
    for hk in hs:
        fine = reconstruct(run_flow(u0, kernel, replace(params, h=hk)),
                           taus)[0]
        if coarse is not None:
            for tag, sign_mult in signs.items():
                gap = (np.maximum(sign_mult * coarse, 0.0)
                       - np.maximum(sign_mult * fine, 0.0))
                dd = h_fine * vol * float(np.sum(np.abs(gap) ** gamma))
                dists[tag].append(dd ** (1.0 / gamma))
        coarse = fine

    entries = []
    for tag, d in dists.items():
        ratios = []
        for k in range(levels - 2):
            if d[k] > 0.0:
                ratios.append(d[k + 1] / d[k])
            else:
                # 0 -> 0 counts as (vacuously) contracting; 0 -> positive fails
                ratios.append(0.0 if d[k + 1] == 0.0 else 2.0)
        entries.append(CheckEntry(
            name=f"CAUCHY-{tag}", ref="refinement-contraction",
            lhs=max(ratios), rhs=1.0))
    rows = [[k, hs[k], hs[k + 1], *pair]
            for k, pair in enumerate(zip(dists["plus"], dists["minus"]))]
    return entries, rows


def measure_sobolev_constant(kernel: KernelTable) -> float:
    """Largest ratio ||u||_{p*} / [u] over a seeded probe set.

    A measured surrogate for the embedding constant, recorded per grid and
    (s, p) (the kernel's); half the probes are nodal noise, half are
    randomly placed smooth bumps (which sit closer to the extremal ratio).
    The probes are numpy's ``default_rng(_SOBOLEV_SEED)`` draws,
    reproduced by ``stream.Stream`` without importing numpy's random
    subpackage (whose import costs about 6 MiB of resident memory, more
    than the probes themselves).
    """
    domain = kernel.domain
    exponent = p_star(domain.dim, kernel.s, kernel.p)
    if exponent is None:
        raise ValueError("embedding exponent undefined: need s*p < dim")
    from .stream import Stream  # imported where drawn (see stream)
    rng = Stream(_SOBOLEV_SEED)
    coords = domain.node_coords
    lo = np.asarray(domain.omega_min)
    hi = np.asarray(domain.omega_max)
    best = 0.0
    for k in range(_SOBOLEV_PROBES):
        if k % 2 == 0:
            center = rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo))
            width = rng.uniform(0.15, 0.45) * float(np.min(hi - lo))
            r2 = ((coords - center) ** 2).sum(axis=1) / width ** 2
            vals = np.maximum(0.0, 1.0 - r2) ** 2
        else:
            vals = rng.uniform(-1.0, 1.0, size=domain.n_nodes)
        u = GridFunction(domain, vals[domain.interior_mask])
        sem = gagliardo_seminorm_p(u, kernel)
        if sem <= 0.0:
            continue
        norm = lq_power_integral(u, exponent) ** (1.0 / exponent)
        best = max(best, norm / sem ** (1.0 / kernel.p))
    return best


def chebyshev_level_sets(traj: RotheTrajectory, ell: float) -> CheckEntry:
    """Measure of the super-level set {u_+ >= ell} of the last step u_N
    against the embedding bound (C_sob [u_0])^{p*} / ell^{p*} with a
    measured C_sob."""
    kernel, domain = traj.kernel, traj.domain
    exponent = p_star(domain.dim, kernel.s, kernel.p)
    if exponent is None:
        return CheckEntry(name="LEVELSET", ref="level-set-bound",
                          lhs=0.0, rhs=0.0,
                          skipped="p_star undefined (s*p >= dim)")
    c_sob = measure_sobolev_constant(kernel)
    lhs = domain.vol * float(np.sum(np.maximum(traj.u[-1], 0.0) >= ell))
    rhs = ((c_sob * traj.seminorm[0] ** (1.0 / kernel.p)) ** exponent
           / float(ell) ** exponent)
    return CheckEntry(name="LEVELSET", ref="level-set-bound",
                      lhs=lhs, rhs=rhs, constant_used=c_sob,
                      tol=traj.tol_check,
                      note=f"C_sob measured over {_SOBOLEV_PROBES} seeded "
                           "probes, not universal")
