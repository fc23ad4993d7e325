"""Configuration parsing and the run / converge / ineq commands.

Config files are flat ``key = value`` lines with ``#`` comments.  Unknown
keys are hard errors; missing keys take the documented defaults.  Exit
codes: 0 success, 2 config error, 3 solver non-convergence, 4 check failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, asdict, fields

import numpy as np

from .grid import build_grid, eval_preset, GridFunction
from .kernel import FlowParams, assemble_kernel
from .energy import alg_ratios, gagliardo_seminorm_p, lq_power_integral
from .rothe import NonConvergence, run_flow
from . import verify
from .serialize import dumps_json, write_csv

__all__ = ["RunConfig", "ConfigError", "parse_config", "cmd_run",
           "cmd_converge", "cmd_ineq", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_CHECK_FAILED = 4


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    dim: int = 1
    omega_min: tuple = (0.0,)
    omega_max: tuple = (1.0,)
    n_cells: int = 64
    collar_factor: float = 2.0
    s: float = 0.5
    p: float = 2.0
    q: float = 1.0
    h: float = 0.01
    t_end: float = 0.5
    solver_tol: float = 1e-9
    solver_max_iter: int = 50000
    preset: str = "bump"
    amplitude: float = 1.0
    seed: int = 0
    csv_path: str = ""
    check_energy: bool = True
    check_time_derivative: bool = True
    check_max_principle: bool = True
    check_truncation: bool = True
    check_poincare: bool = True
    check_spacetime: bool = True
    check_weak_residual: bool = True
    check_levelset: bool = True
    ell: int = 2
    s_prime: float = 0.25
    s_bar: float = 0.4
    t_grid: int = 8
    output_dir: str = "out"


_COORD_KEYS = {"omega_min", "omega_max"}
_BOOL_KEYS = {f.name for f in fields(RunConfig) if f.type == "bool"}
_INT_KEYS = {"dim", "n_cells", "solver_max_iter", "seed", "ell", "t_grid"}
_STR_KEYS = {"preset", "csv_path", "output_dir"}
_ALL_KEYS = {f.name for f in fields(RunConfig)}


def _parse_value(key: str, raw: str):
    if key in _COORD_KEYS:
        parts = [float(v) for v in raw.split(",")]
        return tuple(parts)
    if key in _BOOL_KEYS:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"{key} expects a boolean, got {raw!r}")
    if key in _INT_KEYS:
        return int(raw)
    if key in _STR_KEYS:
        return raw
    return float(raw)


def _flow_params(cfg: RunConfig) -> FlowParams:
    return FlowParams(**{f.name: getattr(cfg, f.name)
                         for f in fields(FlowParams)})


def _validate(cfg: RunConfig) -> None:
    if cfg.dim not in (1, 2):
        raise ConfigError("dim must be 1 or 2")
    try:
        _flow_params(cfg)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    if cfg.n_cells < 2:
        raise ConfigError("n_cells must be at least 2")
    if cfg.collar_factor < 1.0:
        raise ConfigError("collar_factor must be at least 1")
    if cfg.preset not in ("bump", "step", "random", "csv"):
        raise ConfigError("preset must be one of bump, step, random, csv")
    if not math.isfinite(cfg.amplitude):
        raise ConfigError("amplitude must be finite")
    if cfg.ell < 2:
        raise ConfigError("ell must be at least 2")
    if not (0.0 < cfg.s_prime < cfg.s_bar < 1.0):
        raise ConfigError("need 0 < s_prime < s_bar < 1")
    if cfg.t_grid < 2:
        raise ConfigError("t_grid must be at least 2")
    if len(cfg.omega_min) not in (1, cfg.dim) or len(cfg.omega_max) not in (1, cfg.dim):
        raise ConfigError("omega_min/omega_max must match dim")


def parse_config(path: str) -> RunConfig:
    """Read a key=value config file and return a validated RunConfig."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    cfg = RunConfig()
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in _ALL_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                value = _parse_value(key, raw)
            except ValueError as err:
                raise ConfigError(f"{path}:{lineno}: {err}") from None
            setattr(cfg, key, value)
    try:
        _validate(cfg)
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from None
    return cfg


def _build_problem(cfg: RunConfig):
    domain = build_grid(cfg.dim, cfg.omega_min, cfg.omega_max, cfg.n_cells,
                        cfg.collar_factor)
    params = _flow_params(cfg)
    u0 = eval_preset(domain, cfg.preset, cfg.amplitude, seed=cfg.seed,
                     csv_path=cfg.csv_path or None)
    kernel = assemble_kernel(domain, params)
    return domain, params, u0, kernel


def _meta(cfg: RunConfig, extra: dict | None = None) -> dict:
    meta = dict(sorted(asdict(cfg).items()))
    meta["omega_min"] = list(cfg.omega_min)
    meta["omega_max"] = list(cfg.omega_max)
    if extra:
        meta.update(extra)
    return meta


def _write_report(report: verify.VerificationReport, out_dir: str) -> None:
    text = dumps_json(report.to_dict())
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(text)


def cmd_run(cfg: RunConfig) -> int:
    """Run one flow, write trace.csv and report.json, return an exit code."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    domain, params, u0, kernel = _build_problem(cfg)
    try:
        traj = run_flow(u0, kernel, params)
    except NonConvergence as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NONCONVERGENCE

    q, p, h = params.q, params.p, params.h
    lq_pow = [lq_power_integral(u, q + 1.0) for u in traj.steps]
    sem = [gagliardo_seminorm_p(u, kernel, p) for u in traj.steps]
    rows = [[0, 0.0, lq_pow[0], sem[0], traj.steps[0].linf(), 0.0, 0, 0.0]]
    for m in range(1, traj.n_steps + 1):
        d = traj.diagnostics[m - 1]
        rows.append([m, m * h, lq_pow[m], sem[m], traj.steps[m].linf(),
                     (sem[m - 1] - sem[m]) / (2.0 * p), d.iterations,
                     d.grad_norm])
    write_csv(os.path.join(cfg.output_dir, "trace.csv"),
              ["step", "time", "lq1_pow", "seminorm_p", "linf",
               "dissipation_step", "solver_iters", "grad_norm"], rows)

    report = verify.VerificationReport(meta=_meta(cfg, {
        "scale": traj.scale,
        "tol_check": 10.0 * params.solver_tol * traj.scale,
        "n_steps": traj.n_steps,
        "interior_nodes": domain.n_interior,
        "total_nodes": domain.n_nodes,
        "operator_convention": "gradient-exact: ordered pair sum, tail once",
    }))
    if cfg.check_energy:
        report.add(verify.check_energy_estimates(traj, kernel))
    if cfg.check_time_derivative:
        report.add(verify.check_time_derivative_bounds(traj, kernel))
    if cfg.check_max_principle:
        report.add(verify.check_max_principle(traj))
    if cfg.check_truncation:
        report.add(verify.check_truncation_energy(traj, kernel, cfg.ell))
    if cfg.check_weak_residual:
        report.add(verify.check_weak_residual(traj, kernel, params))
    if cfg.check_poincare:
        report.add(verify.check_poincare(u0, kernel, params, domain))
    if cfg.check_spacetime:
        if verify.spacetime_sum_fits(domain.n_nodes, cfg.t_grid):
            report.add(verify.check_spacetime_sobolev(
                traj, cfg.s_prime, cfg.s_bar, cfg.t_grid))
        else:
            report.add(verify.CheckEntry(
                name="ST-SOBOLEV", ref="spacetime-interpolation-bound",
                lhs=0.0, rhs=0.0, skipped="space-time sum guard exceeded"))
    if cfg.check_levelset:
        report.add(verify.chebyshev_level_sets(
            traj.steps[-1], cfg.ell, params, domain, kernel, u0=u0))
    report.add(verify.check_initial_trend(traj, kernel))
    _write_report(report, cfg.output_dir)
    return EXIT_OK if report.all_passed() else EXIT_CHECK_FAILED


def cmd_converge(cfg: RunConfig, levels: int, gamma: float) -> int:
    """Refinement study at h, h/2, ...; writes d_table.csv and report.json."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    _, params, u0, kernel = _build_problem(cfg)
    try:
        entries = verify.cauchy_refinement_study(
            u0, kernel, params, levels=levels, gamma=gamma,
            s_prime=min(cfg.s_prime, 0.5 * cfg.s))
    except NonConvergence as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    detail = {e.name: e.detail for e in entries}
    d_plus = detail["CAUCHY-plus"]["d"]
    d_minus = detail["CAUCHY-minus"]["d"]
    hs = detail["CAUCHY-plus"]["h"]
    rows = [[k, hs[k], hs[k + 1], d_plus[k], d_minus[k]]
            for k in range(len(d_plus))]
    write_csv(os.path.join(cfg.output_dir, "d_table.csv"),
              ["k", "h_coarse", "h_fine", "d_plus", "d_minus"], rows)
    report = verify.VerificationReport(
        meta=_meta(cfg, {"levels": levels, "gamma": gamma}))
    report.add(entries)
    _write_report(report, cfg.output_dir)

    def decreasing(d):
        return all(d[k + 1] < d[k] or d[k] == d[k + 1] == 0.0
                   for k in range(len(d) - 1))

    ok = decreasing(d_plus) and decreasing(d_minus)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_ineq(cfg: RunConfig, trials: int, seed: int) -> int:
    """Standalone inequality suite, independent of any flow."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    domain, params, _, kernel = _build_problem(cfg)
    rng = np.random.default_rng(seed)
    report = verify.VerificationReport(
        meta=_meta(cfg, {"trials": trials, "ineq_seed": seed}))

    # ratios of nearly equal pairs carry cancellation noise ~eps/|xi-eta|,
    # so the comparison gets a 1e-9 relative allowance (the constants
    # themselves are extremal to ~1e-13)
    for alpha in (1.5, 2.0, 2.5, 3.0, 4.0):
        consts = verify.alg_constants(alpha)
        xi = rng.uniform(-1.0, 1.0, size=trials)
        eta = rng.uniform(-1.0, 1.0, size=trials)
        keep = (xi != eta) & (np.abs(xi) + np.abs(eta) > 0.0)
        r1, r2 = alg_ratios(xi[keep], eta[keep], alpha)
        report.add(verify.CheckEntry(
            name=f"ALG1-alpha{alpha:g}", ref="power-difference-upper",
            lhs=float(np.max(r1)), rhs=consts.c1, constant_used=consts.c1,
            tol=1e-9 * consts.c1))
        report.add(verify.CheckEntry(
            name=f"ALG2-alpha{alpha:g}", ref="power-difference-lower",
            lhs=consts.c2, rhs=float(np.min(r2)), constant_used=consts.c2,
            tol=1e-9 * consts.c2))

    worst = None
    for k in range(100):
        vals = rng.uniform(-1.0, 1.0, size=domain.n_nodes)
        vals[~domain.interior_mask] = 0.0
        entry = verify.check_poincare(GridFunction(domain, vals), kernel,
                                      params, domain)
        if worst is None or entry.margin < worst.margin:
            worst = entry
    worst.name = "POINCARE-random"
    worst.note = "worst of 100 seeded random functions"
    report.add(worst)

    if verify.spacetime_sum_fits(domain.n_nodes, cfg.t_grid):
        coords = domain.node_coords
        prof = np.ones(domain.n_nodes)
        for d in range(domain.dim):
            a, b = domain.collar_min[d], domain.collar_max[d]
            xh = (coords[:, d] - a) / (b - a)
            prof *= 4.0 * xh * (1.0 - xh)
        t_total = cfg.t_end
        taus = (np.arange(cfg.t_grid) + 0.5) * (t_total / cfg.t_grid)
        worst_st = None
        for k in range(20):
            a, b = rng.uniform(0.2, 1.0), rng.uniform(-1.0, 1.0)
            omega = 2.0 * math.pi * rng.integers(1, 4) / t_total
            phase = rng.uniform(0.0, 2.0 * math.pi)
            vals = np.stack([prof * (a + b * math.sin(omega * t + phase))
                             for t in taus])
            dvals = np.stack([prof * (b * omega * math.cos(omega * t + phase))
                              for t in taus])
            entry = verify.check_spacetime_sobolev_values(
                vals, dvals, domain, t_total, cfg.s_prime, cfg.s_bar)
            if worst_st is None or entry.margin < worst_st.margin:
                worst_st = entry
        worst_st.name = "ST-SOBOLEV-synthetic"
        worst_st.note = "worst of 20 synthetic space-time functions"
        report.add(worst_st)

    _write_report(report, cfg.output_dir)
    return EXIT_OK if report.all_passed() else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracflow",
        description="doubly nonlinear nonlocal diffusion runs with built-in "
                    "inequality verification")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one flow and verify it")
    p_run.add_argument("--config", required=True)
    p_conv = sub.add_parser("converge", help="time-step refinement study")
    p_conv.add_argument("--config", required=True)
    p_conv.add_argument("--levels", type=int, default=3)
    p_conv.add_argument("--gamma", type=float, default=1.0)
    p_ineq = sub.add_parser("ineq", help="standalone inequality suite")
    p_ineq.add_argument("--config", required=True)
    p_ineq.add_argument("--trials", type=int, default=100000)
    p_ineq.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "converge":
            return cmd_converge(cfg, args.levels, args.gamma)
        return cmd_ineq(cfg, args.trials, args.seed)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
