"""Configuration parsing and the run / converge / ineq commands.

Config files are flat ``key = value`` lines with ``#`` comments.  Unknown
keys are hard errors; missing keys take the documented defaults.  Exit
codes: 0 success, 2 config error or unusable output directory, 3 solver
non-convergence, 4 check failure.
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
from .energy import alg_ratios
from .rothe import NonConvergence, run_flow
from . import verify
from .serialize import dumps_json, write_csv

__all__ = ["RunConfig", "ConfigError", "parse_config", "cmd_run",
           "cmd_converge", "cmd_ineq", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_CHECK_FAILED = 4

_ALG_CHUNK = 4096   # pairs per alg_ratios call in ineq


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
    ell: int = 2
    s_prime: float = 0.25
    s_bar: float = 0.4
    t_grid: int = 8
    output_dir: str = "out"


# each key parses as the type of its default: tuple (comma-separated
# coordinates), int, float or str
_KEY_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}


def _parse_value(key: str, raw: str):
    kind = _KEY_TYPES[key]
    if kind is tuple:
        return tuple(float(v) for v in raw.split(","))
    return kind(raw)


def _grid_and_params(cfg: RunConfig):
    """The grid and flow parameters of a config; build_grid and FlowParams
    raise ValueError on the values they refuse."""
    domain = build_grid(cfg.dim, cfg.omega_min, cfg.omega_max, cfg.n_cells,
                        cfg.collar_factor)
    params = FlowParams(**{f.name: getattr(cfg, f.name)
                           for f in fields(FlowParams)})
    return domain, params


def _validate(cfg: RunConfig) -> None:
    try:
        _grid_and_params(cfg)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    if cfg.preset not in ("bump", "step", "random", "csv"):
        raise ConfigError("preset must be one of bump, step, random, csv")
    if cfg.preset == "csv" and not os.path.isfile(cfg.csv_path):
        raise ConfigError(f"csv preset needs an existing csv_path, "
                          f"got {cfg.csv_path!r}")
    if not math.isfinite(cfg.amplitude):
        raise ConfigError("amplitude must be finite")
    if cfg.seed < 0:
        raise ConfigError("seed must be non-negative")
    if cfg.ell < 2:
        raise ConfigError("ell must be at least 2")
    if not (0.0 < cfg.s_prime < cfg.s_bar < 1.0):
        raise ConfigError("need 0 < s_prime < s_bar < 1")
    if cfg.t_grid < 2:
        raise ConfigError("t_grid must be at least 2")
    # the directory is made only after the solve, so a path that cannot
    # become one is refused here: empty, or at or below a file
    if not cfg.output_dir:
        raise ConfigError("output_dir must not be empty")
    ancestor = os.path.abspath(cfg.output_dir)
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        raise ConfigError(f"output_dir {cfg.output_dir!r} cannot be made: "
                          f"{ancestor} is not a directory")


def parse_config(path: str) -> RunConfig:
    """Read a key=value config file and return a validated RunConfig."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    cfg, seen = RunConfig(), {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in _KEY_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in seen:
                raise ConfigError(f"{path}:{lineno}: key {key!r} repeats "
                                  f"line {seen[key]}")
            seen[key] = lineno
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
    domain, params = _grid_and_params(cfg)
    u0 = eval_preset(domain, cfg.preset, cfg.amplitude, seed=cfg.seed,
                     csv_path=cfg.csv_path or None)
    kernel = assemble_kernel(domain, params)
    return domain, params, u0, kernel


def _meta(cfg: RunConfig, extra: dict | None = None) -> dict:
    meta = dict(sorted(asdict(cfg).items()))
    if extra:
        meta.update(extra)
    return meta


def _write_report(report: verify.VerificationReport, out_dir: str) -> int:
    """Write report.json and return the command's exit code."""
    text = dumps_json(report.to_dict())
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(text)
    return EXIT_OK if report.all_passed() else EXIT_CHECK_FAILED


def _worst_of(entries, name: str, note: str) -> verify.CheckEntry:
    """The first entry of least margin in a family, named for the family."""
    worst = min(entries, key=lambda e: e.margin)
    worst.name, worst.note = name, note
    return worst


def cmd_run(cfg: RunConfig) -> int:
    """Run one flow, write trace.csv and report.json, return an exit code."""
    domain, params, u0, kernel = _build_problem(cfg)
    try:
        traj = run_flow(u0, kernel, params)
    except NonConvergence as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    # the directory is made only once the flow is solved, so a config
    # refused by the build or a failed solve leaves none behind
    os.makedirs(cfg.output_dir, exist_ok=True)

    lq_pow, sem, linf = traj.lq_pow, traj.seminorm, traj.linf
    rows = [[0, 0.0, lq_pow[0], sem[0], linf[0], 0.0, 0, 0.0]]
    for m, d in enumerate(traj.diagnostics, 1):
        rows.append([m, m * params.h, lq_pow[m], sem[m], linf[m],
                     (sem[m - 1] - sem[m]) / (2.0 * params.p), d.iterations,
                     d.grad_norm])
    write_csv(os.path.join(cfg.output_dir, "trace.csv"),
              ["step", "time", "lq1_pow", "seminorm_p", "linf",
               "dissipation_step", "solver_iters", "grad_norm"], rows)

    report = verify.VerificationReport(meta=_meta(cfg, {
        "scale": traj.scale,
        "tol_check": traj.tol_check,
        "n_steps": traj.n_steps,
        "interior_nodes": domain.n_interior,
        "total_nodes": domain.n_nodes,
        "operator_convention": "gradient-exact: ordered pair sum, tail once",
    }), entries=[
        *verify.check_energy_estimates(traj),
        *verify.check_time_derivative_bounds(traj),
        verify.check_max_principle(traj),
        *verify.check_truncation_energy(traj, cfg.ell),
        verify.check_weak_residual(traj),
        verify.check_poincare(u0, kernel, params),
        verify.check_spacetime_sobolev(traj, cfg.s_prime, cfg.s_bar,
                                       cfg.t_grid),
        verify.chebyshev_level_sets(traj, cfg.ell),
        verify.check_initial_trend(traj),
    ])
    return _write_report(report, cfg.output_dir)


def cmd_converge(cfg: RunConfig, levels: int, gamma: float) -> int:
    """Refinement study at h, h/2, ...; writes d_table.csv and report.json."""
    _, params, u0, kernel = _build_problem(cfg)
    try:
        entries = verify.cauchy_refinement_study(
            u0, kernel, params, levels=levels, gamma=gamma,
            s_prime=min(cfg.s_prime, 0.5 * cfg.s))
    except NonConvergence as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    # the study refuses the levels and gamma it cannot use before running
    # anything, so the directory is made only once they are accepted
    os.makedirs(cfg.output_dir, exist_ok=True)
    detail = {e.name: e.detail for e in entries}
    d_plus = detail["CAUCHY-plus"]["d"]
    d_minus = detail["CAUCHY-minus"]["d"]
    hs = detail["CAUCHY-plus"]["h"]
    rows = [[k, hs[k], hs[k + 1], d_plus[k], d_minus[k]]
            for k in range(len(d_plus))]
    write_csv(os.path.join(cfg.output_dir, "d_table.csv"),
              ["k", "h_coarse", "h_fine", "d_plus", "d_minus"], rows)
    report = verify.VerificationReport(
        meta=_meta(cfg, {"levels": levels, "gamma": gamma}), entries=entries)
    return _write_report(report, cfg.output_dir)


def cmd_ineq(cfg: RunConfig, trials: int, seed: int) -> int:
    """Standalone inequality suite, independent of any flow."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    from .stream import Stream  # imported where drawn (see stream)
    rng = Stream(seed)      # refuses a negative seed
    domain, params = _grid_and_params(cfg)
    kernel = assemble_kernel(domain, params)
    os.makedirs(cfg.output_dir, exist_ok=True)

    # ratios of nearly equal pairs carry cancellation noise ~eps/|xi-eta|,
    # so the comparison gets a 1e-9 relative allowance (the constants
    # themselves are exact to rounding)
    entries = []
    for alpha in (1.5, 2.0, 2.5, 3.0, 4.0):
        consts = verify.alg_constants(alpha)
        xi = rng.uniform(-1.0, 1.0, size=trials)
        eta = rng.uniform(-1.0, 1.0, size=trials)
        keep = (xi != eta) & (np.abs(xi) + np.abs(eta) > 0.0)
        xi, eta = xi[keep], eta[keep]
        # the ratios of one chunk of pairs at a time, so that memory does
        # not grow with the trials; max and min are exact, chunked or not
        r1_maxes, r2_mins = [], []
        for k in range(0, xi.size, _ALG_CHUNK):
            r1, r2 = alg_ratios(xi[k:k + _ALG_CHUNK], eta[k:k + _ALG_CHUNK],
                                alpha)
            r1_maxes.append(np.max(r1))
            r2_mins.append(np.min(r2))
        entries.append(verify.CheckEntry(
            name=f"ALG1-alpha{alpha:g}", ref="power-difference-upper",
            lhs=float(np.max(r1_maxes)), rhs=consts.c1,
            constant_used=consts.c1, tol=1e-9 * consts.c1))
        entries.append(verify.CheckEntry(
            name=f"ALG2-alpha{alpha:g}", ref="power-difference-lower",
            lhs=consts.c2, rhs=float(np.min(r2_mins)),
            constant_used=consts.c2, tol=1e-9 * consts.c2))

    def random_poincare(count):
        for _ in range(count):
            vals = rng.uniform(-1.0, 1.0, size=domain.n_nodes)
            u = GridFunction(domain, vals[domain.interior_mask])
            yield verify.check_poincare(u, kernel, params)

    entries.append(_worst_of(random_poincare(100), "POINCARE-random",
                             "worst of 100 seeded random functions"))

    def random_spacetime(count):
        prof = np.ones(domain.n_nodes)
        for d in range(domain.dim):
            a, b = domain.collar_min[d], domain.collar_max[d]
            xh = (domain.node_coords[:, d] - a) / (b - a)
            prof *= 4.0 * xh * (1.0 - xh)
        t_total = cfg.t_end
        taus = (np.arange(cfg.t_grid) + 0.5) * (t_total / cfg.t_grid)
        for _ in range(count):
            a, b = rng.uniform(0.2, 1.0), rng.uniform(-1.0, 1.0)
            omega = 2.0 * math.pi * rng.integers(1, 4) / t_total
            phase = rng.uniform(0.0, 2.0 * math.pi)
            vals = np.stack([prof * (a + b * math.sin(omega * t + phase))
                             for t in taus])
            dvals = np.stack([prof * (b * omega * math.cos(omega * t + phase))
                              for t in taus])
            yield verify.check_spacetime_sobolev_values(
                vals, dvals, domain, t_total, cfg.s_prime, cfg.s_bar)

    # past the space-time guard the family is skipped before any draw
    entries.append(
        verify._spacetime_skip(domain.n_nodes, cfg.t_grid,
                               "ST-SOBOLEV-synthetic")
        or _worst_of(random_spacetime(20), "ST-SOBOLEV-synthetic",
                     "worst of 20 synthetic space-time functions"))
    return _write_report(verify.VerificationReport(
        meta=_meta(cfg, {"trials": trials, "ineq_seed": seed}),
        entries=entries), cfg.output_dir)


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
    except (ValueError, OSError) as err:
        # OSError: an output_dir that cannot be made or written
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
