import importlib.util
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from fracflow import cli, rothe
from fracflow.cli import (ConfigError, RunConfig, parse_config, cmd_run,
                          cmd_converge, cmd_ineq, main)
from oracles import readers_of, traced_peak


def write_cfg(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_empty_config_gives_defaults(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, ""))
    assert cfg == RunConfig()
    assert (cfg.s, cfg.p, cfg.q) == (0.5, 2.0, 1.0)
    assert (cfg.h, cfg.t_end) == (0.01, 0.5)
    assert cfg.n_cells == 64 and cfg.collar_factor == 2.0
    assert cfg.solver_tol == 1e-9


def test_comments_and_values(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, """
# a comment
s = 0.25   # inline comment
preset = random
seed = 9
t_grid = 6
"""))
    assert cfg.s == 0.25 and cfg.preset == "random" and cfg.seed == 9
    assert cfg.t_grid == 6
    # a run reports every estimate: no key drops one from the report
    with pytest.raises(ConfigError, match=":2: unknown key 'check_poincare'"):
        parse_config(write_cfg(tmp_path, "s = 0.5\ncheck_poincare = false\n"))


def test_readme_example_config_names_every_key(tmp_path):
    # the README's example config parses to the defaults and names every
    # RunConfig key (csv_path in a comment, as it needs a file)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = [b for b in readme.split("```")[1::2] if "output_dir = " in b]
    assert parse_config(write_cfg(tmp_path, block)) == RunConfig()
    keys = {line.lstrip("# ").split(" = ", 1)[0]
            for line in block.splitlines() if " = " in line}
    assert keys == {f.name for f in fields(RunConfig)}


NON_FINITE = {
    "t_end = inf": "t_end must be at least h and finite",
    "t_end = nan": "t_end must be at least h and finite",
    "p = inf": "p must exceed 1 and be finite",
    "q = inf": "q must be positive and finite",
    "solver_tol = inf": "solver_tol must be positive and finite",
    "collar_factor = inf": "collar_factor must be >= 1 and finite",
    "collar_factor = nan": "collar_factor must be >= 1 and finite",
    "omega_max = inf": "omega_max must be finite",
    "omega_min = nan": "omega_min must be finite",
}


def test_out_of_range_values_name_the_constraint(tmp_path):
    with pytest.raises(ConfigError, match="p must exceed 1"):
        parse_config(write_cfg(tmp_path, "p = 1.0\n"))
    with pytest.raises(ConfigError, match=r"s must lie in \(0,1\)"):
        parse_config(write_cfg(tmp_path, "s = 1.5\n"))
    with pytest.raises(ConfigError, match="q must be positive"):
        parse_config(write_cfg(tmp_path, "q = 0\n"))
    with pytest.raises(ConfigError, match="h must be positive"):
        parse_config(write_cfg(tmp_path, "h = 0\n"))
    with pytest.raises(ConfigError, match="solver_tol must be positive"):
        parse_config(write_cfg(tmp_path, "solver_tol = 0\n"))
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        parse_config(write_cfg(tmp_path, "seed = -1\npreset = random\n"))
    # a non-finite flow or grid parameter is refused by name, not met later
    # as an overflow, a grid without interior nodes or a failed solve
    for text, message in NON_FINITE.items():
        with pytest.raises(ConfigError, match=message):
            parse_config(write_cfg(tmp_path, text + "\n"))
    # q < 1 is fine (slow diffusion at the default p = 2, as p - 1 > q)
    assert parse_config(write_cfg(tmp_path, "q = 0.5\n")).q == 0.5


def test_unknown_key_reports_line(tmp_path):
    with pytest.raises(ConfigError, match=":3: unknown key 'frobnicate'"):
        parse_config(write_cfg(tmp_path, "s = 0.5\n\nfrobnicate = 1\n"))
    with pytest.raises(ConfigError, match=":1: expected key = value"):
        parse_config(write_cfg(tmp_path, "what even is this\n"))
    with pytest.raises(ConfigError, match=":2:"):
        parse_config(write_cfg(tmp_path, "s = 0.5\nseed = banana\n"))
    # a repeated key is refused, not silently overwritten by its last line
    with pytest.raises(ConfigError, match=":3: key 'p' repeats line 1"):
        parse_config(write_cfg(tmp_path, "p = 3\ns = 0.5\np = 1.5\n"))


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "absent.txt"))
    assert main(["run", "--config", str(tmp_path / "absent.txt")]) == 2


def small_run_cfg(tmp_path, extra="", **over):
    lines = {"n_cells": 12, "h": 0.02, "t_end": 0.1,
             "output_dir": str(tmp_path / "out")}
    lines.update(over)
    text = "\n".join(f"{k} = {v}" for k, v in lines.items()) + "\n" + extra
    return parse_config(write_cfg(tmp_path, text))


def test_cmd_run_zero_data(tmp_path):
    cfg = small_run_cfg(tmp_path, amplitude=0.0)
    assert cmd_run(cfg) == 0
    rows = Path(cfg.output_dir, "trace.csv").read_text().splitlines()
    assert rows[0].startswith("step,time,lq1_pow,seminorm_p,linf")
    for row in rows[1:]:
        cells = row.split(",")
        assert float(cells[2]) == 0.0 and float(cells[3]) == 0.0


def test_cmd_run_bump_trace_monotone(tmp_path):
    cfg = small_run_cfg(tmp_path)
    assert cmd_run(cfg) == 0
    rows = Path(cfg.output_dir, "trace.csv").read_text().splitlines()
    sem = [float(r.split(",")[3]) for r in rows[1:]]
    assert all(a >= b for a, b in zip(sem, sem[1:]))
    report = json.loads(Path(cfg.output_dir, "report.json").read_text())
    assert report["entries"] and all(e["pass"] for e in report["entries"])
    for e in report["entries"]:
        assert set(e) >= {"name", "paper_ref", "lhs", "rhs", "constant_used",
                          "margin", "pass"}


def test_default_run_reports_every_estimate(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, f"output_dir = {tmp_path / 'out'}\n"))
    assert cmd_run(cfg) == 0
    report = json.loads(Path(cfg.output_dir, "report.json").read_text())
    names = {e["name"] for e in report["entries"]}
    assert names >= {"E1", "E2", "E3", "E4", "T1", "T2", "MAX", "RESID",
                     "POINCARE", "ST-SOBOLEV", "LEVELSET", "INIT-TREND"}
    assert sum(name.startswith("TRUNC") for name in names) == 2
    assert not any(key.startswith("check_") for key in report["meta"])


def test_grid_rules_are_config_errors(tmp_path, capsys):
    # build_grid's rules are checked at parse time: an anisotropic box is a
    # config error naming the file, and no output directory is made
    cfg_path = write_cfg(tmp_path, "\n".join([
        "dim = 2", "omega_min = 0,0", "omega_max = 1,2", "n_cells = 8",
        f"output_dir = {tmp_path / 'out'}"]))
    assert main(["run", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and cfg_path in err
    assert "anisotropic" in err
    assert not (tmp_path / "out").exists()


def test_cmd_run_nonconvergence_exit_code(tmp_path):
    cfg = small_run_cfg(tmp_path, p=1.5, q=0.5, preset="step",
                        solver_max_iter=1)
    assert cmd_run(cfg) == 3


def test_failed_run_leaves_no_output_dir(tmp_path, capsys):
    # the output directory is made only once the flow is solved, so a run
    # whose step solver fails exits 3 and leaves no directory behind
    out = tmp_path / "out"
    cfg_path = write_cfg(tmp_path, "\n".join([
        "n_cells = 16", "p = 1.5", "preset = random", "solver_max_iter = 1",
        f"output_dir = {out}"]))
    assert main(["run", "--config", cfg_path]) == 3
    assert "did not reach tolerance at step 1" in capsys.readouterr().err
    assert not out.exists()


def test_failed_newton_solve_ends_the_step(tmp_path, capsys, monkeypatch):
    # the clamped Newton model is positive definite, so only roundoff can
    # fail its solve; then the step ends at once, with no other direction
    # tried, and a run exits 3 naming that cause
    monkeypatch.setattr(rothe._StepWorkspace, "newton_direction",
                        lambda self, x, g: None)
    out = tmp_path / "out"
    cfg_path = write_cfg(tmp_path, "\n".join([
        "n_cells = 16", "p = 1.5", "q = 0.5", "t_end = 0.1",
        f"output_dir = {out}"]))
    _, params, u0, kernel = cli._build_problem(parse_config(cfg_path))
    with pytest.raises(rothe.NonConvergence) as err:
        rothe.run_flow(u0, kernel, params)
    assert err.value.step_index == 1
    assert err.value.diagnostics.iterations == 0
    assert err.value.cause == "Newton solve failed"
    assert "at step 1 (Newton solve failed): 0 iterations" in str(err.value)
    assert main(["run", "--config", cfg_path]) == 3
    assert "at step 1 (Newton solve failed)" in capsys.readouterr().err
    assert not out.exists()


def test_cmd_run_check_failure_exit_code(tmp_path, monkeypatch):
    cfg = small_run_cfg(tmp_path)
    failing = cli.verify.CheckEntry(name="MAX", ref="sup-norm-bound",
                                    lhs=2.0, rhs=1.0)
    monkeypatch.setattr(cli.verify, "check_max_principle",
                        lambda traj: failing)
    assert cmd_run(cfg) == 4


@pytest.mark.filterwarnings("error")
def test_cmd_run_overflow_writes_no_output(tmp_path, capsys, monkeypatch):
    # the seminorm of this data overflows to inf; that must be refused with
    # an error before any step is solved, not written as a bare inf that
    # strict JSON readers reject, and the named error is all that is
    # printed: no numpy overflow warning comes before it
    solved = []
    solve_step = rothe._solve_step

    def spy(*args):
        solved.append(args)
        return solve_step(*args)

    monkeypatch.setattr(rothe, "_solve_step", spy)
    cfg_path = write_cfg(tmp_path, "\n".join([
        "p = 3", "amplitude = 1e120", "n_cells = 16", "t_end = 0.05",
        f"output_dir = {tmp_path / 'out'}"]))
    assert main(["run", "--config", cfg_path]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert solved == []


@pytest.mark.filterwarnings("error")
def test_cmd_run_nan_energy_writes_no_output(tmp_path, capsys, monkeypatch):
    # at p = 2 the seminorm of this data is nan (inf - inf in x.(L x)) while
    # its L^{q+1} power is a finite 1.9e232: max(1, nan, 1.9e232) would give
    # a finite scale, so the run must refuse the nan energy itself, before
    # any step is solved, not fail only when it writes the report
    solved = []
    solve_step = rothe._solve_step

    def spy(*args):
        solved.append(args)
        return solve_step(*args)

    monkeypatch.setattr(rothe, "_solve_step", spy)
    cfg_path = write_cfg(tmp_path, "\n".join([
        "q = 0.5", "amplitude = 1e155", "n_cells = 16", "t_end = 0.05",
        f"output_dir = {tmp_path / 'out'}"]))
    assert main(["run", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "nan" in err and "non-finite" not in err
    assert not (tmp_path / "out").exists()
    assert solved == []


def test_cmd_converge_writes_table(tmp_path):
    cfg = small_run_cfg(tmp_path, n_cells=16, h=0.04, t_end=0.2)
    assert cmd_converge(cfg, levels=3, gamma=1.0) == 0
    rows = Path(cfg.output_dir, "d_table.csv").read_text().splitlines()
    assert rows[0] == "k,h_coarse,h_fine,d_plus,d_minus"
    assert len(rows) == 3
    d_plus = [float(r.split(",")[3]) for r in rows[1:]]
    assert d_plus[0] > d_plus[1] > 0.0


def test_converge_exit_code_is_the_reports_verdict(tmp_path, monkeypatch):
    # equal nonzero distances give ratio 1.0, which passes the entry and so
    # the command; a growing distance fails both
    def study_with(d):
        def study(u0, kernel, params, **kw):
            return [cli.verify.CheckEntry(
                name=f"CAUCHY-{tag}", ref="refinement-contraction",
                lhs=d[1] / d[0], rhs=1.0) for tag in ("plus", "minus")], [
                [k, 0.04 / 2 ** k, 0.02 / 2 ** k, d[k], d[k]]
                for k in range(2)]
        return study

    for d, code in (([0.5, 0.5], 0), ([0.25, 0.5], 4)):
        monkeypatch.setattr(cli.verify, "cauchy_refinement_study",
                            study_with(d))
        assert cmd_converge(small_run_cfg(tmp_path), levels=3,
                            gamma=1.0) == code


def test_unbuildable_problem_leaves_no_output(tmp_path, capsys):
    # the problem is built before the output directory is made; ineq reads
    # no initial data, so neither a csv file of the wrong size nor random
    # data whose range 2 * amplitude overflows refuses it
    short = tmp_path / "short.csv"
    short.write_text("0\n0\n")
    configs = {
        "short-csv": ["preset = csv", f"csv_path = {short}"],
        "missing-csv": ["preset = csv", f"csv_path = {tmp_path / 'nope.csv'}"],
        # p = 2 forms no interior block and refuses no size
        "dense-2d": ["dim = 2", "omega_min = 0,0", "omega_max = 1,1",
                     "n_cells = 80", "collar_factor = 1", "p = 1.5"],
        "huge-random": ["preset = random", "amplitude = 1e308"],
        **{f"non-finite-{k}": [text] for k, text in enumerate(NON_FINITE)},
    }
    for name, lines in configs.items():
        out = tmp_path / f"out-{name}"
        cfg_path = write_cfg(tmp_path, "\n".join(
            lines + [f"output_dir = {out}"]), name=f"{name}.cfg")
        commands = ["run", "converge"] + (
            [] if name in ("short-csv", "huge-random") else ["ineq"])
        for command in commands:
            assert main([command, "--config", cfg_path]) == 2, (name, command)
            assert "error:" in capsys.readouterr().err
            assert not out.exists(), (name, command)
    # command-line arguments the command refuses are refused before the
    # directory is made, with the rule they break
    out = tmp_path / "out-args"
    cfg_path = write_cfg(tmp_path, f"output_dir = {out}", name="args.cfg")
    for args, message in (
            (["converge", "--levels", "2"], "levels must be at least 3"),
            (["converge", "--gamma", "50"], "gamma must be below"),
            (["converge", "--gamma", "nan"], "gamma must be at least 1"),
            (["ineq", "--trials", "0"], "trials must be at least 1"),
            (["ineq", "--seed", "-3"], "seed must be non-negative")):
        assert main([args[0], "--config", cfg_path, *args[1:]]) == 2, args
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists(), args


def test_unusable_output_dir_is_an_error(tmp_path, capsys, monkeypatch):
    # an output_dir that is empty, names a file, or lies below one, cannot
    # be made: each command reports it and exits with the config-error
    # code, before any flow is solved
    def refuse(*args):
        raise AssertionError("a flow was solved for an unusable output_dir")

    replace_everywhere(monkeypatch, rothe.run_flow, refuse)
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "sub", ""):
        cfg_path = write_cfg(tmp_path, "\n".join(
            ["n_cells = 8", "h = 0.02", "t_end = 0.04",
             f"output_dir = {out}"]))
        for args in (["run"], ["converge"], ["ineq", "--trials", "100"]):
            assert main([args[0], "--config", cfg_path, *args[1:]]) == 2, (
                out, args)
            err = capsys.readouterr().err
            assert err.startswith("config error:") and ": output_dir " in err
    assert taken.read_text() == ""


def test_cmd_ineq_passes_and_reports(tmp_path):
    cfg = small_run_cfg(tmp_path, n_cells=8)
    assert cmd_ineq(cfg, trials=2000, seed=5) == 0
    report = json.loads(Path(cfg.output_dir, "report.json").read_text())
    names = [e["name"] for e in report["entries"]]
    assert "ALG1-alpha1.5" in names and "ALG2-alpha4" in names
    assert "POINCARE-random" in names and "ST-SOBOLEV-synthetic" in names
    # past the space-time guard (32^2 nodes^2 * 20000^2 slabs^2 > 1e8) the
    # synthetic check records its skip, as a run's ST-SOBOLEV does, before
    # any draw: not even one (t_grid, n_nodes) array is allocated
    cfg = small_run_cfg(tmp_path, n_cells=16, collar_factor=2, t_grid=20000,
                        output_dir=tmp_path / "past_guard")
    code, peak = traced_peak(lambda: cmd_ineq(cfg, trials=200, seed=5))
    assert code == 0 and peak < 8 * cfg.t_grid * 32
    report = json.loads(Path(cfg.output_dir, "report.json").read_text())
    assert report["entries"][-1] == {
        "name": "ST-SOBOLEV-synthetic",
        "paper_ref": "spacetime-interpolation-bound", "lhs": 0.0, "rhs": 0.0,
        "constant_used": None, "margin": 0.0, "pass": True, "tol": 0.0,
        "skipped": "space-time sum guard exceeded"}


def replace_everywhere(monkeypatch, fn, replacement):
    """Bind ``replacement`` in every fracflow namespace that holds ``fn``
    (the modules import each other's functions by name)."""
    for key, mod in list(sys.modules.items()):
        if key == "fracflow" or key.startswith("fracflow."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, replacement)


def test_no_command_runs_the_constant_scan(tmp_path, monkeypatch):
    # the reports use the closed-form constants; the scan is a test oracle.
    # q = 1.7 (alpha = 2.7 and 2.35) is used by no other test, so no constant
    # computed earlier in this process can stand in for a scan.
    from fracflow.energy import scan_alg_constants

    def refuse(*args, **kwargs):
        raise AssertionError("a command ran scan_alg_constants")

    replace_everywhere(monkeypatch, scan_alg_constants, refuse)
    assert cmd_run(small_run_cfg(tmp_path, q=1.7)) == 0
    assert cmd_ineq(small_run_cfg(tmp_path, n_cells=8), trials=2000,
                    seed=5) == 0


def test_no_command_builds_the_collar_table(tmp_path, monkeypatch):
    # the full (n_nodes, n_nodes) table is the test oracle; every command
    # works from the interior block and the boundary weights alone
    from fracflow.kernel import KernelTable

    def refuse(self):
        raise AssertionError("a command built the full collar table")

    monkeypatch.setattr(KernelTable, "weights", property(refuse))
    assert cmd_run(small_run_cfg(tmp_path)) == 0
    assert cmd_run(small_run_cfg(tmp_path, dim=2, omega_min="0,0",
                                 omega_max="1,1", n_cells=6, t_end=0.06)) == 0
    assert cmd_converge(small_run_cfg(tmp_path, n_cells=8, h=0.04,
                                      t_end=0.08), levels=3, gamma=1.0) == 0
    assert cmd_ineq(small_run_cfg(tmp_path, n_cells=8), trials=2000,
                    seed=5) == 0


def count_energy_calls(monkeypatch):
    """Record the seminorm and L^r power calls of every fracflow module, by
    the bytes of the function's values (and r)."""
    from fracflow.energy import gagliardo_seminorm_p, lq_power_integral
    sem, lq = Counter(), Counter()

    def count_sem(u, *args):
        sem[u.values.tobytes()] += 1
        return gagliardo_seminorm_p(u, *args)

    def count_lq(u, r):
        lq[u.values.tobytes(), r] += 1
        return lq_power_integral(u, r)

    replace_everywhere(monkeypatch, gagliardo_seminorm_p, count_sem)
    replace_everywhere(monkeypatch, lq_power_integral, count_lq)
    return sem, lq


def test_run_evaluates_each_step_energy_once(tmp_path, monkeypatch):
    # the trajectory owns the per-step series that trace.csv and the checks
    # read: each step u_m, m >= 1, gets one L^{q+1} power and one pair
    # operator application, in the pass that gives both its seminorm and
    # RESID's residual, and never reaches the seminorm itself.  The solver
    # takes its gradients through energy's own binding, so the pass is the
    # only reader of rothe's.
    sem, lq = count_energy_calls(monkeypatch)
    pair = Counter()
    add_pair_gradient = rothe._add_pair_gradient

    def count_pair(g, x, *args):
        pair[x.tobytes()] += 1
        return add_pair_gradient(g, x, *args)

    monkeypatch.setattr(rothe, "_add_pair_gradient", count_pair)
    trajs = []

    def keep(*args):
        trajs.append(rothe.run_flow(*args))
        return trajs[-1]

    monkeypatch.setattr(cli, "run_flow", keep)
    # the level set is skipped at s*p = dim; at s = 0.25 it runs, reads
    # [u0]^p and the scale from the trajectory, and measures its constant
    # on 64 probes
    for s, probes in ((0.5, 0), (0.25, 64)):
        sem.clear()
        lq.clear()
        pair.clear()
        trajs.clear()
        cfg = parse_config(write_cfg(
            tmp_path, f"s = {s}\noutput_dir = {tmp_path / 'out'}\n"))
        assert cmd_run(cfg) == 0
        (traj,) = trajs
        q1 = traj.params.q + 1.0
        steps = [row.tobytes() for row in traj.u[1:]]
        assert len(set(steps)) == traj.n_steps == 50
        assert all(pair[b] == 1 and sem[b] == 0 and lq[b, q1] == 1
                   for b in steps)
        assert sum(pair.values()) == traj.n_steps
        # u0: the run scale, which is also the series' first entry, and
        # POINCARE
        u0 = traj.u[0].tobytes()
        assert sem[u0] == 2
        # POINCARE's left side ||u0||_p^p is a call at r = p = q + 1 = 2 too
        assert lq[u0, q1] == 2 + (traj.kernel.p == q1)
        # 4: INIT-TREND gaps
        assert sum(sem.values()) == 1 + 1 + probes + 4


def test_trace_records_the_solver_counters(tmp_path, monkeypatch):
    # trace.csv's last four columns are each step's StepDiagnostics
    # counters, bit for bit, and 0 at step 0; they come after grad_norm, so
    # solver_iters stays the column the benchmark's gate reads.  Reruns are
    # byte-identical.
    trajs = []

    def keep(*args):
        trajs.append(rothe.run_flow(*args))
        return trajs[-1]

    monkeypatch.setattr(cli, "run_flow", keep)
    seen = Counter()
    # random data at p = 1.5 backtracks, the bump snaps, p = 3 runs CG
    for over in (dict(p=1.5, preset="random", seed=3), dict(p=1.5, q=2),
                 dict(p=3.0, preset="random", seed=3)):
        cfg = small_run_cfg(tmp_path, **over)
        assert cmd_run(cfg) == 0
        path = Path(cfg.output_dir, "trace.csv")
        blob = path.read_bytes()
        rows = [r.split(",") for r in blob.decode().splitlines()]
        assert rows[0][6:] == ["solver_iters", "grad_norm", "ray_tau",
                               "linear_iters", "backtracks", "snaps"]
        assert rows[1][6:] == ["0", "0.0", "0.0", "0", "0", "0"]
        diags = trajs[-1].diagnostics
        assert len(rows) == len(diags) + 2
        for row, d in zip(rows[2:], diags):
            assert ([int(row[6]), float(row[7]).hex(), float(row[8]).hex()]
                    + [int(c) for c in row[9:]]) == [
                d.iterations, d.grad_norm.hex(), d.ray_tau.hex(),
                d.linear_iters, d.backtracks, d.snaps]
            seen.update(name for name, value in zip(rows[0][8:], row[8:])
                        if float(value) != 0.0)
        assert cmd_run(cfg) == 0
        assert path.read_bytes() == blob
    # every counter column holds a nonzero value somewhere
    assert set(seen) == {"ray_tau", "linear_iters", "backtracks", "snaps"}


def test_run_reads_one_tolerance_everywhere(tmp_path, monkeypatch):
    # the solver's workspace, the trajectory, RESID's right side and every
    # entry's tolerance carry the run's tolerances bit for bit
    workspaces, trajs = [], []

    class Recorded(rothe._StepWorkspace):
        def __init__(self, *args):
            super().__init__(*args)
            workspaces.append(self)

    def keep(*args):
        trajs.append(rothe.run_flow(*args))
        return trajs[-1]

    monkeypatch.setattr(rothe, "_StepWorkspace", Recorded)
    monkeypatch.setattr(cli, "run_flow", keep)
    cfg = small_run_cfg(tmp_path, dim=2, omega_min="0,0", omega_max="1,1",
                        n_cells=6, p=1.5, t_end=0.06)
    assert cmd_run(cfg) == 0
    (ws,), (traj,) = workspaces, trajs
    report = json.loads(Path(cfg.output_dir, "report.json").read_text())
    entries = {e["name"]: e for e in report["entries"]}
    tol_abs = entries["RESID"]["rhs"].hex()
    assert ws.tol_abs.hex() == traj.tol_abs.hex() == tol_abs
    tol_check = report["meta"]["tol_check"].hex()
    assert traj.tol_check.hex() == tol_check
    checked = {e["name"]: e["tol"].hex() for e in entries.values()
               if "skipped" not in e}
    assert {"E1", "RESID", "ST-SOBOLEV", "LEVELSET"} <= checked.keys()
    assert set(checked.values()) == {tol_check}


def test_converge_evaluates_no_series(tmp_path, monkeypatch):
    # one seminorm per run_flow, for its tolerance scale, and nothing else
    sem, _ = count_energy_calls(monkeypatch)
    cfg = small_run_cfg(tmp_path, n_cells=16, h=0.04, t_end=0.2)
    assert cmd_converge(cfg, levels=4, gamma=1.0) == 0
    assert sum(sem.values()) == 4


def test_benchmark_layer_names_exist():
    # the traced benchmark (perfbench/tracer.py) stops with exit 70 when a
    # name in its LAYERS is gone from fracflow; catch such a deletion here.
    # Only the names are read: installing the tracer would wrap functions
    # for the rest of this process.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, names in tracer.LAYERS.items():
        mod = importlib.import_module(f"fracflow.{module}")
        for name in names:
            fn = getattr(mod, name, None)
            assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, \
                f"fracflow.{module}.{name}"


def test_test_and_tracer_names_have_no_reader_in_fracflow():
    # these names stay in fracflow only for the tests and the traced
    # benchmark (its LAYERS, and KernelTable.weights for its table size):
    # no fracflow function reads one, so retiring the tracer can delete
    # them without touching a command
    for name in ("energy_functional", "apply_frac_p_laplacian",
                 "scan_alg_constants", "minimize_step",
                 "spacetime_seminorm_w1", "rothe_gradient", "weights"):
        assert readers_of(name) == set(), name


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency and its import alone costs about
    # 0.3 s; no command may pull it in.  A fresh interpreter is needed,
    # because this test process has imported scipy already
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, fracflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_numpy_fft_loads_only_for_p2():
    # numpy loads numpy.fft on first use, and only the p = 2 interior
    # product uses it: importing the cli, or assembling and taking a step
    # at p = 1.5, leaves it unloaded, so those pay none of its import time
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "\n".join([
        "import sys, fracflow.cli",
        "from fracflow import FlowParams, assemble_kernel, build_grid,"
        " eval_preset, run_flow",
        "print('numpy.fft' in sys.modules)",
        "dom = build_grid(1, 0.0, 1.0, 16, 2.0)",
        "params = FlowParams(q=1.0, h=0.01, t_end=0.01)",
        "run_flow(eval_preset(dom, 'bump', 1.0),"
        " assemble_kernel(dom, 0.5, 1.5), params)",
        "print('numpy.fft' in sys.modules)"])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.split() == ["False", "False"]


def test_commands_never_load_numpy_random(tmp_path):
    # every seeded draw (random data, LEVELSET's Sobolev probes, ineq's
    # trials) comes from fracflow.stream, so no command pays numpy.random's
    # import (secrets, hashlib, OpenSSL: about 6 MiB of resident memory);
    # the stream itself is imported only where a command draws
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    commands = (["run"], ["converge"], ["ineq", "--trials", "200"])
    for k, args in enumerate(commands):
        write_cfg(tmp_path, "\n".join([
            "dim = 2", "omega_min = 0,0", "omega_max = 1,1", "n_cells = 12",
            "collar_factor = 1", "preset = random", "seed = 5", "t_end = 0.03",
            f"output_dir = {tmp_path / f'out{k}'}"]), name=f"{k}.cfg")
    code = "\n".join([
        "import sys",
        "from fracflow.cli import main",
        "print('fracflow.stream' in sys.modules)",
        f"for k, args in enumerate({commands!r}):",
        f"    cfg = {str(tmp_path)!r} + f'/{{k}}.cfg'",
        "    print(main([args[0], '--config', cfg, *args[1:]]))",
        "print('numpy.random' in sys.modules)"])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.split() == ["False", "0", "0", "0", "False"]
    # the draws ran: LEVELSET (64 probes) and the synthetic space-time
    # trials (integers) are entries, not skips
    for k, name in ((0, "LEVELSET"), (2, "ST-SOBOLEV-synthetic")):
        report = json.loads((tmp_path / f"out{k}" / "report.json").read_text())
        (entry,) = [e for e in report["entries"] if e["name"] == name]
        assert "skipped" not in entry


def test_byte_determinism(tmp_path):
    cfg_path = write_cfg(tmp_path, "\n".join([
        "n_cells = 12", "h = 0.02", "t_end = 0.1",
        f"output_dir = {tmp_path / 'outA'}"]))
    assert main(["run", "--config", cfg_path]) == 0
    first = {name: (tmp_path / "outA" / name).read_bytes()
             for name in ("trace.csv", "report.json")}
    assert main(["run", "--config", cfg_path]) == 0
    for name, blob in first.items():
        assert (tmp_path / "outA" / name).read_bytes() == blob

    assert main(["ineq", "--config", cfg_path, "--trials", "2000",
                 "--seed", "1"]) == 0
    blob = (tmp_path / "outA" / "report.json").read_bytes()
    assert main(["ineq", "--config", cfg_path, "--trials", "2000",
                 "--seed", "1"]) == 0
    assert (tmp_path / "outA" / "report.json").read_bytes() == blob


def test_csv_preset_via_config(tmp_path):
    from fracflow import build_grid
    dom = build_grid(1, 0.0, 1.0, 8, 2.0)
    vals = np.where(dom.interior_mask, 0.25, 0.0)
    data = tmp_path / "init.csv"
    data.write_text("\n".join(str(v) for v in vals) + "\n")
    cfg = small_run_cfg(tmp_path, n_cells=8, preset="csv",
                        csv_path=str(data))
    assert cmd_run(cfg) == 0


def test_non_finite_values_are_refused(tmp_path):
    from fracflow.serialize import dumps_json, write_csv
    for bad in (float("inf"), -float("inf"), float("nan"), np.float64("nan")):
        with pytest.raises(ValueError, match="non-finite"):
            dumps_json({"entries": [{"lhs": bad}]})
        with pytest.raises(ValueError, match="non-finite"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 0.5], [2, bad]])
        assert not (tmp_path / "t.csv").exists()


def bits(obj):
    """``obj`` with every float replaced by its exact hex form (tuples as
    lists), so ``==`` compares floats bit for bit."""
    if isinstance(obj, float):
        return float(obj).hex()
    if isinstance(obj, dict):
        return {k: bits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [bits(v) for v in obj]
    return obj


def csv_columns(path):
    """Each column of a written CSV by its header, as exact hex floats."""
    rows = [r.split(",") for r in path.read_text().splitlines()]
    return {c[0]: [float(x).hex() for x in c[1:]] for c in zip(*rows)}


def test_outputs_read_back_exactly(tmp_path, monkeypatch):
    # every float a command writes parses back to its in-memory source bit
    # for bit, and report.json is the standard JSON encoder's own text
    from fracflow.serialize import dumps_json, write_csv
    trajs, reports, studies = [], [], []
    write_report, study = cli._write_report, cli.verify.cauchy_refinement_study

    def keep_flow(*args):
        trajs.append(rothe.run_flow(*args))
        return trajs[-1]

    def keep_report(report, out_dir):
        reports.append(report)
        return write_report(report, out_dir)

    def keep_study(*args, **kwargs):
        studies.append(study(*args, **kwargs))
        return studies[-1]

    monkeypatch.setattr(cli, "run_flow", keep_flow)
    monkeypatch.setattr(cli, "_write_report", keep_report)
    monkeypatch.setattr(cli.verify, "cauchy_refinement_study", keep_study)
    over = dict(dim=2, omega_min="0,0", omega_max="1,1", n_cells=6, p=1.5,
                t_end=0.06)
    assert cmd_run(small_run_cfg(tmp_path, **over)) == 0
    conv = small_run_cfg(tmp_path, output_dir=tmp_path / "conv", **over)
    assert cmd_converge(conv, levels=3, gamma=1.0) == 0
    (traj,), (run_report, conv_report), ((_, rows),) = trajs, reports, studies

    for out, report in ((tmp_path / "out", run_report),
                        (tmp_path / "conv", conv_report)):
        text = (out / "report.json").read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert bits(json.loads(text)) == bits(report.to_dict())

    series = csv_columns(tmp_path / "out" / "trace.csv")
    assert series["lq1_pow"] == bits(list(traj.lq_pow))
    assert series["seminorm_p"] == bits(list(traj.seminorm))

    table = csv_columns(tmp_path / "conv" / "d_table.csv")
    for col, name in enumerate(("k", "h_coarse", "h_fine", "d_plus",
                                "d_minus")):
        assert table[name] == bits([float(row[col]) for row in rows])

    # the writers alone, on a subnormal, an integral float and a signed zero
    xs = [1.0 / 3.0, 1e-9, 0.1, 123456.789, 2.0 ** -1074, 1e16, -0.0]
    assert bits(json.loads(dumps_json(xs))) == bits(xs)
    write_csv(tmp_path / "x.csv", ["x"], [[x] for x in xs])
    assert csv_columns(tmp_path / "x.csv")["x"] == bits(xs)