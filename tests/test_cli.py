import json
import os
import sys

import numpy as np
import pytest

from fracflow import cli, rothe
from fracflow.cli import (ConfigError, RunConfig, parse_config, cmd_run,
                          cmd_converge, cmd_ineq, main)


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
check_poincare = false
"""))
    assert cfg.s == 0.25 and cfg.preset == "random" and cfg.seed == 9
    assert cfg.check_poincare is False


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
    # fast-diffusion value is fine
    assert parse_config(write_cfg(tmp_path, "q = 0.5\n")).q == 0.5


def test_unknown_key_reports_line(tmp_path):
    with pytest.raises(ConfigError, match=":3: unknown key 'frobnicate'"):
        parse_config(write_cfg(tmp_path, "s = 0.5\n\nfrobnicate = 1\n"))
    with pytest.raises(ConfigError, match=":1: expected key = value"):
        parse_config(write_cfg(tmp_path, "what even is this\n"))
    with pytest.raises(ConfigError, match=":2:"):
        parse_config(write_cfg(tmp_path, "s = 0.5\nseed = banana\n"))


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
    rows = open(os.path.join(cfg.output_dir, "trace.csv")).read().splitlines()
    assert rows[0].startswith("step,time,lq1_pow,seminorm_p,linf")
    for row in rows[1:]:
        cells = row.split(",")
        assert float(cells[2]) == 0.0 and float(cells[3]) == 0.0


def test_cmd_run_bump_trace_monotone(tmp_path):
    cfg = small_run_cfg(tmp_path)
    assert cmd_run(cfg) == 0
    rows = open(os.path.join(cfg.output_dir, "trace.csv")).read().splitlines()
    sem = [float(r.split(",")[3]) for r in rows[1:]]
    assert all(a >= b for a, b in zip(sem, sem[1:]))
    report = json.load(open(os.path.join(cfg.output_dir, "report.json")))
    assert report["entries"] and all(e["pass"] for e in report["entries"])
    for e in report["entries"]:
        assert set(e) >= {"name", "paper_ref", "lhs", "rhs", "constant_used",
                          "margin", "pass"}


def test_cmd_run_nonconvergence_exit_code(tmp_path):
    cfg = small_run_cfg(tmp_path, p=1.5, q=0.5, preset="step",
                        solver_max_iter=1)
    assert cmd_run(cfg) == 3


def test_cmd_run_check_failure_exit_code(tmp_path, monkeypatch):
    cfg = small_run_cfg(tmp_path)
    failing = cli.verify.CheckEntry(name="MAX", ref="sup-norm-bound",
                                    lhs=2.0, rhs=1.0)
    monkeypatch.setattr(cli.verify, "check_max_principle",
                        lambda traj: failing)
    assert cmd_run(cfg) == 4


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_cmd_run_overflow_writes_no_output(tmp_path, capsys, monkeypatch):
    # the seminorm of this data overflows to inf; that must be refused with
    # an error before any step is solved, not written as a bare inf that
    # strict JSON readers reject
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
    assert os.listdir(tmp_path / "out") == []
    assert solved == []


def test_cmd_converge_writes_table(tmp_path):
    cfg = small_run_cfg(tmp_path, n_cells=16, h=0.04, t_end=0.2)
    assert cmd_converge(cfg, levels=3, gamma=1.0) == 0
    rows = open(os.path.join(cfg.output_dir, "d_table.csv")).read().splitlines()
    assert rows[0] == "k,h_coarse,h_fine,d_plus,d_minus"
    assert len(rows) == 3
    d_plus = [float(r.split(",")[3]) for r in rows[1:]]
    assert d_plus[0] > d_plus[1] > 0.0


def test_cmd_ineq_passes_and_reports(tmp_path):
    cfg = small_run_cfg(tmp_path, n_cells=8)
    assert cmd_ineq(cfg, trials=2000, seed=5) == 0
    report = json.load(open(os.path.join(cfg.output_dir, "report.json")))
    names = [e["name"] for e in report["entries"]]
    assert "ALG1-alpha1.5" in names and "ALG2-alpha4" in names
    assert "POINCARE-random" in names and "ST-SOBOLEV-synthetic" in names


def test_no_command_runs_the_constant_scan(tmp_path, monkeypatch):
    # the reports use the closed-form constants; the scan is a test oracle.
    # q = 1.7 (alpha = 2.7 and 2.35) is used by no other test, so no constant
    # computed earlier in this process can stand in for a scan.
    from fracflow.energy import scan_alg_constants

    def refuse(*args, **kwargs):
        raise AssertionError("a command ran scan_alg_constants")

    for key, mod in list(sys.modules.items()):
        if key == "fracflow" or key.startswith("fracflow."):
            for attr, value in list(vars(mod).items()):
                if value is scan_alg_constants:
                    monkeypatch.setattr(mod, attr, refuse)
    assert cmd_run(small_run_cfg(tmp_path, q=1.7)) == 0
    assert cmd_ineq(small_run_cfg(tmp_path, n_cells=8), trials=2000,
                    seed=5) == 0


def test_byte_determinism(tmp_path):
    cfg_path = write_cfg(tmp_path, "\n".join([
        "n_cells = 12", "h = 0.02", "t_end = 0.1",
        f"output_dir = {tmp_path / 'outA'}"]))
    assert main(["run", "--config", cfg_path]) == 0
    first = {name: open(tmp_path / "outA" / name, "rb").read()
             for name in ("trace.csv", "report.json")}
    assert main(["run", "--config", cfg_path]) == 0
    for name, blob in first.items():
        assert open(tmp_path / "outA" / name, "rb").read() == blob

    assert main(["ineq", "--config", cfg_path, "--trials", "2000",
                 "--seed", "1"]) == 0
    blob = open(tmp_path / "outA" / "report.json", "rb").read()
    assert main(["ineq", "--config", cfg_path, "--trials", "2000",
                 "--seed", "1"]) == 0
    assert open(tmp_path / "outA" / "report.json", "rb").read() == blob


def test_csv_preset_via_config(tmp_path):
    from fracflow import build_grid
    dom = build_grid(1, 0.0, 1.0, 8, 2.0)
    vals = np.where(dom.interior_mask, 0.25, 0.0)
    data = tmp_path / "init.csv"
    data.write_text("\n".join(str(v) for v in vals) + "\n")
    cfg = small_run_cfg(tmp_path, n_cells=8, preset="csv",
                        csv_path=str(data))
    assert cmd_run(cfg) == 0


def test_seventeen_digit_floats(tmp_path):
    from fracflow.serialize import dumps_json, fmt_float, write_csv
    for x in (1.0 / 3.0, 1e-9, 0.1, 123456.789):
        assert float(fmt_float(x)) == x
    for bad in (float("inf"), -float("inf"), float("nan"), np.float64("nan")):
        with pytest.raises(ValueError, match="non-finite"):
            dumps_json({"entries": [{"lhs": bad}]})
        with pytest.raises(ValueError, match="non-finite"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 0.5], [2, bad]])
        assert not (tmp_path / "t.csv").exists()
