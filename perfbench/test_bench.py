"""Tests of the benchmark's correctness gate and span accounting.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_bench.py
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gate  # noqa: E402
import tracer  # noqa: E402

REF = {
    "entries": [
        {"name": "E1", "lhs": 0.5, "rhs": 1.0, "tol": 1e-8},
        {"name": "RESID", "lhs": 1e-10, "rhs": 1e-9, "tol": 1e-8},
        {"name": "INIT-TREND", "lhs": 0.01, "rhs": 10.0, "tol": 0.0},
    ],
    "trace_rows": 3,
}

GOOD_REPORT = """{
  "meta": {"n_steps": 2},
  "entries": [
    {"name": "E1", "lhs": 0.50000000001, "rhs": 1, "pass": true, "tol": 1e-8},
    {"name": "RESID", "lhs": 3e-10, "rhs": 1e-9, "pass": true, "tol": 1e-8},
    {"name": "INIT-TREND", "lhs": 0.01, "rhs": 10.0, "pass": true,
     "tol": 0, "skipped": "informational trend only"}
  ]
}
"""

TRACE_CSV = ("step,time,lq1_pow,seminorm_p,linf,dissipation_step,solver_iters,grad_norm\n"
             "0,0,1,2,1,0,0,0\n1,0.01,0.9,1.8,0.9,0.1,7,1e-10\n"
             "2,0.02,0.8,1.6,0.8,0.1,5,2e-10\n")


def write_outputs(path, report_text, trace_text=TRACE_CSV):
    path.mkdir(exist_ok=True)
    (path / "report.json").write_text(report_text)
    (path / "trace.csv").write_text(trace_text)
    return str(path)


def test_good_report_passes(tmp_path):
    out = write_outputs(tmp_path / "out", GOOD_REPORT)
    assert gate.check_command(0, out, REF) == []
    assert gate.solver_iterations(out) == [7, 5]


@pytest.mark.parametrize("mutate", [
    lambda t: t.replace('"lhs": 0.50000000001, "rhs": 1, "pass": true',
                        '"lhs": 0.50000000001, "rhs": 1, "pass": false'),
    lambda t: t.replace('"lhs": 3e-10', '"lhs": NaN'),
    lambda t: t.replace('"lhs": 3e-10', '"lhs": Infinity'),
    lambda t: t.replace('"lhs": 3e-10', '"lhs": inf'),
    lambda t: t.replace('"rhs": 10.0', '"rhs": 10.01'),
    lambda t: t.replace('"lhs": 0.50000000001', '"lhs": 0.5001'),
], ids=["flipped-pass", "nan", "infinity", "bare-inf", "wrong-rhs", "wrong-lhs"])
def test_bad_report_fails(tmp_path, mutate):
    bad = mutate(GOOD_REPORT)
    assert bad != GOOD_REPORT
    assert gate.check_command(0, write_outputs(tmp_path / "out", bad), REF)


def test_missing_or_extra_entry_fails(tmp_path):
    report = json.loads(GOOD_REPORT)
    missing = dict(report, entries=report["entries"][:2])
    out = write_outputs(tmp_path / "a", json.dumps(missing))
    assert gate.check_command(0, out, REF)
    extra = dict(report, entries=report["entries"] + [report["entries"][0]])
    out = write_outputs(tmp_path / "b", json.dumps(extra))
    assert gate.check_command(0, out, REF)


def test_exit_code_and_missing_outputs_fail(tmp_path):
    out = write_outputs(tmp_path / "out", GOOD_REPORT)
    assert gate.check_command(4, out, REF) == ["exit code 4"]
    assert gate.check_command(0, str(tmp_path / "absent"), REF)
    lines = TRACE_CSV.splitlines(keepends=True)
    out = write_outputs(tmp_path / "short", GOOD_REPORT, "".join(lines[:-1]))
    assert gate.check_command(0, out, REF)
    out = write_outputs(tmp_path / "cut", GOOD_REPORT, TRACE_CSV[:-20])
    assert gate.check_command(0, out, REF)
    out = write_outputs(tmp_path / "nan", GOOD_REPORT, TRACE_CSV.replace("1e-10", "nan"))
    assert gate.check_command(0, out, REF)


def test_d_table_must_match_and_decrease():
    ref = [[0, 0.01, 0.005, 1e-4, 0.0], [1, 0.005, 0.0025, 5e-5, 0.0]]
    assert gate.check_d_table([list(r) for r in ref], ref) == []
    moved = [list(r) for r in ref]
    moved[1][3] = 5.1e-5
    assert gate.check_d_table(moved, ref)
    assert gate.check_d_table(ref[:1], ref)
    growing = [[0, 0.01, 0.005, 5e-5, 0.0], [1, 0.005, 0.0025, 1e-4, 0.0]]
    assert any("decrease" in p for p in gate.check_d_table(growing, growing))


def span(name, start, end, parent, **counts):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "cmd": 0, **counts}


def test_self_time_and_layer_metrics():
    spans = [
        span("cli.main", 0.0, 10.0, None),
        span("verify.check_spacetime_sobolev", 1.0, 5.0, 0),
        span("energy.gagliardo_seminorm_p", 2.0, 3.0, 1),
        span("verify.cauchy_refinement_study", 5.0, 9.0, 0),
        span("rothe.run_flow", 5.5, 8.5, 3, iters=[4, 6]),
        span("energy.scan_alg_constants", 6.0, 7.0, 4),
        span("kernel.assemble_kernel", 9.0, 9.5, 0, table_bytes=2 ** 21),
    ]
    assert tracer.self_times(spans) == [1.5, 3.0, 1.0, 1.0, 2.0, 1.0, 0.5]
    m = tracer.layer_metrics(spans, wall_s=10.5)
    assert m["verify.spacetime_s"] == 3.0
    assert m["verify.cauchy_s"] == 1.0
    assert m["rothe.run_flow_s"] == 2.0
    assert m["energy.scan_s"] == 1.0 and m["energy.scan_calls"] == 1
    assert m["energy.seminorm_calls"] == 1
    assert (m["rothe.steps"], m["rothe.iters"], m["rothe.iters_max_step"]) == (2, 10, 6)
    assert m["rothe.ms_per_iter"] == 200.0
    assert m["kernel.table_mb"] == 2.0
    # wall minus everything covered below the command entry point
    assert m["trace.untraced_s"] == pytest.approx(10.5 - 8.5)


def test_missing_layer_name_fails_loudly(monkeypatch):
    pytest.importorskip("fracflow")
    monkeypatch.setitem(tracer.LAYERS, "rothe",
                        dict(tracer.LAYERS["rothe"], run_flow_v2="rothe.run_flow"))
    with pytest.raises(tracer.MissingLayer, match="run_flow_v2"):
        tracer.Tracer(0).install()
