"""Write reference.json: the outputs the correctness gate compares against.

    python3 perfbench/record_reference.py

Runs every case the benchmark can draw (the two 2D configs and all
POOL_SIZE data seeds of run-1d-slow) once, untraced, and records for each
its report entries (name, lhs, rhs, tol), its trace.csv row count and total
solver iterations (run) or its d_table.csv rows (converge).  Run it only on
a commit whose outputs are known to be right; every later run of the
benchmark is checked against what it records.
"""

from __future__ import annotations

import json
import sys
import time

import gate
import run
import workloads


def record(rc: int, out_dir: str) -> dict:
    if rc != 0:
        raise run.BenchError(f"command exited {rc}")
    report = gate.load_report(f"{out_dir}/report.json")
    failed = [e["name"] for e in report["entries"]
              if "skipped" not in e and e["pass"] is not True]
    if failed:
        raise run.BenchError(f"entries {failed} do not pass")
    ref = {"entries": [{k: e[k] for k in ("name", "lhs", "rhs", "tol")}
                       for e in report["entries"]]}
    if report["meta"].get("n_steps") is not None:
        ref["trace_rows"] = report["meta"]["n_steps"] + 1
        ref["iterations"] = sum(gate.solver_iterations(out_dir))
    else:
        ref["d_table"] = gate.load_csv(f"{out_dir}/d_table.csv")
    return ref


def main() -> int:
    cases = []
    for wl in workloads.WORKLOADS.values():
        seeds = range(workloads.POOL_SIZE) if wl.seeded else [None]
        cases += [workloads.make_case(wl, s) for s in seeds]
    refs = {}
    for case in cases:
        res = run.execute(case, time.perf_counter() + 600.0, record)
        refs[case.key] = res["inspected"]
        extra = f", {refs[case.key].get('iterations')} iterations" \
            if "iterations" in refs[case.key] else ""
        print(f"{case.key}: {res['wall_s']:.2f} s{extra}", flush=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump({"cases": refs}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
