"""fracflow benchmark: fixed CLI commands, timed end to end or traced per layer.

    python3 perfbench/run.py --workload run-2d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Every command runs in a fresh interpreter, in a fresh working directory, with
one BLAS/OpenMP thread, one command at a time (a closed loop: the next
command starts when the previous one has exited).  Each command must pass
the correctness gate in ``gate.py``.

``--trace 0`` measures the end-to-end metrics: ``wall_s`` (process start to
exit, median over the run's cases of each case's median), ``setup_s``
(median time of a fresh interpreter running ``import fracflow.cli``),
``peak_rss_mb`` (the command's own peak RSS from ``wait4``) and
``pass_frac`` (commands that passed the gate over commands attempted).
``--trace 1`` runs each case once untraced and twice under ``tracer.py`` and
reports the per-layer metrics (medians over traced commands).  The two
traced runs of a case must give identical work counts; a difference is
reported as nondeterminism.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A detailed record
(machine facts, every sample, per-seed iteration counts, spans) goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import gate
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
RESULTS = os.path.join(HERE, "results")
REFERENCE = os.path.join(HERE, "reference.json")

# Set in every child.  One thread each: on a 2-core machine default BLAS
# threading once made a 1 ms solve take 100 ms.
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_REPEATS = 9
HARD_LIMIT_S = 165.0    # a run must end well within 180 s

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
         "pass_frac": "ratio"}
for _name in tracer.TIME_METRICS:
    UNITS[f"{_name}_s"] = "s"
UNITS.update({"rothe.steps": "count", "rothe.iters": "count",
              "rothe.iters_max_step": "count", "rothe.ms_per_iter": "ms",
              "energy.scan_calls": "count", "energy.seminorm_calls": "count",
              "kernel.table_mb": "MiB", "serialize.bytes": "bytes",
              "trace.wall_s": "s", "trace.overhead_s": "s",
              "trace.untraced_s": "s", "trace.count_mismatches": "count"})


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_THREADS)
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv: list, cwd: str, deadline: float) -> tuple:
    """Run one process to completion.

    Returns (exit code, wall s, CPU s, peak RSS MiB), the last two from the
    child's own ``wait4`` resource usage.

    The wall time runs from just before the process is created to the moment
    it has exited.  A process still running at ``deadline`` (perf_counter
    time) is killed.
    """
    with open(os.path.join(cwd, "stdout.txt"), "w") as out, \
            open(os.path.join(cwd, "stderr.txt"), "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=out, stderr=err)
    lock = threading.Lock()
    exited = False

    def kill():
        with lock:
            if not exited:
                proc.send_signal(signal.SIGKILL)

    timer = threading.Timer(max(0.0, deadline - time.perf_counter()), kill)
    timer.start()
    try:
        # wait without reaping, so the timer can never signal a reused pid
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - t0
        with lock:
            exited = True
    finally:
        timer.cancel()
        timer.join()
        if not exited:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def fresh_dir() -> str:
    os.makedirs(WORK, exist_ok=True)
    return tempfile.mkdtemp(dir=WORK)


def stderr_tail(cwd: str) -> str:
    with open(os.path.join(cwd, "stderr.txt")) as fh:
        return fh.read()[-2000:]


def execute(case: workloads.Case, deadline: float, inspect,
            trace_id: int | None = None) -> dict:
    """Run one case cold in a fresh directory, untraced or traced.

    ``inspect(returncode, out_dir)`` reads the outputs before the directory
    is removed; its result is stored under "inspected"."""
    cwd = fresh_dir()
    try:
        with open(os.path.join(cwd, "run.cfg"), "w") as fh:
            fh.write(case.config_text)
        if trace_id is None:
            argv = [sys.executable, "-m", "fracflow.cli", *case.argv]
        else:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"),
                    "spans.json", str(trace_id), "--", *case.argv]
        rc, wall, cpu, rss = run_child(argv, cwd, deadline)
        if rc == tracer.EXIT_MISSING_LAYER and trace_id is not None:
            raise BenchError(stderr_tail(cwd).strip())
        res = {"case": case.key, "rc": rc, "wall_s": wall, "cpu_s": cpu,
               "peak_rss_mb": rss,
               "inspected": inspect(rc, os.path.join(cwd, "out"))}
        if rc != 0:
            res["stderr"] = stderr_tail(cwd)
        if trace_id is not None and os.path.exists(os.path.join(cwd, "spans.json")):
            with open(os.path.join(cwd, "spans.json")) as fh:
                res["spans"] = json.load(fh)
        return res
    finally:
        shutil.rmtree(cwd, ignore_errors=True)


def gated(reference: dict, case: workloads.Case):
    """Inspector that applies the correctness gate and keeps the per-step
    solver iterations of a run."""
    def inspect(rc, out_dir):
        problems = gate.check_command(rc, out_dir, reference["cases"][case.key])
        iters = None
        if not problems and "trace_rows" in reference["cases"][case.key]:
            iters = gate.solver_iterations(out_dir)
        return {"problems": problems, "iterations": iters}
    return inspect


def measure_setup(deadline: float) -> list:
    """Seconds for a fresh interpreter to import fracflow.cli, repeated.

    The first import compiles the sources to bytecode and is not counted."""
    cwd = fresh_dir()
    try:
        argv = [sys.executable, "-c", "import fracflow.cli"]
        times = []
        for i in range(SETUP_REPEATS + 1):
            rc, wall, _, _ = run_child(argv, cwd, deadline)
            if rc != 0:
                raise BenchError("import fracflow.cli failed:\n" + stderr_tail(cwd))
            if i:
                times.append(wall)
        return times
    finally:
        shutil.rmtree(cwd, ignore_errors=True)


def machine_facts(deadline: float) -> dict:
    """Hardware and software facts recorded with every result; also checks
    that the children import fracflow from this checkout's sources."""
    probe = ("import json, sys, numpy, fracflow\n"
             "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
             "print(json.dumps({'fracflow': fracflow.__file__,"
             " 'numpy': numpy.__version__, 'blas': blas.get('name'),"
             " 'blas_version': blas.get('version')}))\n")
    cwd = fresh_dir()
    try:
        rc, _, _, _ = run_child([sys.executable, "-c", probe], cwd, deadline)
        if rc != 0:
            raise BenchError("cannot import fracflow and numpy:\n" + stderr_tail(cwd))
        with open(os.path.join(cwd, "stdout.txt")) as fh:
            facts = json.loads(fh.read())
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    if not os.path.abspath(facts["fracflow"]).startswith(SRC + os.sep):
        raise BenchError(f"children import fracflow from {facts['fracflow']}, "
                         f"not from {SRC}")
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    facts.update({"nproc": os.cpu_count(),
                  "usable_cpus": len(os.sched_getaffinity(0)),
                  "cpu_model": cpu, "python": platform.python_version(),
                  "platform": platform.platform(),
                  "child_env": dict(CHILD_THREADS)})
    return facts


def median_of_cases(samples: list, field: str) -> float:
    """Median over cases of each case's median; passing commands only,
    unless none passed."""
    ok = [s for s in samples if not s["inspected"]["problems"]] or samples
    by_case = {}
    for s in ok:
        by_case.setdefault(s["case"], []).append(s[field])
    return statistics.median(statistics.median(v) for v in by_case.values())


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_untraced(cases, seconds, start, deadline, reference) -> tuple:
    samples = []
    i = 0
    while i < len(cases) or time.perf_counter() - start < seconds:
        case = cases[i % len(cases)]
        samples.append(execute(case, deadline, gated(reference, case)))
        i += 1
    metrics = {"wall_s": median_of_cases(samples, "wall_s"),
               "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples)}
    return samples, metrics


def run_traced(cases, seconds, start, deadline, reference) -> tuple:
    """Per case: one untraced command, then two traced ones.  Unlike the
    untraced loop this one need not reach every case."""
    samples, layer_runs, overheads, mismatches = [], [], [], []
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        case = cases[i % len(cases)]
        plain = execute(case, deadline, gated(reference, case))
        pair = [execute(case, deadline, gated(reference, case),
                        trace_id=2 * i + k) for k in (0, 1)]
        samples += [plain, *pair]
        runs = [tracer.layer_metrics(t.get("spans", []), t["wall_s"])
                for t in pair]
        diff = {k: (runs[0][k], runs[1][k]) for k in tracer.COUNT_METRICS
                if runs[0][k] != runs[1][k]}
        if diff:
            mismatches.append({"case": case.key, "counts": diff})
        layer_runs += runs
        overheads.append(statistics.median(t["wall_s"] for t in pair)
                         - plain["wall_s"])
        i += 1
    metrics = {k: statistics.median(r[k] for r in layer_runs)
               for k in layer_runs[0]}
    metrics["trace.overhead_s"] = statistics.median(overheads)
    metrics["trace.count_mismatches"] = len(mismatches)
    return samples, metrics, mismatches


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 reference: dict, facts: dict) -> dict:
    wl = workloads.WORKLOADS[name]
    pool = {int(k.rsplit("seed", 1)[1]): v["iterations"]
            for k, v in reference["cases"].items()
            if k.startswith(f"{name}/seed")}
    cases = workloads.draw_cases(wl, seed, pool)
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    mismatches = []
    if trace:
        samples, metrics, mismatches = run_traced(
            cases, seconds, start, deadline, reference)
    else:
        setup = measure_setup(deadline)
        samples, metrics = run_untraced(cases, seconds, start, deadline, reference)
        metrics["setup_s"] = statistics.median(setup)
    failed = sum(bool(s["inspected"]["problems"]) for s in samples)
    if not trace:
        metrics["pass_frac"] = 1.0 - failed / len(samples)
    walls = [s["wall_s"] for s in samples if "spans" not in s]
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": facts, "cases": [c.key for c in cases],
        "attempted": len(samples), "failed": failed,
        "wall_samples": {"n": len(walls), "median": statistics.median(walls),
                         "quartiles": quartiles(walls)},
        "metrics": metrics, "nondeterminism": mismatches,
        "iterations": {s["case"]: s["inspected"]["iterations"] for s in samples
                       if s["inspected"]["iterations"] is not None},
        "samples": samples,
    }
    if not trace:
        result["setup_samples"] = setup
    return result


def report(res: dict) -> None:
    """Human-readable summary of one workload run."""
    print(f"== {res['workload']}  seed={res['seed']}  trace={res['trace']}  "
          f"cases={', '.join(res['cases'])}")
    ws = res["wall_samples"]
    print(f"   commands: attempted={res['attempted']} failed={res['failed']} "
          f"fail_frac={res['failed'] / res['attempted']:.4g}; untraced wall "
          f"median {ws['median']:.4f} s, quartiles {ws['quartiles'][0]:.4f} / "
          f"{ws['quartiles'][1]:.4f} s, n={ws['n']}")
    for key, metric in sorted(res["metrics"].items()):
        print(f"   {key:28s} {metric:14.6g} {UNITS[key]}")
    for case, iters in sorted(res["iterations"].items()):
        print(f"   iterations {case}: total {sum(iters)}, max step {max(iters)}")
    for m in res["nondeterminism"]:
        print(f"   NONDETERMINISM {m['case']}: {m['counts']}")
    for s in res["samples"]:
        for p in s["inspected"]["problems"]:
            print(f"   FAILED {s['case']}: {p}")


def save(res: dict) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{res['workload']}-seed{res['seed']}"
                                 f"-trace{res['trace']}.json")
    with open(path, "w") as fh:
        json.dump(res, fh, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fracflow", "cli.py")):
        print(f"error: fracflow sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        with open(REFERENCE) as fh:
            reference = json.load(fh)
        names = (list(workloads.WORKLOADS) if args.workload == "all"
                 else [args.workload])
        facts = machine_facts(time.perf_counter() + HARD_LIMIT_S)
        print("machine: " + json.dumps(facts))
        results = []
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace),
                               reference, facts)
            save(res)
            report(res)
            results.append(res)
    except (BenchError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else f"{res['workload']}/"
        for key, value in res["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": UNITS[key]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
