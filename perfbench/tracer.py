"""Traced fracflow command: spans around every public layer function.

Run as a child process in place of ``python -m fracflow.cli``::

    python tracer.py SPANS_JSON CMD_ID -- run --config run.cfg

It imports fracflow, wraps each public function of the layer modules, runs
``fracflow.cli.main`` with the remaining arguments, keeps one span per call
in memory (name, start, end, parent span, command id, counts) and writes all
spans to SPANS_JSON when the command returns.  The exit code is the
command's own.

The modules bind each other's functions with ``from`` imports (``cli`` and
``verify`` hold their own ``run_flow``, ``gagliardo_seminorm_p``, ...), so a
wrapper replaces the function in every fracflow namespace that holds it.
A name in ``LAYERS`` that a module no longer defines is an error: the traced
run stops instead of silently losing that layer from the numbers.

``layer_metrics`` (used by ``run.py``) turns the spans of one command into
the per-layer metrics: self time (a span's duration minus the part its child
spans cover) summed per layer, plus the counts recorded at the boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

MODULES = ("cli", "grid", "kernel", "energy", "rothe", "verify", "serialize")

# Per-element helpers called inside the solver's inner loop or once per
# output float: a span there costs more than the work it would measure.
NOT_WRAPPED = {"energy": {"sgn_power"}, "serialize": {"fmt_float"}}

# Layer of each function a metric is built from.  Every name here must exist;
# other public functions are wrapped too and land in "<module>.other".
LAYERS = {
    "cli": {"main": "cli.command", "cmd_run": "cli.command",
            "cmd_converge": "cli.command", "cmd_ineq": "cli.command",
            "parse_config": "cli.parse_config"},
    "grid": {"build_grid": "grid.build", "eval_preset": "grid.build"},
    "kernel": {"assemble_kernel": "kernel.assemble"},
    "energy": {"gagliardo_seminorm_p": "energy.seminorm",
               "energy_functional": "energy.seminorm",
               "scan_alg_constants": "energy.scan",
               "alg_ratios": "energy.scan",
               "rothe_gradient": "energy.residual_grad",
               "apply_frac_p_laplacian": "energy.residual_grad"},
    "rothe": {"run_flow": "rothe.run_flow", "minimize_step": "rothe.run_flow",
              "reconstruct": "rothe.reconstruct"},
    "verify": {"check_energy_estimates": "verify.energy",
               "check_time_derivative_bounds": "verify.time_derivative",
               "check_max_principle": "verify.max_principle",
               "check_truncation_energy": "verify.truncation",
               "check_weak_residual": "verify.weak_residual",
               "check_poincare": "verify.poincare",
               "check_spacetime_sobolev": "verify.spacetime",
               "check_spacetime_sobolev_values": "verify.spacetime",
               "spacetime_seminorm_values": "verify.spacetime",
               "spacetime_seminorm_w1": "verify.spacetime",
               "chebyshev_level_sets": "verify.levelset",
               "measure_sobolev_constant": "verify.sobolev_constant",
               "check_initial_trend": "verify.initial_trend",
               "cauchy_refinement_study": "verify.cauchy"},
    "serialize": {"dumps_json": "serialize.write", "write_csv": "serialize.write"},
}

# Spans of the command entry points; time in them outside every other span
# counts as untraced.
ROOT_LAYER = "cli.command"

TIME_METRICS = (
    "rothe.run_flow", "rothe.reconstruct", "energy.scan", "energy.seminorm",
    "energy.residual_grad", "verify.energy", "verify.time_derivative",
    "verify.max_principle", "verify.truncation", "verify.weak_residual",
    "verify.poincare", "verify.spacetime", "verify.levelset",
    "verify.sobolev_constant", "verify.initial_trend", "verify.cauchy",
    "kernel.assemble", "cli.parse_config", "grid.build", "serialize.write")

# Counts that must repeat exactly when the same command runs twice.
COUNT_METRICS = ("rothe.steps", "rothe.iters", "rothe.iters_max_step",
                 "energy.scan_calls", "energy.seminorm_calls",
                 "kernel.table_mb", "serialize.bytes")


EXIT_MISSING_LAYER = 70


class MissingLayer(RuntimeError):
    pass


def _counts(name: str, args: tuple, result) -> dict:
    """Work counts read at a layer boundary from the call and its result."""
    if name == "run_flow":
        return {"iters": [d.iterations for d in result.diagnostics]}
    if name == "assemble_kernel":
        return {"table_bytes": int(result.weights.nbytes)}
    if name == "write_csv":
        return {"bytes": os.path.getsize(args[0])}
    if name == "dumps_json":
        return {"bytes": len(result.encode())}
    return {}


class Tracer:
    """Span recorder for one command; spans stay in memory until ``dump``."""

    def __init__(self, cmd_id: int):
        self.cmd_id = cmd_id
        self.spans = []
        self._stack = []

    def wrap(self, module: str, name: str, fn):
        spans, stack, cmd_id = self.spans, self._stack, self.cmd_id
        label = f"{module}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": label, "parent": stack[-1] if stack else None,
                    "cmd": cmd_id, "start": time.perf_counter()}
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            span.update(_counts(name, args, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of MODULES in every fracflow namespace
        that binds it."""
        mods = {m: importlib.import_module(f"fracflow.{m}") for m in MODULES}
        namespaces = [mod for key, mod in sys.modules.items()
                      if key == "fracflow" or key.startswith("fracflow.")]
        for m, names in LAYERS.items():
            missing = sorted(n for n in names
                             if not inspect.isfunction(getattr(mods[m], n, None)))
            if missing:
                raise MissingLayer(f"fracflow.{m} no longer defines {missing}; "
                                   f"update LAYERS in {__file__}")
        for m, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or name in NOT_WRAPPED.get(m, ())):
                    continue
                traced = self.wrap(m, name, fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def layer_of(span_name: str) -> str:
    module, name = span_name.split(".", 1)
    return LAYERS.get(module, {}).get(name, f"{module}.other")


def self_times(spans: list) -> list:
    """Self time of each span: duration minus the union of its children.

    Children of one span run one after another (one thread), so the union
    is the sum of their durations."""
    child = [0.0] * len(spans)
    for sp in spans:
        if sp["parent"] is not None:
            child[sp["parent"]] += sp["end"] - sp["start"]
    return [sp["end"] - sp["start"] - c for sp, c in zip(spans, child)]


def layer_metrics(spans: list, wall_s: float) -> dict:
    """Per-layer metrics of one traced command (values only, no units)."""
    times = dict.fromkeys(TIME_METRICS, 0.0)
    covered = 0.0
    for sp, own in zip(spans, self_times(spans)):
        layer = layer_of(sp["name"])
        if layer in times:
            times[layer] += own
        if layer != ROOT_LAYER:
            covered += own
    out = {f"{k}_s": v for k, v in times.items()}
    iters = [i for sp in spans if sp["name"] == "rothe.run_flow"
             for i in sp["iters"]]
    out["rothe.steps"] = len(iters)
    out["rothe.iters"] = sum(iters)
    out["rothe.iters_max_step"] = max(iters, default=0)
    out["rothe.ms_per_iter"] = (1e3 * times["rothe.run_flow"] / sum(iters)
                                if sum(iters) else 0.0)
    out["energy.scan_calls"] = sum(sp["name"] == "energy.scan_alg_constants"
                                   for sp in spans)
    out["energy.seminorm_calls"] = sum(sp["name"] == "energy.gagliardo_seminorm_p"
                                       for sp in spans)
    out["kernel.table_mb"] = sum(sp.get("table_bytes", 0) for sp in spans) / 2 ** 20
    out["serialize.bytes"] = sum(sp.get("bytes", 0) for sp in spans)
    out["trace.wall_s"] = wall_s
    out["trace.untraced_s"] = wall_s - covered
    return out


def main(argv: list) -> int:
    if len(argv) < 4 or argv[2] != "--":
        print("usage: tracer.py SPANS_JSON CMD_ID -- FRACFLOW_ARGS...",
              file=sys.stderr)
        return 2
    tracer = Tracer(int(argv[1]))
    try:
        tracer.install()
    except MissingLayer as err:
        print(f"tracer: {err}", file=sys.stderr)
        return EXIT_MISSING_LAYER
    import fracflow.cli
    try:
        return fracflow.cli.main(argv[3:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
