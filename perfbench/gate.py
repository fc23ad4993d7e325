"""Correctness gate for one fracflow command.

A command passes when it exited 0 and its outputs match the reference that
``record_reference.py`` wrote at a known-good commit:

- ``report.json`` parses as strict JSON (no NaN or Infinity);
- every entry that is not skipped has ``"pass": true``;
- the entry names are the reference's, in the same order;
- each ``lhs``/``rhs`` is finite and within ``RTOL * |ref| + tol`` of the
  reference, where ``tol`` is the entry's own check tolerance
  (``10 * solver_tol * scale`` for trajectory checks, 0 for the others);
- ``run`` wrote a finite ``trace.csv`` with the reference's step count;
- ``converge`` wrote a ``d_table.csv`` whose distances match the reference
  the same way and decrease from row to row.

RTOL is loose enough to accept a trajectory that moved within the solver
tolerance, and reordered sums (about 1e-15 relative).  Re-solving the
workloads at ``solver_tol`` 1e-10 or 1e-11 instead of 1e-9 moves the
converge-2d distances by up to 2.7e-6 relative (the gradient path stops
loosely), and no run entry by more than its ``tol``.  RTOL is tight enough
to fail a wrong constant or a dropped term: scaling the Poincare or the E3
constant by 1.001, or dropping the seminorm's tail term, fails the gate.
"""

from __future__ import annotations

import csv
import json
import math
import os

RTOL = 1e-4


class GateError(ValueError):
    pass


def _reject_constant(name: str):
    raise GateError(f"non-finite JSON number {name}")


def load_report(path: str) -> dict:
    """Parse report.json, rejecting NaN/Infinity and malformed entries."""
    with open(path) as fh:
        text = fh.read()
    try:
        report = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as err:
        raise GateError(f"report.json is not valid JSON: {err}") from None
    entries = report.get("entries") if isinstance(report, dict) else None
    if not isinstance(entries, list):
        raise GateError("report.json has no entries list")
    for e in entries:
        if not isinstance(e, dict) or not isinstance(e.get("name"), str):
            raise GateError(f"malformed entry {e!r}")
        for side in ("lhs", "rhs"):
            v = e.get(side)
            if isinstance(v, bool) or not isinstance(v, (int, float)) \
                    or not math.isfinite(v):
                raise GateError(f"{e['name']}: {side} is not a finite number")
    return report


def load_csv(path: str) -> list:
    """Rows of a fracflow CSV as lists of floats; every cell must be finite."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    out = []
    for row in rows:
        if len(row) != len(header):
            raise GateError(f"{os.path.basename(path)}: short row {row!r}")
        try:
            vals = [float(c) for c in row]
        except ValueError:
            raise GateError(f"{os.path.basename(path)}: bad row {row!r}") from None
        if not all(math.isfinite(v) for v in vals):
            raise GateError(f"{os.path.basename(path)}: non-finite row {row!r}")
        out.append(vals)
    return out


def _close(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= RTOL * abs(ref) + tol


def check_report(report: dict, ref_entries: list) -> list:
    """Problems found comparing one parsed report with its reference."""
    problems = []
    names = [e["name"] for e in report["entries"]]
    ref_names = [e["name"] for e in ref_entries]
    if names != ref_names:
        return [f"entry names {names} differ from reference {ref_names}"]
    for e, r in zip(report["entries"], ref_entries):
        if "skipped" not in e and e.get("pass") is not True:
            problems.append(f"{e['name']}: pass flag is {e.get('pass')!r}")
        for side in ("lhs", "rhs"):
            if not _close(e[side], r[side], r["tol"]):
                problems.append(f"{e['name']}: {side}={e[side]!r} differs "
                                f"from reference {r[side]!r}")
    return problems


def check_d_table(rows: list, ref_rows: list) -> list:
    """d_table.csv rows (k, h_coarse, h_fine, d_plus, d_minus) against the
    reference distances, which must also decrease."""
    if len(rows) != len(ref_rows):
        return [f"d_table has {len(rows)} rows, reference {len(ref_rows)}"]
    problems = []
    for col, tag in ((3, "d_plus"), (4, "d_minus")):
        d = [row[col] for row in rows]
        for k, (v, r) in enumerate(zip(d, (row[col] for row in ref_rows))):
            if not _close(v, r, 0.0):
                problems.append(f"{tag}[{k}]={v!r} differs from reference {r!r}")
        for k in range(len(d) - 1):
            if not (d[k + 1] < d[k] or d[k] == d[k + 1] == 0.0):
                problems.append(f"{tag} does not decrease at row {k + 1}")
    return problems


def check_command(returncode: int, out_dir: str, ref: dict) -> list:
    """All problems of one finished command; an empty list means it passed."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        report = load_report(os.path.join(out_dir, "report.json"))
        problems = check_report(report, ref["entries"])
        if "trace_rows" in ref:
            rows = load_csv(os.path.join(out_dir, "trace.csv"))
            if len(rows) != ref["trace_rows"]:
                problems.append(f"trace.csv has {len(rows)} rows, "
                                f"reference {ref['trace_rows']}")
        if "d_table" in ref:
            problems += check_d_table(
                load_csv(os.path.join(out_dir, "d_table.csv")), ref["d_table"])
    except (OSError, GateError) as err:
        return [str(err)]
    return problems


def solver_iterations(out_dir: str) -> list:
    """Per-step solver iterations from a run's trace.csv (step 0 excluded)."""
    return [int(row[6]) for row in load_csv(os.path.join(out_dir, "trace.csv"))[1:]]
