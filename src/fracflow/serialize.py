"""Deterministic text output: floats at 17 significant digits everywhere.

Non-finite floats raise ValueError, before any file is opened.
"""

from __future__ import annotations

import json
import math

__all__ = ["fmt_float", "dumps_json", "write_csv"]


def fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"refusing to write the non-finite value {x!r}")
    return f"{float(x):.17g}"


def _emit(obj, out: list, indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(fmt_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (k, v) in enumerate(items):
            out.append(pad + "  " + json.dumps(str(k)) + ": ")
            _emit(v, out, indent + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad + "  ")
            _emit(v, out, indent + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_json(obj) -> str:
    """JSON text with insertion-ordered keys and fixed float formatting."""
    out: list = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def write_csv(path, header: list, rows: list) -> None:
    """Plain CSV; floats rendered by fmt_float, everything else by str."""
    lines = [",".join(fmt_float(c) if isinstance(c, float) else str(c)
                      for c in row) for row in [header, *rows]]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
