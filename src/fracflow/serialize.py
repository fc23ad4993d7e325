"""Deterministic text output: every float as its shortest repr that
round-trips, so reruns are byte-identical and parse back bit for bit.

Non-finite floats raise ValueError, before any file is opened.
"""

from __future__ import annotations

import json
import math

__all__ = ["dumps_json", "write_csv"]


def dumps_json(obj) -> str:
    """JSON text with insertion-ordered keys, indented by two spaces."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError as err:
        raise ValueError(
            f"refusing to write a non-finite value ({err})") from None


def write_csv(path, header: list, rows: list) -> None:
    """Plain CSV, each cell rendered by str."""
    for row in rows:
        for cell in row:
            if isinstance(cell, float) and not math.isfinite(cell):
                raise ValueError(
                    f"refusing to write the non-finite value {float(cell)}")
    with open(path, "w") as fh:
        fh.writelines(",".join(map(str, row)) + "\n"
                      for row in [header, *rows])
