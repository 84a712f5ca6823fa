#!/usr/bin/env python3
"""Largest relative change of each trace column between two trace CSVs.

    python3 scripts/trace_drift.py OLD.csv NEW.csv

Prints one `<column>  <change>` line per column of the trace header. The
change of a cell is |new - old| / |old|. The residual column is scaled by
the row-0 residual of OLD instead, since a converged residual sits at the
roundoff floor, where its own relative change says nothing. Two empty cells
agree; an empty cell against a number, or a nonzero value against an old
zero, is an infinite change. The two traces must have the same header and
row count (exit 2 otherwise).
"""

import csv
import math
import sys


def _read(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty trace")
    return rows[0], rows[1:]


def _change(old: str, new: str, ref: str) -> float:
    """|new - old| / |ref| for two cells and the cell that scales them."""
    if old == "" or new == "":
        return 0.0 if old == new else math.inf
    diff = abs(float(new) - float(old))
    scale = abs(float(ref or 0.0))
    if diff == 0.0:
        return 0.0
    return diff / scale if scale else math.inf


def drift(old_path: str, new_path: str) -> dict[str, float]:
    """Column name -> largest change over the rows (see the module doc)."""
    header, old = _read(old_path)
    new_header, new = _read(new_path)
    if new_header != header or len(new) != len(old):
        raise ValueError("traces differ in header or row count")
    return {name: max((_change(o[c], w[c],
                               old[0][c] if name == "residual" else o[c])
                       for o, w in zip(old, new)), default=0.0)
            for c, name in enumerate(header)}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: trace_drift.py OLD.csv NEW.csv", file=sys.stderr)
        return 2
    try:
        result = drift(*argv)
    except (OSError, ValueError) as exc:
        print(f"trace_drift: {exc}", file=sys.stderr)
        return 2
    for name, value in result.items():
        print(f"{name}  {value:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
