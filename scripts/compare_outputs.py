#!/usr/bin/env python3
"""Compare two output trees of ``scripts/run_examples.py`` file by file.

Lists the byte-identical files.  For each CSV table that differs, prints every
changed column with its largest absolute and relative deviation (``positions``
cells are JSON arrays and compare element by element); other differing files
are only named.  Exits 1 when any file differs or exists on one side only,
0 when the trees are byte-identical, and 2 when either argument is not a
directory or neither tree holds a file, so that a mistyped path never reads
as an unchanged tree.

Usage: python scripts/compare_outputs.py REF NEW
"""
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np


def _read_table(path):
    """Header and rows of a slipdyn CSV, skipping its '#' provenance line."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def _numbers(column, cell):
    """The floats of one cell, flattened, or None if the cell is not numeric."""
    try:
        value = json.loads(cell) if column == "positions" else float(cell)
        return np.ravel(np.asarray(value, dtype=float))
    except ValueError:
        return None


def compare_table(ref, new):
    """Lines describing each column of two CSV tables that differs."""
    head_r, rows_r = _read_table(ref)
    head_n, rows_n = _read_table(new)
    if head_r != head_n or len(rows_r) != len(rows_n):
        return [f"shape differs: columns {head_r} x {len(rows_r)} rows vs "
                f"{head_n} x {len(rows_n)} rows"]
    out = []
    for k, column in enumerate(head_r):
        changed, text, max_abs, max_rel = 0, False, 0.0, 0.0
        for row_r, row_n in zip(rows_r, rows_n):
            if row_r[k] == row_n[k]:
                continue
            changed += 1
            a, b = _numbers(column, row_r[k]), _numbers(column, row_n[k])
            if a is None or b is None or len(a) != len(b):
                text = True
                continue
            for x, y in zip(a, b):
                d = abs(y - x)
                max_abs = max(max_abs, d)
                if d:
                    max_rel = max(max_rel, d / abs(x) if x else math.inf)
        if text:
            out.append(f"{column}: {changed} rows differ (not numeric)")
        elif changed:
            out.append(f"{column}: {changed} rows differ, max abs {max_abs:.3g}, "
                       f"max rel {max_rel:.3g}")
    return out


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[-1])
    ref, new = Path(sys.argv[1]), Path(sys.argv[2])
    for root in (ref, new):
        if not root.is_dir():
            print(f"error: {root} is not a directory", file=sys.stderr)
            sys.exit(2)
    files = sorted({p.relative_to(root) for root in (ref, new)
                    for p in root.rglob("*") if p.is_file()})
    if not files:
        print(f"error: neither {ref} nor {new} holds a file", file=sys.stderr)
        sys.exit(2)
    identical, differing = [], []
    for rel in files:
        a, b = ref / rel, new / rel
        if not (a.is_file() and b.is_file()):
            differing.append((rel, [f"only in {ref if a.is_file() else new}"]))
        elif a.read_bytes() == b.read_bytes():
            identical.append(rel)
        else:
            differing.append((rel, compare_table(a, b) if rel.suffix == ".csv" else []))
    print(f"{len(identical)} of {len(files)} files byte-identical:")
    for rel in identical:
        print(f"  {rel}")
    for rel, notes in differing:
        print(f"differs: {rel}")
        for note in notes:
            print(f"  {note}")
    sys.exit(1 if differing else 0)


if __name__ == "__main__":
    main()
