"""Compare two directories of idemlift reports, file by file.

    python tools/compare_reports.py OLD_DIR NEW_DIR

Every ``.json`` and ``.csv`` file of OLD_DIR is paired with the file of
the same name in NEW_DIR.  A JSON report loses its ``timings`` block (the
only part of a report that is not deterministic); a CSV cell counts as a
float when it parses as one and is not an integer.  For each pair the
script prints whether every non-float field matches (else the first three
paths that differ and how many differ), how many floats moved, and the
worst relative move among the floats with |old| > 1e-12.  When a float
moved it also prints the worst absolute move over every float, so a move
among floats at or below 1e-12 in size, such as a report's defects,
shows too.  For a JSON
pair that holds quadrature audits it also prints the quadrature budget of
each side: the summed ``nodes`` and ``evaluated`` of every
``contour_audit`` record (``evaluated`` reads 0 in a report older than
version 5).
The exit code is 1 when a non-float field differs or a file has no
partner, else 0.  It is 2, with a one-line message, when an argument is
not a directory or neither directory holds a ``.json`` or ``.csv`` file.
It is a tool for comparing runs, not a test.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from pathlib import Path

_SCALE_FLOOR = 1e-12


def _cell(text: str):
    """A CSV cell as a float when it is one, else as the text."""
    try:
        int(text)
        return text
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def load(path: Path):
    if path.suffix == ".csv":
        with path.open(newline="", encoding="utf-8") as fh:
            return [[_cell(c) for c in row] for row in csv.reader(fh)]
    body = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(body, dict):
        body.pop("timings", None)
    return body


def _leaves(node, path=""):
    """(path, value) for every leaf; containers contribute their shape."""
    if isinstance(node, dict):
        yield path + "{}", tuple(sorted(node))
        for key in sorted(node):
            yield from _leaves(node[key], f"{path}/{key}")
    elif isinstance(node, list):
        yield path + "[]", len(node)
        for i, item in enumerate(node):
            yield from _leaves(item, f"{path}/{i}")
    else:
        yield path, node


def compare(old, new) -> tuple[list[str], int, int, float, float]:
    """Differing non-float paths, floats moved, floats compared, worst
    relative move, worst absolute move."""
    a, b = dict(_leaves(old)), dict(_leaves(new))
    differ = sorted(p for p in a.keys() | b.keys() if p not in a or p not in b)
    moved = total = 0
    worst = worst_abs = 0.0
    for p in a.keys() & b.keys():
        u, v = a[p], b[p]
        if isinstance(u, float) and isinstance(v, float):
            total += 1
            if u == v or (math.isnan(u) and math.isnan(v)):
                continue
            moved += 1
            worst_abs = max(worst_abs, abs(v - u))
            if abs(u) > _SCALE_FLOOR:
                worst = max(worst, abs(v - u) / abs(u))
        elif type(u) is not type(v) or u != v:
            differ.append(p)
    return sorted(differ), moved, total, worst, worst_abs


def audit_totals(body) -> tuple[int, int] | None:
    """Summed ``nodes`` and ``evaluated`` over every ``contour_audit``
    record in a report, or None when it has no ``contour_audit`` list."""
    leaves = list(_leaves(body))
    if not any(path.endswith("/contour_audit[]") for path, _ in leaves):
        return None
    totals = [0, 0]
    for path, value in leaves:
        field = re.fullmatch(r".*/contour_audit/\d+/(nodes|evaluated)", path)
        if field:
            totals[field.group(1) == "evaluated"] += value
    return totals[0], totals[1]


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old_dir, new_dir = map(Path, args)
    for d in (old_dir, new_dir):
        if not d.is_dir():
            print(f"error: {d} is not a directory", file=sys.stderr)
            return 2
    names = sorted(
        p.name for d in (old_dir, new_dir) for p in d.iterdir() if p.suffix in (".json", ".csv")
    )
    if not names:
        print(f"error: neither {old_dir} nor {new_dir} holds a .json or .csv report", file=sys.stderr)
        return 2
    status = 0
    for name in dict.fromkeys(names):
        old, new = old_dir / name, new_dir / name
        if not (old.exists() and new.exists()):
            print(f"{name}: only in {old_dir if old.exists() else new_dir}")
            status = 1
            continue
        old_body, new_body = load(old), load(new)
        differ, moved, total, worst, worst_abs = compare(old_body, new_body)
        fields = "non-float fields match"
        if differ:
            fields = f"non-float fields differ at {differ[:3]} ({len(differ)} in all)"
        line = f"{name}: {fields}; {moved} of {total} floats moved; worst relative move {worst:.2g}"
        if moved:
            line += f"; worst absolute move {worst_abs:.2g}"
        budgets = [audit_totals(body) for body in (old_body, new_body)] if name.endswith(".json") else []
        if any(budgets):
            (old_nodes, old_evaluated), (new_nodes, new_evaluated) = (b or (0, 0) for b in budgets)
            line += (
                f"; contour_audit nodes {old_nodes} -> {new_nodes},"
                f" evaluated {old_evaluated} -> {new_evaluated}"
            )
        print(line)
        status |= bool(differ)
    return status


if __name__ == "__main__":
    sys.exit(main())
