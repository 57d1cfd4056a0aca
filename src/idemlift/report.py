"""Verification reports: assembly, pass/fail logic, JSON and CSV writers.

A report is a plain dict so it serialises directly.  Everything except
the ``timings`` block is deterministic for a fixed scenario, grid, seed
and tolerance set; consumers who diff reports drop that one key.
"""

from __future__ import annotations

import csv
import json
import math
from typing import Any, Sequence

REPORT_VERSION = 5

__all__ = [
    "REPORT_VERSION",
    "check_record",
    "run_record",
    "build_report",
    "report_passed",
    "write_json",
    "write_csv",
]


def _num(x: float) -> float | None:
    """JSON has no inf/nan; map them to null."""
    x = float(x)
    return x if math.isfinite(x) else None


def _lam_pair(lam: complex) -> list[float]:
    lam = complex(lam)
    return [lam.real, lam.imag]


def check_record(
    name: str,
    value: float,
    bound: float,
    *,
    lower_bound: bool = False,
    required: bool = True,
    note: str = "",
) -> dict[str, Any]:
    """One named scalar check, whose verdict follows from its value and
    bound alone: it passes where ``value`` is at most ``bound`` or, with
    ``lower_bound``, above it, so a NaN value fails either way.  The
    record holds ``"lower_bound": true`` only where that is set."""
    rec = {
        "name": name,
        "value": _num(value),
        "bound": _num(bound),
        "passed": bool(value > bound if lower_bound else value <= bound),
        "required": required,
    }
    if lower_bound:
        rec["lower_bound"] = True
    if note:
        rec["note"] = note
    return rec


def run_record(
    name: str,
    theorem_path: int | None,
    kind: str,
    *,
    grid: Sequence[complex] = (),
    rows: Sequence[dict] = (),
    checks: Sequence[dict] = (),
    audits: Sequence = (),
    error: str | None = None,
    notes: str = "",
) -> dict[str, Any]:
    """One lifting run (or probe batch) inside a scenario report.

    ``rows`` are the per-lambda dicts of :func:`trace_rows`.  The
    validity boundary is derived here: the first and last valid grid
    points, or null when nothing was valid.
    """
    rows = list(rows)
    valid_lams = [r["lambda"] for r in rows if r["valid"]]
    boundary = None
    if valid_lams:
        boundary = {"first": valid_lams[0], "last": valid_lams[-1], "count": len(valid_lams)}
    failed_checks = [c["name"] for c in checks if not c["passed"] and c.get("required", True)]
    rec = {
        "name": name,
        "theorem_path": theorem_path,
        "kind": kind,
        "grid": [_lam_pair(l) for l in grid],
        "rows": rows,
        "validity_boundary": boundary,
        "checks": list(checks),
        "contour_audit": [{**a.describe(), "delta": _num(a.delta)} for a in audits],
        "error": error,
        "passed": error is None and not failed_checks,
    }
    if notes:
        rec["notes"] = notes
    return rec


def trace_rows(points) -> list[dict]:
    """Rows for the points of a LiftTrace, one per grid point, in order:
    {"lambda": [re, im], "valid": bool, "defects": {name: value},
    "allowances": {name: value}}, with non-finite values as null."""
    return [
        {
            "lambda": _lam_pair(pt.lam),
            "valid": pt.valid,
            "defects": {k: _num(v) for k, v in sorted(pt.defects.items())},
            "allowances": {k: _num(v) for k, v in sorted(pt.allowances.items())},
        }
        for pt in points
    ]


def build_report(
    scenario_id: str,
    *,
    expected: str,
    theorem_paths: Sequence[int],
    grid: Sequence[complex],
    tolerances: dict[str, float],
    hypotheses: Sequence[dict],
    runs: Sequence[dict],
    probes: Sequence[dict],
    seed: int,
    timings: dict[str, float],
) -> dict[str, Any]:
    hypo_fail = [h["name"] for h in hypotheses if h.get("required", True) and not h["passed"]]
    run_fail = [r["name"] for r in runs if not r["passed"]]
    probe_fail = [p["name"] for p in probes if p.get("required", True) and not p["passed"]]
    return {
        "version": REPORT_VERSION,
        "scenario": scenario_id,
        "expected_outcome": expected,
        "theorem_paths": list(theorem_paths),
        "grid": [_lam_pair(l) for l in grid],
        "tolerances": {k: _num(v) for k, v in sorted(tolerances.items())},
        "seed": seed,
        "hypotheses": list(hypotheses),
        "runs": list(runs),
        "probes": list(probes),
        "failures": sorted(hypo_fail + run_fail + probe_fail),
        "passed": not (hypo_fail or run_fail or probe_fail),
        "timings": dict(timings),
    }


def report_passed(report: dict) -> bool:
    return bool(report.get("passed"))


def write_json(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(report: dict, path: str) -> None:
    """Flat per-lambda defect table: one row per (run, lambda)."""
    keys: list[str] = []
    for run in report["runs"]:
        for row in run["rows"]:
            for k in row["defects"]:
                if k not in keys:
                    keys.append(k)
    keys.sort()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "lambda_re", "lambda_im", "valid", *keys])
        for run in report["runs"]:
            for row in run["rows"]:
                defects = row["defects"]
                writer.writerow(
                    [
                        run["name"],
                        row["lambda"][0],
                        row["lambda"][1],
                        int(row["valid"]),
                        *[defects.get(k, "") for k in keys],
                    ]
                )
