"""Metric names and units, read from ``BENCHMARK.json`` at the repository
root, the one place where the workloads, metrics and bounds are set."""

from __future__ import annotations

import fnmatch
import json
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_SECONDS = BENCHMARK["run_seconds"]
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
# the per-workload metrics of the detail line, by name pattern
DETAIL_UNITS = {
    "setup_s": "s",
    "scenario_s.*": "s",
    "lift_points_per_s": "1/s",
    "calls_per_s": "1/s",
    "call_ms.*": "ms",
    "failed_ratio": "ratio",
    "peak_rss_mb": "MB",
    "passes": "count",
    "setups": "count",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return next(unit for pattern, unit in DETAIL_UNITS.items() if fnmatch.fnmatchcase(name, pattern))
