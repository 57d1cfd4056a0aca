"""Rewrite the golden report bodies that tests/test_golden.py checks.

    PYTHONPATH=src python3 tools/update_golden.py

Runs every scenario at seed 0 on its default grid and writes its report
without the ``timings`` block to ``tests/golden/<id>.json``, in the
format of ``idemlift run --out``.  Rewrite them only for a change that is
meant to move a report, and say which fields moved and why, as
``python3 tools/compare_reports.py`` on the old and new directory shows.
"""

from __future__ import annotations

import sys
from pathlib import Path

from idemlift.report import write_json
from idemlift.scenarios import build_scenario, list_scenarios, run_verification

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"


def golden_body(sid: str) -> dict:
    """The report of scenario ``sid`` at seed 0 on its default grid,
    without ``timings``."""
    report = run_verification(build_scenario(sid, seed=0), seed=0)
    report.pop("timings")
    return report


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.json"):
        stale.unlink()
    for sid in list_scenarios():
        write_json(golden_body(sid), str(GOLDEN / f"{sid}.json"))
        print(f"wrote {GOLDEN / sid}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
