"""Every scenario's report at seed 0 on its default grid, against its
golden body under ``tests/golden/`` (written by ``tools/update_golden.py``).

The reports are compared leaf by leaf along ``tools/compare_reports.py``'s
walk, without ``timings``:

* every non-float field must be equal: flags, counts, names, notes, the
  version and the shape of every list and mapping;
* a float must lie within 1e-14 absolute of its golden value where both
  are below 1e-9 in size, and within 1e-12 relative to it elsewhere.

So a change may move a report at rounding level only, unless it rewrites
the golden bodies and says what moved.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

from idemlift.scenarios import list_scenarios

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
SMALL, ABS_TOL, REL_TOL = 1e-9, 1e-14, 1e-12


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_reports, update_golden = _tool("compare_reports"), _tool("update_golden")


def _agrees(old, new) -> bool:
    """``new`` matches the golden leaf ``old`` within the bound above."""
    if not (isinstance(old, float) and isinstance(new, float)):
        return type(old) is type(new) and old == new
    if old == new or (math.isnan(old) and math.isnan(new)):
        return True
    if abs(old) < SMALL and abs(new) < SMALL:
        return abs(new - old) <= ABS_TOL
    return abs(new - old) <= REL_TOL * abs(old)


def test_there_is_one_golden_body_per_scenario() -> None:
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(list_scenarios())


@pytest.mark.parametrize("sid", list_scenarios())
def test_report_matches_its_golden_body(sid: str) -> None:
    golden = dict(compare_reports._leaves(compare_reports.load(GOLDEN / f"{sid}.json")))
    leaves = dict(compare_reports._leaves(json.loads(json.dumps(update_golden.golden_body(sid)))))
    assert leaves.keys() == golden.keys(), sorted(leaves.keys() ^ golden.keys())[:5]
    differ = [(p, golden[p], leaves[p]) for p in golden if not _agrees(golden[p], leaves[p])]
    assert not differ, f"{len(differ)} leaves differ, first {differ[:3]}"


def test_the_bound_refuses_a_flag_a_count_and_a_defect_moved() -> None:
    assert _agrees(1.5e-16, 2.5e-16) and _agrees(0.25, 0.25 * (1 + 1e-13))
    assert not _agrees(1.5e-16, 1.5e-12)  # a defect x 1e4
    assert not _agrees(0.25, 0.25 * (1 + 1e-11))
    assert not _agrees(True, False) and not _agrees(12, 13) and not _agrees(1, 1.0)
    assert not _agrees(0.0, 2e-9)  # one of the two is not small
