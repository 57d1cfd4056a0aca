"""tools/compare_reports.py, run as a script on small report directories."""

import json
import pathlib
import subprocess
import sys

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"

_REPORT = {"scenario": "demo", "passed": True, "runs": [{"name": "local", "eps": 0.5, "defect": 1.5e-15}]}
_CSV = "name,lam,defect,count\nlocal,0.25,1.5e-15,3\n"


def _write(directory: pathlib.Path, report=_REPORT, csv=_CSV, timings=0.1) -> pathlib.Path:
    directory.mkdir()
    (directory / "demo.json").write_text(json.dumps(dict(report, timings={"total": timings})))
    (directory / "demo.csv").write_text(csv)
    return directory


def _compare(old, new) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(old), str(new)], capture_output=True, text=True
    )


def test_identical_directories_exit_0(tmp_path):
    """The timings block is the one part of a report that may differ."""
    proc = _compare(_write(tmp_path / "a"), _write(tmp_path / "b", timings=9.9))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "demo.csv: non-float fields match; 0 of 2 floats moved; worst relative move 0",
        "demo.json: non-float fields match; 0 of 2 floats moved; worst relative move 0",
    ]


def test_moved_floats_are_counted_and_exit_0(tmp_path):
    """Both moves are counted; the worst relative move is taken only over
    floats above 1e-12 in size, so the defect's doubling is not it."""
    moved = dict(_REPORT, runs=[{"name": "local", "eps": 0.75, "defect": 3.0e-15}])
    proc = _compare(_write(tmp_path / "a"), _write(tmp_path / "b", report=moved))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "demo.json: non-float fields match; 2 of 2 floats moved; worst relative move 0.5" in proc.stdout


def test_the_worst_absolute_move_shows_moves_among_tiny_floats(tmp_path):
    """A defect of 1.7e-15 that falls to 1.9e-16 is below the relative
    measure's 1e-12 floor, so only the absolute move shows it."""
    old = dict(_REPORT, runs=[{"name": "local", "eps": 0.5, "defect": 1.7e-15}])
    new = dict(_REPORT, runs=[{"name": "local", "eps": 0.5, "defect": 1.9e-16}])
    proc = _compare(_write(tmp_path / "a", report=old), _write(tmp_path / "b", report=new))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (
        "demo.json: non-float fields match; 1 of 2 floats moved; worst relative move 0;"
        " worst absolute move 1.5e-15"
    ) in proc.stdout.splitlines()


def test_a_differing_non_float_field_exits_1(tmp_path):
    csv = _CSV.replace(",3\n", ",4\n")  # an integer cell is not a float
    proc = _compare(_write(tmp_path / "a"), _write(tmp_path / "b", csv=csv))
    assert proc.returncode == 1
    assert "demo.csv: non-float fields differ at ['/1/3']" in proc.stdout
    assert "demo.json: non-float fields match" in proc.stdout


def test_the_count_of_differing_non_float_fields_is_printed(tmp_path):
    """Only the first three paths are listed; the count says how many differ."""
    old, new = ({**_REPORT, "runs": [{"name": f"{tag}-{k}"} for k in range(5)]} for tag in ("old", "new"))
    proc = _compare(_write(tmp_path / "a", report=old), _write(tmp_path / "b", report=new))
    assert proc.returncode == 1
    paths = "['/runs/0/name', '/runs/1/name', '/runs/2/name']"
    assert f"demo.json: non-float fields differ at {paths} (5 in all);" in proc.stdout


def test_an_unpaired_file_exits_1(tmp_path):
    new = _write(tmp_path / "b")
    (new / "extra.json").write_text("{}")
    proc = _compare(_write(tmp_path / "a"), new)
    assert proc.returncode == 1
    assert f"extra.json: only in {new}" in proc.stdout.splitlines()


@pytest.mark.parametrize("missing", ["old", "new"])
def test_a_missing_directory_exits_2_with_one_line(tmp_path, missing):
    """It used to end in a FileNotFoundError traceback with exit 1, the
    code of differing fields."""
    present, absent = _write(tmp_path / "present"), tmp_path / "absent"
    proc = _compare(absent, present) if missing == "old" else _compare(present, absent)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: {absent} is not a directory"]


def test_a_file_given_as_a_directory_exits_2(tmp_path):
    report = _write(tmp_path / "a") / "demo.json"
    proc = _compare(report, tmp_path / "a")
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: {report} is not a directory"]


def test_a_pair_without_reports_exits_2(tmp_path):
    """It used to compare nothing and exit 0."""
    old, new = tmp_path / "a", tmp_path / "b"
    old.mkdir()
    new.mkdir()
    (new / "notes.txt").write_text("not a report")
    proc = _compare(old, new)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: neither {old} nor {new} holds a .json or .csv report"]


def test_the_quadrature_budget_of_each_side_is_printed(tmp_path):
    """The summed ``nodes`` and ``evaluated`` of every ``contour_audit``
    record, old side first; a report from before ``evaluated`` counts 0."""
    audits = [{"nodes": 64, "delta": 1e-13, "refinements": 1}, {"nodes": 36, "delta": 2e-13, "refinements": 2}]
    old = dict(_REPORT, runs=[{"name": "local", "contour_audit": audits}, {"name": "trivial", "contour_audit": []}])
    fewer = [dict(a, nodes=a["nodes"] // 2, evaluated=a["nodes"]) for a in audits]
    new = dict(_REPORT, runs=[{"name": "local", "contour_audit": fewer}, {"name": "trivial", "contour_audit": []}])
    proc = _compare(_write(tmp_path / "a", report=old), _write(tmp_path / "b", report=new))
    assert proc.returncode == 1  # the audits' nodes and the new field differ
    line = next(ln for ln in proc.stdout.splitlines() if ln.startswith("demo.json"))
    assert line.endswith("; contour_audit nodes 100 -> 50, evaluated 0 -> 100")
    assert "demo.csv" in proc.stdout and "contour_audit" not in proc.stdout.split("demo.json")[0]
