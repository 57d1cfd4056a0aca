"""Command-line interface: exit codes, files written, config handling."""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from idemlift import cli
from idemlift.cli import _summarise, main
from idemlift.report import REPORT_VERSION, build_report, check_record, report_passed, run_record

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_run_writes_report_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "block.json"
    code = main(
        ["run", "block-testbed", "--grid", "0,0.4,3", "--out", str(out), "--seed", "2"]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "PASS" in stdout
    rep = json.loads(out.read_text())
    assert rep["version"] == REPORT_VERSION
    assert rep["scenario"] == "block-testbed"
    assert rep["seed"] == 2


def test_csv_grid_rows(tmp_path):
    out = tmp_path / "b.json"
    csv_path = tmp_path / "b.csv"
    code = main(
        [
            "run",
            "block-testbed",
            "--grid", "0,0.4,3",
            "--out", str(out),
            "--csv", str(csv_path),
        ]
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["run", "lambda_re", "lambda_im", "valid"]
    assert "lift" in header
    # local + two family steps + orthogonality summary, 3 points each
    assert len(lines) == 1 + 4 * 3


def test_absurd_tolerance_exits_one(tmp_path):
    code = main(
        [
            "run",
            "example3",
            "--grid", "0,0.4,3",
            "--tol-lift", "1e-30",
            "--out", str(tmp_path / "e3.json"),
        ]
    )
    assert code == 1


def test_unknown_scenario_exits_two_and_lists_ids(tmp_path, capsys):
    code = main(["run", "not-a-scenario", "--out", str(tmp_path / "x.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "dual-testbed" in err and "example2" in err


def test_list_prints_scenario_ids(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert out == [
        "block-testbed",
        "dual-testbed",
        "example1",
        "example2",
        "example3",
        "remark3-probe",
    ]


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# settings\ngrid=0,0.4,3\nseed=9\nout=%s\n" % (tmp_path / "r.json"))
    code = main(["run", "example1", "--config", str(cfg)])
    assert code == 0
    rep = json.loads((tmp_path / "r.json").read_text())
    assert rep["seed"] == 9
    assert len(rep["grid"]) == 3


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=9\n")
    out = tmp_path / "r.json"
    code = main(
        ["run", "example1", "--config", str(cfg), "--seed", "4",
         "--grid", "0,0.4,3", "--out", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["seed"] == 4


# one value per run option, each unlike its default; the file names are
# relative to the test's directory
_OPTION_VALUES = {
    "grid": "0,0.3,4",
    "tol-idem": "2e-9",
    "tol-lift": "3e-9",
    "out": "r.json",
    "csv": "r.csv",
    "seed": "5",
}


@pytest.mark.parametrize("key", [key for key, _, _ in cli._RUN_OPTIONS])
def test_an_option_as_flag_or_config_line_gives_the_same_report(tmp_path, monkeypatch, key):
    monkeypatch.chdir(tmp_path)
    value = _OPTION_VALUES[key]
    base = {"grid": "0,0.4,3", "out": "r.json"}
    args = ["run", "example1"]
    for k, v in base.items():
        if k != key:
            args += [f"--{k}", v]
    (tmp_path / "run.cfg").write_text(f"{key} = {value}\n")
    outputs = []
    for extra in ([f"--{key}", value], ["--config", "run.cfg"]):
        assert main([*args, *extra]) == 0
        body = json.loads((tmp_path / "r.json").read_text())
        body.pop("timings")
        csv_text = (tmp_path / "r.csv").read_text() if key == "csv" else None
        outputs.append((body, csv_text))
        for written in ("r.json", "r.csv"):
            (tmp_path / written).unlink(missing_ok=True)
    assert outputs[0] == outputs[1]
    body = outputs[0][0]
    if key == "grid":
        assert len(body["grid"]) == 4
    elif key.startswith("tol-"):
        assert body["tolerances"][key.replace("-", "_")] == float(value)
    elif key == "seed":
        assert body["seed"] == 5
    elif key == "csv":
        assert outputs[0][1].startswith("run,lambda_re")


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wibble=1\n")
    assert main(["run", "example1", "--config", str(cfg)]) == 2
    assert "wibble" in capsys.readouterr().err


# a flag's text goes through its option's parser, as a config line does,
# so the message names the flag
@pytest.mark.parametrize(
    "args, message",
    [
        (["--seed", "1.5"], "bad value for --seed: invalid literal for int()"),
        (["--tol-idem", "abc"], "bad value for --tol-idem: could not convert string to float"),
    ],
    ids=["seed", "tol-idem"],
)
def test_a_flag_that_does_not_parse_exits_two_and_names_the_flag(tmp_path, capsys, args, message):
    out = tmp_path / "r.json"
    assert main(["run", "example1", "--grid", "0,0.4,3", *args, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_malformed_grid_exits_two(tmp_path, capsys):
    assert main(["run", "example1", "--grid", "0;0.5;3"]) == 2
    assert "grid" in capsys.readouterr().err


# the last grid has a finite centre and half-width, but its end overflows to inf
@pytest.mark.parametrize("grid", ["nan,0,3", "0,inf,3", "inf,0,1", "1e308,1e308,3"])
def test_non_finite_grid_exits_two(tmp_path, capsys, grid):
    out = tmp_path / "r.json"
    assert main(["run", "block-testbed", "--grid", grid, "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_oversized_grid_exits_two_before_building_it(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(cli.np, "linspace", refuse)
    out = tmp_path / "r.json"
    assert main(["run", "dual-testbed", "--grid", "0,0.4,100000000", "--out", str(out)]) == 2
    assert f"at most {cli.MAX_GRID_POINTS}" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_flag_exits_two(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["run", "dual-testbed", "--seed", "-1", "--grid", "0,0.5,3", "--out", str(out)]) == 2
    assert "--seed must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_in_config_file_exits_two(tmp_path, capsys):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = -1\n")
    out = tmp_path / "r.json"
    assert main(["run", "dual-testbed", "--grid", "0,0.5,3", "--config", str(cfg), "--out", str(out)]) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_grid_in_config_file_exits_two(tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("grid = nan,0,3\n")
    out = tmp_path / "r.json"
    assert main(["run", "dual-testbed", "--config", str(cfg), "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


# an infinite or NaN tolerance switches its checks off, a negative one fails them all
@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
@pytest.mark.parametrize("flag", ["--tol-idem", "--tol-lift"])
def test_bad_tolerance_flag_exits_two(tmp_path, capsys, flag, tol):
    out = tmp_path / "r.json"
    args = ["run", "block-testbed", "--grid", "0,0.5,3", flag, tol, "--out", str(out)]
    assert main(args) == 2
    assert f"{flag} must be finite and nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
@pytest.mark.parametrize("key", ["tol-idem", "tol-lift"])
def test_bad_tolerance_in_config_file_exits_two(tmp_path, capsys, key, tol):
    cfg = tmp_path / "tol.cfg"
    cfg.write_text(f"{key} = {tol}\n")
    out = tmp_path / "r.json"
    assert main(["run", "block-testbed", "--grid", "0,0.5,3", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{key} must be finite and nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_zero_tolerance_is_allowed(tmp_path):
    out = tmp_path / "r.json"
    args = ["run", "block-testbed", "--grid", "0,0.5,3", "--tol-idem", "0", "--tol-lift", "0"]
    assert main([*args, "--out", str(out)]) == 1
    assert json.loads(out.read_text())["tolerances"]["tol_idem"] == 0.0


def test_raising_hypothesis_check_becomes_a_failed_record(tmp_path, capsys):
    # conj_in overflows at lambda = 1e200, so pi leaves the block algebra
    out = tmp_path / "r.json"
    with pytest.warns(RuntimeWarning):
        assert main(["run", "block-testbed", "--grid", "1e200,0,1", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    *held, err = report["hypotheses"]
    assert [h["name"] for h in held] == ["surjectivity-at-base"] and held[0]["passed"]
    assert err["name"] == "hypothesis-error" and err["value"] is None
    assert not err["passed"] and err["required"]
    assert err["note"] == "ParameterError: lower-left block must be exactly zero"
    assert "hypothesis-error" in report["failures"]
    assert "hypothesis-error             null <= 0.0e+00  FAIL" in capsys.readouterr().out


def test_linalg_failures_become_typed_errors(tmp_path):
    # non-finite matrices reach the spectral norm and the eigenvalues
    out = tmp_path / "r.json"
    with pytest.warns(RuntimeWarning):
        assert main(["run", "dual-testbed", "--grid", "1e200,0,1", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["hypotheses"][-1]["note"].startswith("ParameterError: spectral norm failed")
    errors = [r["error"] for r in report["runs"] if r.get("error")]
    assert errors and all(e.startswith("ParameterError: eigenvalues failed") for e in errors)


def test_nan_evidence_fails_its_run(tmp_path):
    # the section noise overflows at lambda = 1e200: every defect of the
    # family step is NaN, which no check may certify as 0
    out = tmp_path / "r.json"
    with pytest.warns(RuntimeWarning):
        assert main(["run", "example2", "--grid", "1e200,0,1", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    step = next(r for r in report["runs"] if r["name"] == "family-step-0")
    assert step["rows"][0]["valid"] and step["rows"][0]["defects"]["idempotency"] is None
    assert not step["passed"]
    assert {c["name"]: c["value"] for c in step["checks"]}["idempotency"] is None
    assert "family-step-0" in report["failures"]


def test_summary_prints_non_finite_values_as_null():
    # check_record stores nan and inf as null, as in a lift with no valid point
    hyp = check_record("input-idempotency", math.inf, 1e-9)
    run = run_record("local", 1, "lift", checks=[check_record("idempotency", math.nan, 1e-9)])
    report = build_report(
        "dual-testbed",
        expected="lift-succeeds",
        theorem_paths=(1,),
        grid=(0.0,),
        tolerances={},
        hypotheses=[hyp],
        runs=[run],
        probes=[],
        seed=0,
        timings={},
    )
    assert hyp["value"] is None and not run["passed"]
    text = _summarise(report, "r.json", None)
    assert "input-idempotency            null <= 1.0e-09  FAIL" in text
    assert "failed idempotency: null > 1.0e-09" in text
    assert "worst check null" in text


def test_the_worst_check_of_a_run_is_its_worst_row_defect(tmp_path, capsys):
    """The summary took the largest of all check values, so family-step-0
    showed its one invalid point (validity-covers-grid, 1.000e+00) as its
    worst check while its row defects sit at rounding level."""
    out = tmp_path / "r.json"
    assert main(["run", "example2", "--grid", "1,1,3", "--out", str(out)]) == 1
    lines = {
        line.split()[1]: line for line in capsys.readouterr().out.splitlines() if line.startswith("  run ")
    }
    report = json.loads(out.read_text())
    step = next(r for r in report["runs"] if r["name"] == "family-step-0")
    checks = {c["name"]: c["value"] for c in step["checks"]}
    assert checks.pop("validity-covers-grid") == 1.0
    worst = max(checks.values())
    assert worst <= 1e-15
    assert lines["family-step-0"].endswith(f"FAIL   worst check {worst:.3e}")
    assert "worst check 1.000e+00" not in "".join(lines.values())


def test_a_run_with_no_valid_row_has_a_null_worst_check():
    run = run_record("local", 1, "lift", checks=[check_record("validity-covers-grid", 3.0, 0.0)])
    report = build_report(
        "dual-testbed",
        expected="lift-succeeds",
        theorem_paths=(1,),
        grid=(0.0,),
        tolerances={},
        hypotheses=[],
        runs=[run],
        probes=[],
        seed=0,
        timings={},
    )
    assert "FAIL   worst check null" in _summarise(report, "r.json", None)


def test_a_check_verdict_follows_from_its_value_and_bound():
    assert check_record("c", 1.0, 1.0)["passed"] and not check_record("c", 1.5, 1.0)["passed"]
    above = check_record("c", 0.4, 0.1, lower_bound=True)
    assert above["passed"] and above["lower_bound"] is True
    assert not check_record("c", 0.1, 0.1, lower_bound=True)["passed"]
    assert "lower_bound" not in check_record("c", 0.0, 0.1)  # written only where set
    for lower_bound in (False, True):  # NaN fails either way
        assert not check_record("c", math.nan, 0.0, lower_bound=lower_bound)["passed"]
    with pytest.raises(TypeError):  # no free verdict that contradicts value and bound
        check_record("c", 1.0, 0.0, passed=True)


@pytest.mark.parametrize("bad", ["out-dir-missing", "csv-dir-missing", "out-is-a-directory"])
def test_an_unwritable_output_path_exits_two_before_the_run(tmp_path, monkeypatch, capsys, bad):
    """Such a path used to fail only after the whole run, and a bad --csv
    after the JSON report had been written."""

    def no_run(*args, **kwargs):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr(cli, "run_verification", no_run)
    paths = {"out": tmp_path / "r.json", "csv": tmp_path / "r.csv"}
    if bad == "out-is-a-directory":
        paths["out"] = tmp_path
    else:
        key = bad.split("-")[0]
        paths[key] = tmp_path / "no-such-dir" / paths[key].name
    code = main(["run", "block-testbed", "--out", str(paths["out"]), "--csv", str(paths["csv"])])
    assert code == 2
    assert "error: cannot write report" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_missing_config_file_exits_two(tmp_path):
    assert main(["run", "example1", "--config", str(tmp_path / "absent.cfg")]) == 2


def test_env_var_sets_default_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("IDEMLIFT_OUT_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    code = main(["run", "example1", "--grid", "0,0.4,3"])
    assert code == 0
    assert (tmp_path / "example1-report.json").exists()


def test_cli_reports_are_deterministic(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert (
            main(["run", "remark3-probe", "--seed", "6", "--out", str(p)]) == 0
        )
    a = json.loads(paths[0].read_text())
    b = json.loads(paths[1].read_text())
    a.pop("timings")
    b.pop("timings")
    assert a == b


def _run_module(args, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", *args], cwd=tmp_path, env=env, capture_output=True, text=True
    )


def test_python_dash_m_runs_the_cli(tmp_path):
    out = tmp_path / "r.json"
    proc = _run_module(["idemlift.cli", "run", "example1", "--out", str(out)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
    assert report_passed(json.loads(out.read_text()))
    proc = _run_module(["idemlift", "list"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "example1" in proc.stdout.split()
