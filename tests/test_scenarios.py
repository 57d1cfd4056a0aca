"""Scenario builders, the verification driver, and report integrity."""

import collections
import json
import math

import numpy as np
import pytest

from idemlift import families, lifting, scenarios
from idemlift.algebra import ConvolutionAlgebra, UnitizationAlgebra, alg_exp
from idemlift.errors import EnclosureFailed, ParameterError, UnknownScenario
from idemlift.families import ElementFamily, HomFamily, Section
from idemlift.lifting import LiftPoint, LiftTrace, lift_family
from idemlift.report import report_passed
from idemlift.scenarios import (
    Scenario,
    build_block_testbed,
    build_dual_testbed,
    build_scenario,
    list_scenarios,
    run_verification,
)
from oracles import eigenprojection_near, random_split_spectrum_matrix

SMALL_GRID = tuple(np.linspace(-0.4, 0.4, 3))


def test_registry_lists_all_six():
    assert list_scenarios() == [
        "block-testbed",
        "dual-testbed",
        "example1",
        "example2",
        "example3",
        "remark3-probe",
    ]


def test_unknown_scenario_raises_with_valid_ids():
    with pytest.raises(UnknownScenario, match="dual-testbed"):
        build_scenario("no-such-thing")


def test_negative_seed_is_refused_by_build_scenario():
    """numpy's default_rng would raise an untyped ValueError here."""
    with pytest.raises(ParameterError, match="seed must be nonnegative, got -1"):
        build_scenario("dual-testbed", seed=-1)


def test_negative_seed_is_refused_by_run_verification():
    """The driver draws from default_rng(seed + 101), which would take -1
    silently."""
    scn = build_scenario("example1")
    with pytest.raises(ParameterError, match="seed must be nonnegative, got -1"):
        run_verification(scn, seed=-1)


@pytest.mark.parametrize(
    "sid, grid",
    [
        ("dual-testbed", ()),
        ("example1", ()),
        ("dual-testbed", [float("nan")]),
        ("example1", [0.0, complex(0, np.inf)]),
    ],
    ids=["empty-dual-testbed", "empty-example1", "nan", "infinite"],
)
def test_empty_or_non_finite_grid_is_refused_before_any_check(sid, grid, monkeypatch):
    """An empty grid used to raise IndexError on dual-testbed and give a
    report of NaN checks on example1; a NaN point gave errored runs."""

    def no_checks(*args):
        raise AssertionError("a hypothesis check ran")

    monkeypatch.setattr(scenarios, "_hypothesis_checks", no_checks)
    with pytest.raises(ParameterError, match="grid must be nonempty and finite"):
        run_verification(build_scenario(sid), grid=grid)


@pytest.mark.parametrize(
    "paths, inputs, message",
    [
        ((2,), {"family_sections"}, "theorem path 2 needs local_section"),
        ((3,), {"local_section"}, "theorem path 3 needs family_sections"),
        ((7,), {"local_section", "family_sections"}, "unknown theorem path 7"),
    ],
    ids=["self-adjoint-without-local-section", "family-without-family-sections", "unknown-path"],
)
def test_a_path_the_scenario_cannot_run_is_refused_when_it_is_built(paths, inputs, message):
    """Such a scenario used to run nothing for the path, yet pass and list
    it under theorem_paths."""
    dual = build_scenario("dual-testbed")
    given = {field: getattr(dual, field) for field in inputs}
    absent = {field: empty for field, empty in (("local_section", None), ("family_sections", ()))}
    with pytest.raises(ParameterError, match=message):
        scenarios.Scenario(id="bad", pi=dual.pi, grid=SMALL_GRID, theorem_paths=paths, **given)
    with pytest.raises(ParameterError, match=message):  # replace builds through __init__
        dual.replace(theorem_paths=paths, **{f: v for f, v in absent.items() if f not in inputs})


def _refused_both_ways(paths, message: str) -> None:
    """dual-testbed, which has every path's input, refuses ``paths`` when
    built and through ``replace``."""
    dual = build_scenario("dual-testbed")
    fields = {name: getattr(dual, name) for name in dual._fields}
    with pytest.raises(ParameterError, match=message):
        scenarios.Scenario(**dict(fields, theorem_paths=paths))
    with pytest.raises(ParameterError, match=message):
        dual.replace(theorem_paths=paths)


@pytest.mark.parametrize(
    "paths",
    [(True,), (1.0,), (np.int64(1),), [1], [1, 1], 1, (1, 1), (2, 1, 2)],
    ids=["bool", "float", "numpy-int", "list", "repeated-list", "bare-int", "repeated", "repeated-apart"],
)
def test_theorem_paths_must_be_a_tuple_of_distinct_int_path_numbers(paths):
    """True and 1.0 used to pass as path 1 and be written into the report
    as true and 1.0, [1, 1] ran the local lift twice, and a bare 1 ended
    in an untyped TypeError."""
    _refused_both_ways(paths, "theorem_paths must be a tuple of int|both write")


@pytest.mark.parametrize(
    "paths, message",
    [
        ((3, 5), "theorem paths 3 and 5 both write 'family' records"),
        ((4, 6), "theorem paths 4 and 6 both write 'family-sa' records"),
        ((6, 1, 4), "theorem paths 6 and 4 both write 'family-sa' records"),
    ],
    ids=["3-and-5", "4-and-6", "6-and-4"],
)
def test_two_paths_that_write_records_of_one_name_are_refused(paths, message):
    """block-testbed with (3, 5) used to run the induction twice and report
    family-step-0 ... family-orthogonality twice under one name."""
    _refused_both_ways(paths, message)


_FAMILY_RECORDS = ("step-0", "step-1", "step-2", "orthogonality")


@pytest.mark.parametrize(
    "path, records, sa",
    [
        (1, ["local"], False),
        (2, ["self-adjoint"], True),
        (3, [f"family-{r}" for r in _FAMILY_RECORDS], False),
        (4, [f"family-sa-{r}" for r in _FAMILY_RECORDS], True),
        (5, [f"family-{r}" for r in _FAMILY_RECORDS], False),
        (6, [f"family-sa-{r}" for r in _FAMILY_RECORDS], True),
    ],
    ids=[f"path-{path}" for path in range(1, 7)],
)
def test_each_theorem_path_runs_its_records_and_is_self_adjoint_as_declared(path, records, sa):
    """dual-testbed with only the input the path lifts: its records, the
    self-adjointness checks of a self-adjoint path, and a required kernel
    condition, since a section is lifted."""
    dual = build_scenario("dual-testbed")
    only = {"family_sections": ()} if path <= 2 else {"local_section": None}
    rep = run_verification(dual.replace(theorem_paths=(path,), **only), grid=(0.0, 0.2), seed=0)
    assert [r["name"] for r in rep["runs"]] == records
    assert all(r["theorem_path"] == path and r["error"] is None for r in rep["runs"])
    checks = {c["name"] for r in rep["runs"] for c in r["checks"]}
    assert ("self-adjointness" in checks) == sa
    hypotheses = {h["name"]: h for h in rep["hypotheses"]}
    assert ("input-self-adjointness" in hypotheses) == sa
    assert hypotheses["kernel-spectral-condition"]["required"]


@pytest.mark.parametrize("sid", list_scenarios())
def test_the_kernel_condition_is_required_exactly_where_a_section_is_lifted(sid):
    scn = build_scenario(sid)
    grid = tuple(complex(g) for g in SMALL_GRID)
    hyps = scenarios._hypothesis_checks(scn, grid, scenarios._tolerances(None), 0)
    kernel = next(h for h in hyps if h["name"] == "kernel-spectral-condition")
    assert kernel["required"] == (sid not in ("example1", "remark3-probe"))


# an infinite or NaN tolerance switched its checks off, a negative one failed
# them all, and a misspelt key was ignored and then listed in the report
@pytest.mark.parametrize(
    "tolerances, match",
    [
        ({"tol_idem": np.inf}, "tol_idem must be finite and nonnegative"),
        ({"tol_lift": np.nan}, "tol_lift must be finite and nonnegative"),
        ({"tol_lift": -1.0}, "tol_lift must be finite and nonnegative"),
        ({"tol_idem": True}, "tol_idem must be finite and nonnegative"),
        ({"tol_idm": 1.0}, "unknown tolerance 'tol_idm'"),
        # commutation is judged by tol_idem and orthogonality by tol_lift
        ({"tol_comm": 1e-9}, "unknown tolerance 'tol_comm'; valid keys: tol_idem, tol_lift"),
        ({"tol_orth": 1e-8}, "unknown tolerance 'tol_orth'; valid keys: tol_idem, tol_lift"),
    ],
    ids=["inf", "nan", "negative", "bool", "unknown-key", "old-key-comm", "old-key-orth"],
)
def test_bad_tolerance_is_refused_before_any_check(tolerances, match, monkeypatch):
    def no_checks(*args):
        raise AssertionError("a hypothesis check ran")

    monkeypatch.setattr(scenarios, "_hypothesis_checks", no_checks)
    with pytest.raises(ParameterError, match=match):
        run_verification(build_scenario("block-testbed"), grid=SMALL_GRID, tolerances=tolerances)


def test_dual_testbed_runs_all_four_paths():
    rep = run_verification(build_scenario("dual-testbed"), grid=SMALL_GRID, seed=0)
    assert rep["passed"]
    assert rep["failures"] == []
    assert rep["theorem_paths"] == [1, 2, 3, 4]
    names = {r["name"]: r for r in rep["runs"]}
    assert "local" in names and "self-adjoint" in names
    assert "family-step-2" in names and "family-sa-step-2" in names
    # oracle cross-check rides along with the local run
    locals_checks = {c["name"] for c in names["local"]["checks"]}
    assert "dense-projection-oracle" in locals_checks


def test_dual_testbed_rows_cover_grid():
    rep = run_verification(build_scenario("dual-testbed"), grid=SMALL_GRID, seed=0)
    local = next(r for r in rep["runs"] if r["name"] == "local")
    assert len(local["rows"]) == len(SMALL_GRID)
    assert all(row["valid"] for row in local["rows"])
    vb = local["validity_boundary"]
    assert vb["count"] == len(SMALL_GRID)
    assert local["contour_audit"]  # quadrature audits recorded


def test_dual_testbed_targets_are_rotated_projections():
    # q(lambda) = exp(lambda K) P exp(-lambda K) written out with alg_exp
    # agrees bit for bit with the scenario's conjugation families
    scn = build_dual_testbed(seed=1)
    base = scn.pi.target
    K = np.zeros((4, 4), dtype=complex)
    K[0, 1], K[1, 0], K[2, 3], K[3, 2] = 1.0, -1.0, 2.0, -2.0
    seeds = [np.diag([1.0, 0.0, 1.0, 0.0]), *(np.diag(np.eye(4)[i]) for i in range(3))]
    families = [sec.target for sec in (scn.local_section, *scn.family_sections)]
    assert len(scn.grid) == 21
    for lam in (*scn.grid, 0.37 + 0.2j):
        turn, back = alg_exp(base.wrap(lam * K)), alg_exp(base.wrap(-lam * K))
        for fam, seed in zip(families, seeds):
            want = turn * base.wrap(seed) * back
            assert np.array_equal(fam(lam).payload, want.payload)


def test_block_testbed_passes():
    rep = run_verification(build_scenario("block-testbed"), grid=SMALL_GRID, seed=0)
    assert rep["passed"]
    assert rep["theorem_paths"] == [1, 5]
    probe = next(p for p in rep["probes"] if p["name"] == "non-constant-family")
    assert probe["passed"]


def test_example1_trivial_lifts_and_violated_kernel_hypothesis():
    rep = run_verification(build_scenario("example1"), grid=SMALL_GRID, seed=0)
    assert rep["passed"]
    kinds = [r["kind"] for r in rep["runs"]]
    assert kinds.count("trivial") == 2
    kern = next(h for h in rep["hypotheses"] if h["name"] == "kernel-spectral-condition")
    assert not kern["passed"]
    assert not kern["required"]  # recorded but not demanded


def test_example1_probe_values_are_exact():
    rep = run_verification(build_scenario("example1"), grid=SMALL_GRID, seed=0)
    norm_probe = next(p for p in rep["probes"] if p["name"] == "norm-constancy")
    assert norm_probe["checks"][0]["value"] == 0.0


def test_example2_family_path_certifies():
    rep = run_verification(build_scenario("example2"), grid=SMALL_GRID, seed=0)
    assert rep["passed"]
    step = next(r for r in rep["runs"] if r["name"] == "family-step-0")
    lift_check = next(c for c in step["checks"] if c["name"] == "lift")
    assert lift_check["value"] <= 1e-8
    # raw defects carry tail allowances alongside
    assert all("allowances" in row for row in step["rows"])


def test_example3_oracle_check_present():
    rep = run_verification(build_scenario("example3"), grid=SMALL_GRID, seed=0)
    assert rep["passed"]
    orth = next(r for r in rep["runs"] if r["name"] == "family-orthogonality")
    names = {c["name"] for c in orth["checks"]}
    assert "matrix-component-oracle" in names


def test_remark3_probe_has_no_lift_runs():
    rep = run_verification(build_scenario("remark3-probe"), seed=0)
    assert rep["passed"]
    assert rep["expected_outcome"] == "hypothesis-violated-probe"
    assert rep["runs"] == []
    escape = next(p for p in rep["probes"] if p["name"] == "spectral-escape")
    assert all(c["value"] == 0.0 for c in escape["checks"])


def test_reports_are_deterministic_apart_from_timings():
    a = run_verification(build_scenario("dual-testbed", seed=3), grid=SMALL_GRID, seed=3)
    b = run_verification(build_scenario("dual-testbed", seed=3), grid=SMALL_GRID, seed=3)
    a.pop("timings")
    b.pop("timings")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_broken_section_fails_with_section_invalid():
    scn = build_scenario("dual-testbed")
    # a section that misses its target by a unit cannot start the lift
    broken = Section(
        scn.pi,
        scn.local_section.target,
        lambda lam: scn.pi.embed(lam, scn.local_section.target(lam)) + 0.5 * scn.pi.source.one(),
    )
    scn = scn.replace(local_section=broken, theorem_paths=(1,))
    rep = run_verification(scn, grid=SMALL_GRID, seed=0)
    assert not rep["passed"]
    local = next(r for r in rep["runs"] if r["name"] == "local")
    assert "SectionInvalid" in local["error"]
    assert "local" in rep["failures"]


def test_tolerance_overrides_flow_into_judgement():
    rep = run_verification(
        build_scenario("example2"),
        grid=SMALL_GRID,
        tolerances={"tol_lift": 1e-30},
        seed=0,
    )
    assert not report_passed(rep)


def test_probe_records_carry_no_theorem_path():
    rep = run_verification(build_scenario("example1"), grid=SMALL_GRID, seed=0)
    assert all(p["theorem_path"] is None for p in rep["probes"])
    assert all(p["kind"] == "probe" for p in rep["probes"])


def test_every_report_row_has_one_schema():
    reports = [
        run_verification(build_scenario(sid), grid=SMALL_GRID, seed=0)
        for sid in ("block-testbed", "dual-testbed", "example1", "remark3-probe")
    ]
    # lambda = 2 lies outside the frozen enclosures of example2's family step
    reports.append(run_verification(build_scenario("example2"), grid=(0.0, 2.0), seed=0))
    invalid = []
    for rep in reports:
        for run in rep["runs"]:
            for row in run["rows"]:
                assert set(row) == {"lambda", "valid", "defects", "allowances"}
                if row["valid"]:
                    assert set(row["allowances"]) == set(row["defects"])
                else:
                    invalid.append(run["name"])
                    # an invalid row keeps no allowance; its one defect
                    # only names why the point failed
                    assert row["allowances"] == {}
                    assert len(row["defects"]) == 1
                    assert all(v is None for v in row["defects"].values())
            if run["kind"] == "lift" and run["error"] is None:
                assert "validity-covers-grid" in {c["name"] for c in run["checks"]}
    assert invalid == ["family-step-0", "family-orthogonality"]


def test_trivial_lift_outside_the_family_radius_is_an_error_record():
    rep = run_verification(build_scenario("example1"), grid=(0.0, 1.5), seed=0)
    trivial = [r for r in rep["runs"] if r["kind"] == "trivial"]
    assert [r["name"] for r in trivial] == ["trivial-0", "trivial-1"]
    assert all(r["error"].startswith("OutOfRadius") for r in trivial)
    assert not rep["passed"]


def test_one_bad_lambda_leaves_the_rest_of_the_family_run():
    # at lambda = 1.5 the radical Neumann series of sqrt_near_one cannot
    # be certified (NotInvertible); the run keeps every other point
    grid = tuple(np.linspace(-2.0, 2.0, 9))
    rep = run_verification(build_scenario("example2"), grid=grid, seed=0)
    step = next(r for r in rep["runs"] if r["name"] == "family-step-0")
    assert step["error"] is None and len(step["rows"]) == len(grid)
    rows = {row["lambda"][0]: row for row in step["rows"]}
    assert rows[1.5]["defects"] == {"not-invertible": None}
    assert not rows[2.0]["valid"]
    assert all(rows[lam]["valid"] for lam in (-2.0, -1.0, 0.0, 0.5, 1.0))
    covers = next(c for c in step["checks"] if c["name"] == "validity-covers-grid")
    assert not covers["passed"]
    assert "family-step-0" in rep["failures"]

    scn = build_scenario("example2")
    fams, _ = lift_family(scn.family_sections, grid)
    with pytest.raises(EnclosureFailed, match="not-invertible"):
        fams[0](1.5)


def test_sign_function_oracle_matches_eigenprojections():
    # the error of any projector scales with its norm, the condition of
    # the spectral split
    for seed in range(100):
        rng = np.random.default_rng(seed)
        for n in (2, 3, 5, 8):
            mat = random_split_spectrum_matrix(rng, n)
            want = eigenprojection_near(mat, 1.0, 0.5)
            got = scenarios._dense_projection(mat, 1.0, 0.5)
            assert np.linalg.norm(got - want, 2) <= 1e-12 * np.linalg.norm(want, 2)


def test_sign_function_oracle_refuses_what_it_cannot_split(monkeypatch):
    with pytest.raises(np.linalg.LinAlgError):  # singular Cayley step
        scenarios._dense_projection(np.diag([0.5, 2.0]), 0.0, 0.5)
    with pytest.raises(np.linalg.LinAlgError):  # 0.5j on the circle
        scenarios._dense_projection(np.diag([0.5j, 2.0]), 0.0, 0.5)
    on_circle = np.diag([1.0 + 0.45j, 0.0])
    rec = scenarios._oracle_check("dense-projection-oracle", [(on_circle, np.eye(2))])
    assert not rec["passed"] and rec["required"] and rec["value"] is None
    assert "did not converge" in rec["note"]

    monkeypatch.setattr(scenarios, "_SIGN_STEPS", 1)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge in 1 steps"):
        scenarios._dense_projection(np.diag([1.1, 0.1]), 1.0, 0.45)


@pytest.mark.parametrize(
    "sid, run, check",
    [
        ("block-testbed", "local", "dense-projection-oracle"),
        ("example3", "family-orthogonality", "matrix-component-oracle"),
    ],
)
def test_an_oracle_that_gives_up_fails_its_check_not_the_run(monkeypatch, sid, run, check):
    monkeypatch.setattr(scenarios, "_SIGN_STEPS", 1)
    rep = run_verification(build_scenario(sid), grid=SMALL_GRID, seed=0)
    record = next(r for r in rep["runs"] if r["name"] == run)
    assert record["error"] is None
    rec = next(c for c in record["checks"] if c["name"] == check)
    assert not rec["passed"] and rec["required"] and "did not converge" in rec["note"]
    assert run in rep["failures"]


def _counting(scn, calls):
    """``scn`` with its local target and section counting their
    evaluations in ``calls``, by (name, lambda)."""

    def counted(name, evaluator):
        def run(lam):
            calls[name, lam] += 1
            return evaluator(lam)

        return run

    q = scn.local_section.target
    target = ElementFamily(q.algebra, counted("target", q.evaluator))
    sec = Section(scn.pi, target, counted("section", scn.local_section.evaluator))
    return scn.replace(local_section=sec)


def test_each_value_is_computed_once_per_run_and_never_kept():
    calls = collections.Counter()
    scn = _counting(build_scenario("dual-testbed"), calls)
    run_verification(scn, grid=SMALL_GRID, seed=0)
    assert {name for name, _ in calls} == {"target", "section"}
    assert set(calls.values()) == {1}
    assert families._MEMO.get() is None

    run_verification(scn, grid=SMALL_GRID, seed=0)  # a second run computes afresh
    assert set(calls.values()) == {2}

    before = calls["target", 0.4]
    scn.local_section.target(0.4)
    scn.local_section.target(0.4)  # outside a run nothing is stored
    assert calls["target", 0.4] == before + 2


def test_a_product_factor_tail_is_no_slack_on_another_factor(monkeypatch):
    # a 3e-8 I bump on the matrix block of example3's second lift: the
    # series factor's tail, from about 6e-8 at lambda = 0 up, used to hide
    # it, and the whole report passed
    scn = build_scenario("example3")
    src, kernel = scn.pi.source, lifting._ortho_point
    bump = src.from_components(src.factors[0].zero(), 3e-8 * src.factors[1].one())

    def bumped(e_fam, sec_v, lam, audit_sink=None):
        els = kernel(e_fam, sec_v, lam, audit_sink=audit_sink)
        return {**els, "p": els["p"] + bump} if sec_v is scn.family_sections[1] else els

    monkeypatch.setattr(lifting, "_ortho_point", bumped)
    rep = run_verification(scn, grid=(0.0, 0.5), seed=0)
    assert rep["failures"] == ["family-orthogonality", "family-step-1"]


# the defect key of each check that reads the rows, by check name
_ROW_CHECKS = {check: key for key, (check, _) in scenarios._DEFECTS.items()}


@pytest.mark.parametrize("sid", list_scenarios())
def test_every_row_check_is_the_worst_certified_value_of_the_valid_rows(sid):
    """One rule for every record: a check is the worst max(0, defect -
    allowance) over the valid rows, whichever path wrote them."""
    rep = run_verification(build_scenario(sid), grid=SMALL_GRID, seed=0)
    labels = set()
    for run in rep["runs"]:
        for check in run["checks"]:
            key = _ROW_CHECKS.get(check["name"])
            if key is None:  # an oracle, or the count of invalid points
                continue
            vals = [
                max(0.0, row["defects"][key] - row["allowances"][key])
                for row in run["rows"]
                if row["valid"]
            ]
            assert vals and check["value"] == max(vals), (run["name"], check["name"])
            labels.add(run["name"].split("-step-")[0] + ("-step" if "-step-" in run["name"] else ""))
    assert labels == {
        "block-testbed": {"local", "family-step", "family-orthogonality"},
        "dual-testbed": {
            "local", "self-adjoint", "family-step", "family-orthogonality",
            "family-sa-step", "family-sa-orthogonality",
        },
        "example1": {"trivial-0", "trivial-1"},
        "example2": {"trivial-0", "trivial-1", "family-step", "family-orthogonality"},
        "example3": {"family-step", "family-orthogonality"},
        "remark3-probe": set(),
    }[sid]


def test_a_pinned_local_target_takes_the_trivial_lift_and_checks_it():
    scn = build_scenario("dual-testbed")
    one = ElementFamily(scn.pi.target, lambda lam: scn.pi.target.one())
    sec = Section(scn.pi, one, lambda lam: scn.pi.source.one())
    rep = run_verification(scn.replace(local_section=sec, theorem_paths=(1,)), grid=SMALL_GRID, seed=0)
    (local,) = rep["runs"]
    assert local["name"] == "local" and local["kind"] == "trivial" and local["passed"]
    assert "trivial shortcut" in local["notes"]
    assert len(local["rows"]) == len(SMALL_GRID) and all(row["valid"] for row in local["rows"])
    assert [c["name"] for c in local["checks"]] == ["idempotency", "lift"]


def test_tol_idem_and_tol_lift_judge_their_checks():
    # commutation, self-adjointness and the residuals by tol_idem; the lift
    # and every orthogonality check by tol_lift
    by_lift = {
        "lift", "orthogonal-to-predecessors-left", "orthogonal-to-predecessors-right",
        "pairwise-orthogonality", "partial-sum-idempotency", "input-orthogonality",
    }
    tol = {"tol_idem": 1e-3, "tol_lift": 2e-3}
    rep = run_verification(build_scenario("dual-testbed"), grid=(0.0,), tolerances=tol, seed=0)
    assert rep["tolerances"] == tol
    judged = {c["name"]: c["bound"] for r in rep["runs"] for c in r["checks"] if c["name"] in _ROW_CHECKS}
    judged["input-orthogonality"] = next(h["bound"] for h in rep["hypotheses"] if h["name"] == "input-orthogonality")
    assert set(judged) == set(_ROW_CHECKS) | {"input-orthogonality"}
    assert judged == {name: 2e-3 if name in by_lift else 1e-3 for name in judged}


_TOLERANCES = {"tol_idem": 1e-9, "tol_lift": 1e-8}


def test_each_record_judges_exactly_the_defects_of_its_valid_rows():
    """A record is judged once per defect key its valid rows hold, by the
    check name and tolerance of that key's row of ``_DEFECTS``; a record
    that judged a key its rows hold without it, or another key, fails
    here, and so does a table missing a row (the run raises KeyError)."""
    cases = [(sid, SMALL_GRID) for sid in list_scenarios()] + [("example2", (0.0, 2.0))]
    judged_keys = set()
    for sid, grid in cases:
        rep = run_verification(build_scenario(sid), grid=grid, seed=0)
        assert rep["tolerances"] == _TOLERANCES
        for run in rep["runs"]:
            keys = {key for row in run["rows"] if row["valid"] for key in row["defects"]}
            judged = [c for c in run["checks"] if c["name"] in _ROW_CHECKS]
            assert sorted(_ROW_CHECKS[c["name"]] for c in judged) == sorted(keys), (sid, run["name"])
            for check in judged:
                tol_key = scenarios._DEFECTS[_ROW_CHECKS[check["name"]]][1]
                assert check["bound"] == _TOLERANCES[tol_key], (sid, run["name"], check["name"])
            judged_keys |= keys
    assert judged_keys == set(scenarios._DEFECTS)  # no row of the table is dead


def test_the_checks_of_each_record_come_in_path_order():
    rep = run_verification(build_scenario("dual-testbed"), grid=SMALL_GRID, seed=0)
    names = {run["name"]: [c["name"] for c in run["checks"]] for run in rep["runs"]}
    step = [
        "idempotency", "lift", "orthogonal-to-predecessors-left", "orthogonal-to-predecessors-right",
        "eq17-residual", "quadratic-residual", "commutation", "validity-covers-grid",
    ]
    joint = ["pairwise-orthogonality", "partial-sum-idempotency"]
    assert names == {
        "local": [
            "idempotency", "lift", "commutation", "eq2-residual", "eq5-residual",
            "validity-covers-grid", "dense-projection-oracle",
        ],
        "self-adjoint": [
            "idempotency", "lift", "commutation", "self-adjointness", "factorisation", "validity-covers-grid",
        ],
        **{f"family-step-{k}": step for k in range(3)},
        "family-orthogonality": [*joint, "validity-covers-grid"],
        **{f"family-sa-step-{k}": step for k in range(3)},
        "family-sa-orthogonality": [*joint, "self-adjointness", "validity-covers-grid"],
    }


def test_a_defect_with_no_row_in_the_table_raises():
    trace = LiftTrace((LiftPoint(0j, True, {"no-such-defect": 0.0}),), (), label="local")
    with pytest.raises(KeyError, match="no-such-defect"):
        scenarios._lift_record("local", 1, trace, (0j,), _TOLERANCES)


@pytest.mark.parametrize("label", ["trivial", "local"])
def test_a_record_with_no_valid_row_is_judged_by_its_grid_cover_alone(label):
    trace = LiftTrace((LiftPoint(0j, False, {"enclosure": math.inf}),), (), label=label)
    rec = scenarios._lift_record("r", 1, trace, (0j,), _TOLERANCES)
    assert [(c["name"], c["value"], c["passed"]) for c in rec["checks"]] == [("validity-covers-grid", 1.0, False)]
    assert not rec["passed"]


def test_a_family_with_no_valid_point_fails_only_its_grid_cover():
    rep = run_verification(build_scenario("example2"), grid=(2.0,), seed=0)
    for name in ("family-step-0", "family-orthogonality"):
        run = next(r for r in rep["runs"] if r["name"] == name)
        assert not any(row["valid"] for row in run["rows"])
        assert [(c["name"], c["value"], c["passed"]) for c in run["checks"]] == [
            ("validity-covers-grid", 1.0, False)
        ]
    assert "family-step-0" in rep["failures"]


def _nan_embed_scenario() -> Scenario:
    """The identity on the unitized 4-point convolution algebra, whose
    embedding returns NaN for the second probe-basis element only."""
    alg = UnitizationAlgebra(ConvolutionAlgebra(4))
    second = alg.matrix_representation(alg.probe_basis()[1])

    def embed(lam, y):
        return math.nan * y if np.array_equal(alg.matrix_representation(y), second) else y

    pi = HomFamily(alg, alg, lambda lam, x: x, embed=embed)
    return Scenario(id="nan-embed", pi=pi, grid=(0.0,), theorem_paths=())


def test_a_nan_after_a_finite_value_fails_its_hypothesis():
    """``max`` keeps a NaN only where it comes first, so this read 0.0 and
    the report passed."""
    rep = run_verification(_nan_embed_scenario())
    surj = next(h for h in rep["hypotheses"] if h["name"] == "surjectivity-at-base")
    assert surj["value"] is None and not surj["passed"]
    assert rep["failures"] == ["surjectivity-at-base"] and not rep["passed"]


def test_a_nan_after_a_finite_value_fails_its_probe(monkeypatch):
    # the second of the three sampled elements is NaN; the first reads 0
    real, drawn = ConvolutionAlgebra.random_element, []

    def draw(self, rng, scale=1.0):
        drawn.append(real(self, rng, scale))
        return math.nan * drawn[-1] if len(drawn) == 2 else drawn[-1]

    probe = dict(build_scenario("example2").probes)["nilpotency"]
    monkeypatch.setattr(ConvolutionAlgebra, "random_element", draw)
    (rec,) = probe(np.random.default_rng(0))
    assert len(drawn) == 3
    assert rec["name"] == "nilpotency-at-grid-size" and rec["value"] is None and not rec["passed"]


def test_an_oracle_reads_nan_where_it_has_nothing_or_a_nan_to_compare():
    eye = np.eye(2)
    ok = scenarios._oracle_check("oracle", [(eye, eye)])
    assert ok["passed"] and ok["value"] < 1e-12
    # a NaN lift after a good one: the oracle cannot split it and says why
    nan = scenarios._oracle_check("oracle", [(eye, eye), (eye, np.full((2, 2), math.nan))])
    assert nan["value"] is None and not nan["passed"] and nan["note"].startswith("oracle failed")
    # no valid point: nothing was compared, which used to read 0.0 and pass
    empty = scenarios._oracle_check("oracle", [])
    assert empty["value"] is None and not empty["passed"]


@pytest.mark.parametrize("sid", list_scenarios())
def test_every_verdict_follows_from_its_value_and_bound(sid):
    """A check passes iff its value is at most its bound or, for a lower
    bound, above it; no record writes a bound that is not the one it tests."""
    rep = run_verification(build_scenario(sid), grid=SMALL_GRID, seed=0)
    checks = [*rep["hypotheses"], *(c for rec in (*rep["runs"], *rep["probes"]) for c in rec["checks"])]
    lower = set()
    for check in checks:
        value, bound = check["value"], check["bound"]
        if check.get("lower_bound"):
            lower.add(check["name"])
            assert check["lower_bound"] is True
        holds = value is not None and (value > bound if check.get("lower_bound") else value <= bound)
        assert check["passed"] == holds, check
    assert lower == {
        "block-testbed": {"family-genuinely-moves"},
        "example3": {"orbit-moves"},
        "remark3-probe": {"kernel-spectrum-escapes"},
    }.get(sid, set())
