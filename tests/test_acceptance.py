"""End-to-end acceptance suite: nine criteria, one pass/fail line each.

Each test prints a summary line (visible under ``pytest -s``) and
enforces both the numerical thresholds and the runtime budget.
"""

import time

import numpy as np

from oracles import (
    contour_projection,
    half_shift_root,
    random_sectorial_matrix,
    random_split_spectrum_matrix,
)

from idemlift.algebra import MatrixAlgebra
from idemlift.contours import build_escape_arc, build_gamma_pair, circle_polygon, square_polygon
from idemlift.funcalc import ContourData, riesz_projection, sqrt_cut, sqrt_near_one
from idemlift.lifting import lift_family, lift_local, lift_local_sa
from idemlift.scenarios import build_scenario, run_verification

GRID21 = tuple(np.linspace(-0.5, 0.5, 21))


def _stamp(num: int, label: str, elapsed: float, budget: float) -> None:
    print(f"[PASS] criterion {num}: {label} ({elapsed:.1f}s <= {budget:.0f}s)")
    assert elapsed <= budget, f"criterion {num} exceeded its {budget}s budget"


def _gamma_for(x, eps_scale=1.0):
    rep = x.spectrum()
    P = build_escape_arc(rep)
    eps = eps_scale * P.distance_to_points(rep.points) / 3.0
    poly = build_gamma_pair(P, eps, rep.radius)
    return P, ContourData(poly, eps=eps, branch="cut", cut=P)


def _disc_matrix(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    eigs = radius * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    v += 2.0 * np.eye(n)
    return v @ np.diag(eigs) @ np.linalg.inv(v)


def test_criterion_1_riesz_projection_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    alg = MatrixAlgebra(6)
    cd = ContourData(circle_polygon(1 + 0j, 0.45), eps=0.1, label="around-1")
    worst_idem = worst_oracle = 0.0
    for _ in range(100):
        mat = random_split_spectrum_matrix(rng, 6)
        a = alg.wrap(mat)
        p = riesz_projection(a, cd)
        worst_idem = max(worst_idem, (p * p - p).norm())
        want = contour_projection(mat, 1.0, 0.45)
        worst_oracle = max(worst_oracle, float(np.max(np.abs(p.payload - want))))
    assert worst_idem <= 1e-9
    assert worst_oracle <= 1e-7
    _stamp(1, f"riesz idem {worst_idem:.1e}, oracle {worst_oracle:.1e}", time.perf_counter() - t0, 30.0)


def test_criterion_2_branch_square_roots():
    t0 = time.perf_counter()
    scalars = MatrixAlgebra(1)

    one = scalars.wrap([[1.0]])
    P, cd = _gamma_for(one)
    plus = sqrt_cut(one, P, cd, sheet=+1).payload[0, 0]
    minus = sqrt_cut(one, P, cd.replace(sheet=-1)).payload[0, 0]
    assert abs(plus - 1.0) <= 1e-10
    assert abs(minus + 1.0) <= 1e-10

    w0 = sqrt_near_one(scalars.zero())
    assert abs((2.0 * w0 + scalars.one()).payload[0, 0] - 1.0) <= 1e-10
    for y in (0.1, -0.2, 0.15 + 0.1j):
        w = sqrt_near_one(scalars.wrap([[y]])).payload[0, 0]
        assert abs(w - half_shift_root(y)) <= 1e-10

    rng = np.random.default_rng(202)
    m4 = MatrixAlgebra(4)
    worst_cut = 0.0
    for _ in range(100):
        x = m4.wrap(random_sectorial_matrix(rng, 4))
        P, cd = _gamma_for(x)
        s = sqrt_cut(x, P, cd, sheet=+1)
        worst_cut = max(worst_cut, (s * s - x).norm())
    worst_shift = 0.0
    for _ in range(100):
        y = m4.wrap(_disc_matrix(rng, 4, 0.3))
        w = sqrt_near_one(y)
        s = 2.0 * w + m4.one()
        worst_shift = max(worst_shift, (s * s - (m4.one() - y)).norm())
    assert worst_cut <= 1e-9
    assert worst_shift <= 1e-9
    _stamp(2, f"cut residual {worst_cut:.1e}, shifted residual {worst_shift:.1e}", time.perf_counter() - t0, 30.0)


def test_criterion_3_local_lift_on_both_testbeds():
    t0 = time.perf_counter()
    worst = {"lift": 0.0, "idempotency": 0.0, "commutation": 0.0, "oracle": 0.0}
    for sid in ("dual-testbed", "block-testbed"):
        scn = build_scenario(sid, seed=0)
        trace = lift_local(scn.local_section, GRID21)
        assert len(trace.valid_points()) == len(GRID21)
        for key in ("lift", "idempotency", "commutation"):
            worst[key] = max(worst[key], trace.worst(key))
        for pt in trace.points:
            rep = scn.pi.source.matrix_representation(pt.elements["a"])
            got = scn.pi.source.matrix_representation(pt.elements["p"])
            want = contour_projection(rep, 1.0, 0.45)
            worst["oracle"] = max(worst["oracle"], float(np.max(np.abs(got - want))))
    assert worst["lift"] <= 1e-8
    assert worst["idempotency"] <= 1e-9
    assert worst["commutation"] <= 1e-9
    assert worst["oracle"] <= 1e-7
    _stamp(3, "local lifts on both testbeds: " + ", ".join(f"{k} {v:.1e}" for k, v in worst.items()),
           time.perf_counter() - t0, 60.0)


def test_criterion_4_self_adjoint_local_lift():
    t0 = time.perf_counter()
    scn = build_scenario("dual-testbed", seed=0)
    trace = lift_local_sa(scn.local_section, GRID21)
    assert len(trace.valid_points()) == len(GRID21)
    assert trace.worst("lift") <= 1e-8
    assert trace.worst("idempotency") <= 1e-9
    assert trace.worst("commutation") <= 1e-9
    assert trace.worst("self-adjointness") <= 1e-9
    assert trace.worst("factorisation") <= 1e-9
    _stamp(4, f"sa {trace.worst('self-adjointness'):.1e}, factorisation {trace.worst('factorisation'):.1e}",
           time.perf_counter() - t0, 60.0)


def test_criterion_5_family_induction():
    t0 = time.perf_counter()
    scn = build_scenario("dual-testbed", seed=0)

    local = lift_local(scn.family_sections[0], GRID21)
    assert local.worst("eq2") <= 1e-9
    assert local.worst("eq5") <= 1e-9

    fams, traces = lift_family(scn.family_sections, GRID21)
    worst_lift = max(tr.worst("lift") for tr in traces)
    worst_eq17 = max(tr.worst("eq17") for tr in traces)
    worst_pair = 0.0
    for lam in GRID21:
        vals = [f(lam) for f in fams]
        for i, vi in enumerate(vals):
            for j, vj in enumerate(vals):
                if i != j:
                    worst_pair = max(worst_pair, (vi * vj).norm())
    assert worst_lift <= 1e-8
    assert worst_pair <= 1e-8
    assert worst_eq17 <= 1e-9
    _stamp(5, f"family lift {worst_lift:.1e}, pairwise {worst_pair:.1e}, eq17 {worst_eq17:.1e}",
           time.perf_counter() - t0, 120.0)


def test_criterion_6_self_adjoint_family_induction():
    t0 = time.perf_counter()
    scn = build_scenario("dual-testbed", seed=0)
    fams, traces = lift_family(scn.family_sections, GRID21, sa=True)
    worst_lift = max(tr.worst("lift") for tr in traces)
    worst_eq17 = max(tr.worst("eq17") for tr in traces)
    worst_pair = worst_sa = 0.0
    for lam in GRID21:
        vals = [f(lam) for f in fams]
        for i, vi in enumerate(vals):
            worst_sa = max(worst_sa, (vi - vi.adjoint()).norm())
            for j, vj in enumerate(vals):
                if i != j:
                    worst_pair = max(worst_pair, (vi * vj).norm())
    assert worst_lift <= 1e-8
    assert worst_pair <= 1e-8
    assert worst_eq17 <= 1e-9
    assert worst_sa <= 1e-9
    _stamp(6, f"sa family pairwise {worst_pair:.1e}, self-adjointness {worst_sa:.1e}",
           time.perf_counter() - t0, 120.0)


def test_criterion_7_worked_examples():
    t0 = time.perf_counter()

    scn1 = build_scenario("example1", seed=0)
    basis = scn1.pi.source.probe_basis()
    lams = [0.0, 0.25, -0.4, 0.5, -0.62, 0.9, 0.3j, -0.7j, 0.4 + 0.4j,
            -0.3 + 0.5j, 0.6 - 0.2j, -0.5 - 0.5j]
    worst_norm = 0.0
    for lam in lams:
        op = max(scn1.pi.apply(lam, b).norm() / b.norm() for b in basis)
        worst_norm = max(worst_norm, abs(op - 1.0))
    assert worst_norm <= 1e-10

    scn2 = build_scenario("example2", seed=0)
    conv = scn2.pi.target.base
    n_grid = conv.n_grid
    rng = np.random.default_rng(707)
    for _ in range(3):
        f = conv.random_element(rng, 2.0)
        power = f
        for _ in range(n_grid - 1):
            power = power * f
        assert power.norm() == 0.0  # nilpotency is exact, not approximate
    ones = conv.sample(lambda t: 1.0)
    slack = 1.0 + 10.0 / n_grid
    power = ones
    import math
    for n_fold in range(2, 7):
        power = power * ones
        assert power.norm() <= ones.norm() ** n_fold / math.factorial(n_fold) * slack

    rep = run_verification(build_scenario("example3", seed=0), grid=GRID21, seed=0)
    assert rep["passed"], rep["failures"]
    for run in rep["runs"]:
        if run["kind"] != "lift" or run.get("error"):
            continue
        for c in run["checks"]:
            if c["name"] == "lift":
                assert c["value"] <= 1e-8  # certified: tail bound already added
            if c["name"] == "idempotency":
                assert c["value"] <= 1e-9
    _stamp(7, f"norm constancy {worst_norm:.1e}, example3 end-to-end passed",
           time.perf_counter() - t0, 120.0)


def test_criterion_8_spectral_escape_probe():
    t0 = time.perf_counter()
    scn = build_scenario("remark3-probe", seed=0)
    gen = scn.pi.source.generator()
    for lam in (0.0, 0.3, -0.5):
        pts = scn.pi.apply(lam, gen).spectrum().points
        assert len(pts) == 1
        assert pts[0] == lam  # exact, by construction of the evaluation
    _stamp(8, "image spectra are exactly {lambda} at 0, 0.3, -0.5", time.perf_counter() - t0, 5.0)


def test_criterion_9_metamorphic_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    m3 = MatrixAlgebra(3)
    worst_sheet = worst_contour = worst_riesz = 0.0
    for _ in range(10):
        x = m3.wrap(random_sectorial_matrix(rng, 3))
        P, cd1 = _gamma_for(x)
        _, cd2 = _gamma_for(x, eps_scale=0.6)
        s1 = sqrt_cut(x, P, cd1, sheet=+1)
        s2 = sqrt_cut(x, P, cd2, sheet=+1)
        neg = sqrt_cut(x, P, cd1.replace(sheet=-1))
        worst_contour = max(worst_contour, (s1 - s2).norm())
        worst_sheet = max(worst_sheet, (s1 + neg).norm())
    m6 = MatrixAlgebra(6)
    for _ in range(10):
        mat = random_split_spectrum_matrix(rng, 6)
        a = m6.wrap(mat)
        p1 = riesz_projection(a, ContourData(circle_polygon(1 + 0j, 0.45), eps=0.1))
        p2 = riesz_projection(a, ContourData(square_polygon(1 + 0j, 0.48), eps=0.1))
        worst_riesz = max(worst_riesz, (p1 - p2).norm())
    assert worst_sheet <= 1e-10
    assert worst_contour <= 1e-10
    assert worst_riesz <= 1e-10
    _stamp(9, f"sheet {worst_sheet:.1e}, contour {worst_contour:.1e}, riesz {worst_riesz:.1e}",
           time.perf_counter() - t0, 60.0)
