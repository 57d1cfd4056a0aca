"""Lifting algorithms on finite-dimensional testbeds with dense oracles."""

import json

import numpy as np
import pytest

from idemlift import lifting
from idemlift.algebra import (
    BlockTriangularAlgebra,
    DualAlgebra,
    MatrixAlgebra,
    ProductAlgebra,
    alg_exp,
)
from idemlift.errors import (
    AmbiguousSign,
    EnclosureFailed,
    HalfInSpectrum,
    ParameterError,
    SectionInvalid,
)
from idemlift.families import ElementFamily, HomFamily, Section, constant_family
from idemlift.lifting import (
    LiftTrace,
    choose_sign,
    lift_family,
    lift_local,
    lift_local_sa,
    lift_ortho_step,
    lift_trivial,
)
from idemlift.scenarios import Scenario, run_verification
from oracles import contour_projection

M4 = MatrixAlgebra(4)
DUAL4 = DualAlgebra(M4)

SKEW = np.array(
    [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0]], dtype=complex
)
P0 = np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex)

GRID = tuple(np.linspace(-0.5, 0.5, 21))


def rotated_projection(lam: complex, seed: np.ndarray = P0) -> "Element":
    turn = alg_exp(M4.wrap(lam * SKEW))
    back = alg_exp(M4.wrap(-lam * SKEW))
    return turn * M4.wrap(seed) * back


def dual_pi() -> HomFamily:
    return HomFamily(
        DUAL4,
        M4,
        lambda lam, x: DUAL4.base_part(x),
        embed=lambda lam, b: DUAL4.from_parts(b, M4.zero()),
        star_on_real=True,
        label="forget-eps",
    )


def messy_section(pi: HomFamily, q: ElementFamily, seed: int, amp=0.3) -> Section:
    rng = np.random.default_rng(seed)
    noise = M4.random_element(rng)
    return Section(
        pi,
        q,
        lambda lam: DUAL4.from_parts(q(lam), (amp + 0.2 * lam) * noise),
        label="perturbed",
    )


# ---------------------------------------------------------------------------
# trivial lifts


def test_lift_trivial_zero_family():
    q = ElementFamily(M4, lambda lam: M4.zero())
    out = lift_trivial(q, into=DUAL4)
    assert out is not None and out(0.37).norm() == 0.0


def test_lift_trivial_unit_family():
    q = ElementFamily(M4, lambda lam: M4.one())
    out = lift_trivial(q, into=DUAL4)
    assert out is not None and (out(-0.2) - DUAL4.one()).norm() == 0.0


def test_lift_trivial_declines_genuine_projections():
    q = ElementFamily(M4, rotated_projection)
    assert lift_trivial(q, into=DUAL4) is None


# ---------------------------------------------------------------------------
# sign selection


def test_choose_sign_picks_kernel_candidate():
    pi = dual_pi()
    rng = np.random.default_rng(3)
    inside = DUAL4.from_parts(M4.zero(), M4.random_element(rng))
    outside = -1.0 * DUAL4.one() + DUAL4.from_parts(M4.zero(), M4.random_element(rng))
    assert choose_sign((inside, outside), pi) == 1
    assert choose_sign((outside, inside), pi) == -1


def test_choose_sign_rejects_two_kernel_candidates():
    pi = dual_pi()
    rng = np.random.default_rng(4)
    k1 = DUAL4.from_parts(M4.zero(), M4.random_element(rng))
    k2 = DUAL4.from_parts(M4.zero(), M4.random_element(rng))
    with pytest.raises(AmbiguousSign):
        choose_sign((k1, k2), pi)


def test_choose_sign_rejects_two_misses():
    pi = dual_pi()
    half = 0.5 * DUAL4.one()
    with pytest.raises(AmbiguousSign):
        choose_sign((half, -1.0 * half), pi)


# ---------------------------------------------------------------------------
# local path


def test_lift_local_dual_testbed_against_oracle():
    pi = dual_pi()
    q = ElementFamily(M4, rotated_projection)
    sec = messy_section(pi, q, seed=7)
    trace = lift_local(pi, q, sec, GRID)
    assert all(pt.valid for pt in trace.points)
    assert trace.worst("idempotency") <= 1e-9
    assert trace.worst("lift") <= 1e-8
    assert trace.worst("commutation") <= 1e-9
    assert trace.worst("eq2") <= 1e-9
    assert trace.worst("eq5") <= 1e-9
    for pt in trace.points[::4]:
        rep = DUAL4.matrix_representation(pt.elements["a"])
        oracle = contour_projection(rep, 1.0 + 0j, 0.45)
        got = DUAL4.matrix_representation(pt.elements["p"])
        assert np.linalg.norm(got - oracle, 2) <= 1e-7


def test_lift_local_exact_section_is_fixed():
    # with no kernel perturbation the correction vanishes identically
    pi = dual_pi()
    q = ElementFamily(M4, rotated_projection)
    sec = Section(pi, q, lambda lam: DUAL4.from_parts(q(lam), M4.zero()))
    trace = lift_local(pi, q, sec, [0.0, 0.3, -0.45])
    for pt in trace.points:
        assert (pt.elements["p"] - pt.elements["a"]).norm() <= 1e-12


def test_lift_local_sheet_flip_is_consistent():
    # feeding the same data twice must freeze the same sheet and give the
    # same projection to quadrature accuracy
    pi = dual_pi()
    q = ElementFamily(M4, rotated_projection)
    sec = messy_section(pi, q, seed=11)
    t1 = lift_local(pi, q, sec, [0.0, 0.2])
    t2 = lift_local(pi, q, sec, [0.0, 0.2])
    assert t1.sheet == t2.sheet
    gap = max(
        (a.elements["p"] - b.elements["p"]).norm()
        for a, b in zip(t1.points, t2.points)
    )
    assert gap <= 1e-10


def test_lift_local_rejects_bad_section():
    pi = dual_pi()
    q = ElementFamily(M4, rotated_projection)
    broken = Section(
        pi, q, lambda lam: DUAL4.from_parts(q(lam) + 0.5 * M4.one(), M4.zero())
    )
    with pytest.raises(SectionInvalid):
        lift_local(pi, q, broken, GRID)


def test_lift_local_rejects_half_in_spectrum():
    pi = dual_pi()
    half = M4.wrap(0.5 * np.eye(4))
    q = ElementFamily(M4, lambda lam: half)
    sec = Section(pi, q, lambda lam: DUAL4.from_parts(half, M4.zero()))
    with pytest.raises(HalfInSpectrum):
        lift_local(pi, q, sec, GRID)


def test_lift_local_empty_grid_rejected():
    pi = dual_pi()
    q = ElementFamily(M4, rotated_projection)
    sec = messy_section(pi, q, seed=13)
    with pytest.raises(ParameterError):
        lift_local(pi, q, sec, [])


def test_lift_trace_accessors():
    pi = dual_pi()
    q = ElementFamily(M4, rotated_projection)
    sec = messy_section(pi, q, seed=17)
    trace = lift_local(pi, q, sec, [0.0, 0.1])
    assert isinstance(trace, LiftTrace)
    assert trace.point(0.1).valid
    with pytest.raises(KeyError):
        trace.point(0.9)
    assert len(trace.valid_points()) == 2
    assert trace.contours[0].branch == "cut"


# ---------------------------------------------------------------------------
# self-adjoint path


def test_lift_local_sa_dual_testbed():
    pi = dual_pi()
    q = ElementFamily(M4, rotated_projection)
    sec = messy_section(pi, q, seed=19)
    trace = lift_local_sa(pi, q, sec, GRID)
    assert all(pt.valid for pt in trace.points)
    assert trace.worst("idempotency") <= 1e-9
    assert trace.worst("lift") <= 1e-8
    assert trace.worst("self-adjointness") <= 1e-9
    assert trace.worst("factorisation") <= 1e-9


def test_lift_local_sa_constant_diagonal_is_exact():
    pi = dual_pi()
    p0 = M4.wrap(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    q = constant_family(p0)
    sec = Section(pi, q, lambda lam: DUAL4.from_parts(p0, M4.zero()))
    trace = lift_local_sa(pi, q, sec, [0.0, 0.25])
    for pt in trace.points:
        want = DUAL4.from_parts(p0, M4.zero())
        assert (pt.elements["p"] - want).norm() <= 1e-11


def test_lift_local_sa_needs_real_grid():
    pi = dual_pi()
    q = ElementFamily(M4, rotated_projection)
    sec = messy_section(pi, q, seed=23)
    with pytest.raises(ParameterError):
        lift_local_sa(pi, q, sec, [0.0, 0.1 + 0.2j])


# ---------------------------------------------------------------------------
# orthogonal step and family induction


def zero_family(alg) -> ElementFamily:
    return ElementFamily(alg, lambda lam: alg.zero())


def test_ortho_step_with_no_predecessor_matches_local():
    pi = dual_pi()
    q = ElementFamily(M4, rotated_projection)
    sec = messy_section(pi, q, seed=29)
    t_ortho = lift_ortho_step(pi, zero_family(DUAL4), zero_family(M4), q, sec, GRID)
    t_local = lift_local(pi, q, sec, GRID)
    gap = max(
        (po.elements["p"] - pl.elements["p"]).norm()
        for po, pl in zip(t_ortho.points, t_local.points)
    )
    assert gap <= 1e-10


def test_ortho_step_idempotent_section_is_fixed():
    pi = dual_pi()
    q = ElementFamily(M4, rotated_projection)
    sec = Section(pi, q, lambda lam: DUAL4.from_parts(q(lam), M4.zero()))
    trace = lift_ortho_step(pi, zero_family(DUAL4), zero_family(M4), q, sec, GRID)
    for pt in trace.points:
        assert (pt.elements["p"] - pt.elements["a"]).norm() <= 1e-12


def test_ortho_step_defect_suite():
    pi = dual_pi()
    e1 = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    e2 = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
    q1 = ElementFamily(M4, lambda lam: rotated_projection(lam, e1))
    q2 = ElementFamily(M4, lambda lam: rotated_projection(lam, e2))
    rng = np.random.default_rng(31)
    noise = M4.random_element(rng)
    p1 = ElementFamily(
        DUAL4, lambda lam: DUAL4.from_parts(q1(lam), M4.zero())
    )
    sec2 = Section(
        pi, q2, lambda lam: DUAL4.from_parts(q2(lam), (0.25 + 0.1 * lam) * noise)
    )
    trace = lift_ortho_step(pi, p1, q1, q2, sec2, GRID)
    assert all(pt.valid for pt in trace.points)
    assert 0.0 < trace.eps0 <= 0.5
    for key in ("idempotency", "ef", "fe", "eq17", "quadratic", "commutation"):
        assert trace.worst(key) <= 1e-9, key
    assert trace.worst("lift") <= 1e-8


def test_ortho_step_rejects_non_orthogonal_targets():
    pi = dual_pi()
    q = ElementFamily(M4, rotated_projection)
    sec = messy_section(pi, q, seed=37)
    p_same = ElementFamily(DUAL4, lambda lam: DUAL4.from_parts(q(lam), M4.zero()))
    with pytest.raises(SectionInvalid):
        lift_ortho_step(pi, p_same, q, q, sec, GRID)


def test_lift_family_three_orthogonal_projections():
    pi = dual_pi()
    rng = np.random.default_rng(41)
    seeds = [np.zeros((4, 4), dtype=complex) for _ in range(3)]
    for i, s in enumerate(seeds):
        s[i, i] = 1.0
    targets = [
        ElementFamily(M4, lambda lam, _s=s: rotated_projection(lam, _s))
        for s in seeds
    ]
    secs = [
        Section(
            pi,
            tgt,
            lambda lam, _t=tgt, _n=M4.random_element(rng): DUAL4.from_parts(
                _t(lam), (0.2 + 0.1 * lam) * _n
            ),
        )
        for tgt in targets
    ]
    fams, traces = lift_family(pi, targets, secs, GRID)
    assert len(fams) == 3 and len(traces) == 3
    for trace in traces:
        assert all(pt.valid for pt in trace.points)
        assert trace.worst("idempotency") <= 1e-8
        assert trace.worst("lift") <= 1e-8

    for lam in GRID:
        vals = [f(lam) for f in fams]
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert (vals[i] * vals[j]).norm() <= 1e-8
        total = vals[0]
        for v in vals[1:]:
            total = total + v
            assert (total * total - total).norm() <= 1e-8


def test_lift_family_sa_gives_self_adjoint_lifts():
    pi = dual_pi()
    rng = np.random.default_rng(43)
    seeds = [np.diag([1.0, 0, 0, 0]).astype(complex), np.diag([0, 0, 1.0, 0]).astype(complex)]
    targets = [
        ElementFamily(M4, lambda lam, _s=s: rotated_projection(lam, _s))
        for s in seeds
    ]
    secs = [
        Section(
            pi,
            tgt,
            lambda lam, _t=tgt, _n=M4.random_element(rng): DUAL4.from_parts(
                _t(lam), (0.15 + 0.05 * lam) * _n
            ),
        )
        for tgt in targets
    ]
    fams, _ = lift_family(pi, targets, secs, GRID, sa=True)
    for lam in (-0.5, 0.0, 0.5):
        for f in fams:
            p = f(lam)
            assert (p - p.adjoint()).norm() <= 1e-9
            assert (p * p - p).norm() <= 1e-8


def test_lift_family_respects_cap_and_shape():
    pi = dual_pi()
    q = ElementFamily(M4, rotated_projection)
    sec = messy_section(pi, q, seed=47)
    with pytest.raises(ParameterError):
        lift_family(pi, [q], [sec, sec], GRID)
    with pytest.raises(ParameterError):
        lift_family(pi, [q, q], [sec, sec], GRID, cap=1)


def diagonal_targets(count: int) -> list[ElementFamily]:
    seeds = [np.zeros((4, 4), dtype=complex) for _ in range(count)]
    for i, s in enumerate(seeds):
        s[i, i] = 1.0
    return [ElementFamily(M4, lambda lam, _s=s: rotated_projection(lam, _s)) for s in seeds]


def test_lift_family_solves_each_point_once(monkeypatch):
    # the lifted families hand back the step's idempotents, so evaluating
    # them on the grid adds no square root to the one per (step, point)
    calls = []
    real = lifting.sqrt_near_one

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(lifting, "sqrt_near_one", counted)
    pi = dual_pi()
    rng = np.random.default_rng(59)
    targets = diagonal_targets(3)
    secs = [
        Section(
            pi,
            tgt,
            lambda lam, _t=tgt, _n=M4.random_element(rng): DUAL4.from_parts(
                _t(lam), (0.2 + 0.1 * lam) * _n
            ),
        )
        for tgt in targets
    ]
    grid = GRID[::5]
    fams, traces = lift_family(pi, targets, secs, grid)
    per_step = [len(trace.valid_points()) for trace in traces]
    assert per_step == [len(grid)] * 3
    assert len(calls) == sum(per_step)
    for lam in grid:
        for fam, trace in zip(fams, traces):
            assert fam(lam) is trace.point(complex(lam)).p
    assert len(calls) == sum(per_step)


# ---------------------------------------------------------------------------
# validity over a non-radical kernel: pi reads the first factor of M4 x M4


PROD = ProductAlgebra((M4, M4))
GROWTH = 0.5  # the kernel factor c lam I of the first section leaves the
# frozen enclosures once c lam > 0.067, i.e. for lam > 0.134
SPLIT_GRID = (-0.2, 0.0, 0.1, 0.3)


def product_family_data():
    pi = HomFamily(
        PROD,
        M4,
        lambda lam, x: PROD.component(x, 0),
        embed=lambda lam, b: PROD.from_components(b, M4.zero()),
        label="first-factor",
    )
    targets = diagonal_targets(3)
    growth = [GROWTH, 0.0, 0.0]
    secs = [
        Section(
            pi,
            tgt,
            lambda lam, _t=tgt, _c=c: PROD.from_components(_t(lam), (_c * lam) * M4.one()),
        )
        for tgt, c in zip(targets, growth)
    ]
    return pi, targets, secs


def test_lift_family_invalid_point_propagates_through_later_steps():
    pi, targets, secs = product_family_data()
    fams, traces = lift_family(pi, targets, secs, SPLIT_GRID)
    for trace in traces:
        assert [pt.valid for pt in trace.points] == [True, True, True, False]
        assert trace.worst("idempotency") <= 1e-9
        assert trace.worst("ef") <= 1e-9
    for fam in fams:
        with pytest.raises(EnclosureFailed):
            fam(0.3)
        with pytest.raises(EnclosureFailed):
            fam(0.25)  # off the grid: the step's kernel runs and fails
        p = fam(0.05)  # off the grid and inside the enclosures
        assert (p * p - p).norm() <= 1e-9


def test_ortho_step_records_predecessor_failures_apart():
    # step 0 fails its own frozen enclosures at lambda = 0.3; the later
    # steps fail there only because their predecessor e does
    pi, targets, secs = product_family_data()
    _, traces = lift_family(pi, targets, secs, SPLIT_GRID)
    keys = [sorted(trace.points[-1].defects) for trace in traces]
    assert keys == [["enclosure"], ["predecessor"], ["predecessor"]]


def test_family_orthogonality_record_fails_on_invalid_rows():
    pi, targets, secs = product_family_data()
    scn = Scenario(
        id="product-split",
        source=PROD,
        target=M4,
        pi=pi,
        grid=SPLIT_GRID,
        theorem_paths=(3,),
        family_targets=tuple(targets),
        family_sections=tuple(secs),
        kernel_required=False,
    )
    report = run_verification(scn)
    runs = {run["name"]: run for run in report["runs"]}
    ortho = runs["family-orthogonality"]
    assert [row["valid"] for row in ortho["rows"]] == [True, True, True, False]
    failed = {c["name"]: c["value"] for c in ortho["checks"] if not c["passed"]}
    assert failed == {"validity-covers-grid": 1.0}
    assert not ortho["passed"]
    for k in range(3):
        assert not runs[f"family-step-{k}"]["passed"]
    assert not report["passed"]
    json.loads(json.dumps(report, allow_nan=False))


# ---------------------------------------------------------------------------
# block-triangular testbed: a non-constant homomorphism family


def block_pi(block: BlockTriangularAlgebra, prod) -> HomFamily:
    # pi(lam) reads the diagonal blocks after conjugating by exp(lam N),
    # N strictly upper so the twist is polynomial in lam
    n_top = block.k
    twist = np.zeros((block.size, block.size), dtype=complex)
    twist[0, n_top] = 1.0

    def run(lam: complex, x):
        m = block.matrix_representation(x)
        conj = np.eye(block.size) - lam * twist  # inverse of exp(lam N)
        m = (np.eye(block.size) + lam * twist) @ m @ conj
        return prod.wrap((m[:n_top, :n_top], m[n_top:, n_top:]))

    def emb(lam: complex, y):
        top, bot = prod._own(y)
        m = np.zeros((block.size, block.size), dtype=complex)
        m[:n_top, :n_top] = top
        m[n_top:, n_top:] = bot
        conj = np.eye(block.size) - lam * twist
        m = conj @ m @ (np.eye(block.size) + lam * twist)
        return block.wrap(m)

    return HomFamily(block, prod, run, embed=emb, label="block-diagonal-twisted")


def test_lift_local_block_testbed():
    block = BlockTriangularAlgebra(2, 2)
    prod = ProductAlgebra((MatrixAlgebra(2), MatrixAlgebra(2)))
    pi = block_pi(block, prod)

    top = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)  # idempotent
    q = ElementFamily(
        prod,
        lambda lam: prod.wrap((top, np.zeros((2, 2), dtype=complex))),
    )
    rng = np.random.default_rng(53)
    corner = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))

    def sec_eval(lam):
        m = np.zeros((4, 4), dtype=complex)
        m[:2, :2] = top
        m[:2, 2:] = (0.4 + 0.2 * lam) * corner
        twist = np.zeros((4, 4), dtype=complex)
        twist[0, 2] = 1.0
        conj_in = np.eye(4) - lam * twist
        return block.wrap(conj_in @ m @ (np.eye(4) + lam * twist))

    sec = Section(pi, q, sec_eval)
    trace = lift_local(pi, q, sec, GRID)
    assert all(pt.valid for pt in trace.points)
    assert trace.worst("idempotency") <= 1e-9
    assert trace.worst("lift") <= 1e-8
