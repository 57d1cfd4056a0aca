"""Lifting algorithms on finite-dimensional testbeds with dense oracles."""

import json
import math

import numpy as np
import pytest

from idemlift import lifting
from idemlift.algebra import (
    BlockTriangularAlgebra,
    ConvolutionAlgebra,
    DualAlgebra,
    MatrixAlgebra,
    ProductAlgebra,
    WienerAlgebra,
    alg_exp,
)
from idemlift.errors import (
    AmbiguousSign,
    EnclosureFailed,
    HalfInSpectrum,
    NotInvertible,
    ParameterError,
    QuadratureNotConverged,
    SectionInvalid,
)
from idemlift.contours import square_polygon
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
from idemlift.scenarios import Scenario, build_scenario, run_verification
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
    trace = lift_trivial(dual_pi(), q, (0.0, 0.37))
    assert trace.label == "trivial" and all(pt.valid for pt in trace.points)
    assert trace.point(0.37).p.norm() == 0.0
    assert trace.worst("idempotency") == trace.worst("lift") == 0.0


def test_lift_trivial_unit_family():
    q = ElementFamily(M4, lambda lam: M4.one())
    trace = lift_trivial(dual_pi(), q, (-0.2, 0.0))
    assert (trace.point(-0.2).p - DUAL4.one()).norm() == 0.0
    assert trace.worst("idempotency") == trace.worst("lift") == 0.0


def test_lift_trivial_declines_genuine_projections():
    q = ElementFamily(M4, rotated_projection)
    assert lift_trivial(dual_pi(), q, GRID) is None


# ---------------------------------------------------------------------------
# points: the one per-lambda routine


def _series_defect(stored: float, tail: float):
    """A series of stored norm ``stored`` carrying the tail ``tail``."""
    conv = ConvolutionAlgebra(8)
    f = np.zeros(conv.shape, dtype=complex)
    f[0] = 8 * stored
    return WienerAlgebra(conv, 2).from_coeffs([conv.wrap(f)], tail=tail)


def test_point_keeps_the_candidate_with_the_largest_certified_value():
    loud = _series_defect(0.125, 1.0)  # raw 1.125, certified 0.125
    quiet = _series_defect(0.5, 0.0)  # raw 0.5, certified 0.5
    checks = lambda lam, els: {"pair": [loud, quiet], "swapped": [quiet, loud], "one": loud, "none": []}
    pt = lifting._point(0.0, lambda lam: {"p": loud}, checks)
    assert pt.valid
    assert pt.defects == {"pair": 0.5, "swapped": 0.5, "one": 1.125, "none": 0.0}
    # p's tail is slack on a lift defect only, and there is none here
    assert pt.allowances == {"pair": 0.0, "swapped": 0.0, "one": 1.0, "none": 0.0}
    assert pt.certified("one") == 0.125

    lift = lifting._point(0.0, lambda lam: {"p": loud}, lambda lam, els: {"lift": quiet})
    assert lift.defects == {"lift": 0.5} and lift.allowances == {"lift": 1.0}


def test_point_keeps_a_candidate_that_certifies_nothing():
    nan = _series_defect(math.nan, 0.0)
    pt = lifting._point(0.0, lambda lam: {}, lambda lam, els: {"d": [_series_defect(0.5, 0.0), nan]})
    assert math.isnan(pt.defects["d"]) and math.isnan(pt.certified("d"))


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
    trace = lift_local(sec, GRID)
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
    trace = lift_local(sec, [0.0, 0.3, -0.45])
    for pt in trace.points:
        assert (pt.elements["p"] - pt.elements["a"]).norm() <= 1e-12


def test_lift_local_sheet_flip_is_consistent():
    # feeding the same data twice must freeze the same sheet and give the
    # same projection to quadrature accuracy
    pi = dual_pi()
    q = ElementFamily(M4, rotated_projection)
    sec = messy_section(pi, q, seed=11)
    t1 = lift_local(sec, [0.0, 0.2])
    t2 = lift_local(sec, [0.0, 0.2])
    assert t1.contours[0].sheet == t2.contours[0].sheet
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
        lift_local(broken, GRID)


def test_lift_local_rejects_half_in_spectrum():
    pi = dual_pi()
    half = M4.wrap(0.5 * np.eye(4))
    q = ElementFamily(M4, lambda lam: half)
    sec = Section(pi, q, lambda lam: DUAL4.from_parts(half, M4.zero()))
    with pytest.raises(HalfInSpectrum):
        lift_local(sec, GRID)


def test_lift_local_empty_grid_rejected():
    pi = dual_pi()
    q = ElementFamily(M4, rotated_projection)
    sec = messy_section(pi, q, seed=13)
    with pytest.raises(ParameterError):
        lift_local(sec, [])


@pytest.mark.parametrize("grid", [[], [0.0, math.nan], [0.0, math.inf]], ids=["empty", "nan", "inf"])
@pytest.mark.parametrize("lift", ["lift_local", "lift_local_sa", "lift_ortho_step", "lift_family"])
def test_every_lift_refuses_an_empty_or_non_finite_grid_by_name(lift, grid):
    """A NaN point used to fail deep inside a lift ("spectral norm failed:
    non-finite entries"), and an infinite one with OutOfRadius."""
    pi = dual_pi()
    sec = messy_section(pi, ElementFamily(M4, rotated_projection), seed=13)
    zero_e, zero_u = constant_family(DUAL4.zero()), constant_family(M4.zero())
    call = {
        "lift_local": lambda: lift_local(sec, grid),
        "lift_local_sa": lambda: lift_local_sa(sec, grid),
        "lift_ortho_step": lambda: lift_ortho_step(zero_e, zero_u, sec, grid),
        "lift_family": lambda: lift_family([sec], grid),
    }[lift]
    with pytest.raises(ParameterError, match="lambda grid must be nonempty and finite"):
        call()


def test_lift_trace_accessors():
    pi = dual_pi()
    q = ElementFamily(M4, rotated_projection)
    sec = messy_section(pi, q, seed=17)
    trace = lift_local(sec, [0.0, 0.1])
    assert isinstance(trace, LiftTrace)
    assert trace.point(0.1).valid
    with pytest.raises(KeyError):
        trace.point(0.9)
    assert len(trace.valid_points()) == 2
    assert trace.contours[0].branch == "cut"


def test_non_finite_evidence_certifies_nothing():
    """A NaN or infinite defect or allowance gives a NaN certified value,
    and one NaN makes the worst value NaN wherever it sits; clamping with
    max(0.0, .) would turn a NaN defect into a certified 0."""
    nan, inf = math.nan, math.inf
    for defect, allowance in ((nan, 0.0), (0.5, nan), (inf, 1.0), (0.5, inf), (inf, inf)):
        pt = lifting.LiftPoint(0.0, True, {"idempotency": defect}, allowances={"idempotency": allowance})
        assert math.isnan(pt.certified("idempotency")), (defect, allowance)
    assert lifting.LiftPoint(0.0, True, {"lift": 0.3}, allowances={"lift": 0.5}).certified("lift") == 0.0

    def trace(*defects):
        return LiftTrace(tuple(lifting.LiftPoint(0.1 * k, True, {"lift": d}) for k, d in enumerate(defects)), ())

    for order in ((nan, 0.0, 1e-3), (0.0, nan, 1e-3), (0.0, 1e-3, nan)):
        assert math.isnan(trace(*order).worst("lift")), order
        assert math.isnan(trace(*order).worst_certified("lift")), order
    assert trace(0.0, 1e-3, 2e-4).worst("lift") == 1e-3


# pi reads the M2 factor of M2 x M1; the M1 entry c(lam) of the section
# lies in the kernel, and y = 1 - 4 r0 has the eigenvalue 1/(1 - 4(c - c^2))
M1, M2 = MatrixAlgebra(1), MatrixAlgebra(2)
M2M1 = ProductAlgebra((M2, M1))
E2 = M2.wrap(np.diag([1.0, 0.0]).astype(complex))
C0 = 0.1 + 0.3j  # puts the escape ray at angle -2.498
C_HALF = (1 - np.exp(1.249j)) / 2  # y on that ray at lam = 0.5


def scalar_kernel_data(c):
    pi = HomFamily(M2M1, M2, lambda lam, x: M2M1.component(x, 0), label="first-factor")
    q = ElementFamily(M2, lambda lam: E2)
    sec = Section(pi, q, lambda lam: M2M1.from_components(E2, M1.wrap([[c(lam)]])))
    return pi, q, sec


def test_lift_local_freezes_the_chosen_sheet_into_its_contour():
    pi, q, sec = scalar_kernel_data(lambda lam: C0)
    trace = lift_local(sec, [0.0, 0.2, -0.2])
    assert trace.contours[0].sheet == -1
    assert trace.contours[0].cut.angle < 0
    assert all(pt.valid for pt in trace.points)
    assert trace.worst("idempotency") <= 1e-12
    assert trace.worst("lift") <= 1e-12


def test_lift_local_validity_is_the_frozen_enclosure_predicate():
    pi, q, sec = scalar_kernel_data(lambda lam: C0 + (C_HALF - C0) * lam / 0.5)
    grid = np.linspace(-0.5, 0.5, 11)
    trace = lift_local(sec, grid)
    cd = trace.contours[0]
    expected = []
    for lam in grid:
        pts = lifting._local_data(sec(lam))[2].spectrum().points
        expected.append(
            cd.cut.distance_to_points(pts) > cd.eps
            and cd.polygon.encloses(pts, margin=0.5 * cd.eps)
        )
    assert [pt.valid for pt in trace.points] == expected
    assert expected.count(True) == 6  # the ends leave the frozen enclosures
    for pt in trace.points:
        if not pt.valid:
            assert pt.defects == {"enclosure": math.inf}


# ---------------------------------------------------------------------------
# self-adjoint path


def test_lift_local_sa_dual_testbed():
    pi = dual_pi()
    q = ElementFamily(M4, rotated_projection)
    sec = messy_section(pi, q, seed=19)
    trace = lift_local_sa(sec, GRID)
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
    trace = lift_local_sa(sec, [0.0, 0.25])
    for pt in trace.points:
        want = DUAL4.from_parts(p0, M4.zero())
        assert (pt.elements["p"] - want).norm() <= 1e-11


def test_the_sa_loops_each_cover_only_their_half_of_the_plane():
    """With margin 1/6 the square of half side 1/3 around 0 covers no
    point with Re z >= 1/2 and the one around 1 none with Re z < 1/2, so
    ``lift_local_sa`` asks each loop only about the points of its half."""
    gamma0, gamma1 = square_polygon(0j, 1.0 / 3.0), square_polygon(1 + 0j, 1.0 / 3.0)
    for x in np.linspace(-0.6, 1.6, 111):
        for y in np.linspace(-0.6, 0.6, 31):
            z = complex(x, y)
            either = gamma0.encloses([z], margin=1 / 6) or gamma1.encloses([z], margin=1 / 6)
            assert either == (gamma0 if z.real < 0.5 else gamma1).encloses([z], margin=1 / 6)


def test_lift_local_sa_needs_real_grid():
    pi = dual_pi()
    q = ElementFamily(M4, rotated_projection)
    sec = messy_section(pi, q, seed=23)
    with pytest.raises(ParameterError):
        lift_local_sa(sec, [0.0, 0.1 + 0.2j])


# ---------------------------------------------------------------------------
# orthogonal step and family induction


def zero_family(alg) -> ElementFamily:
    return ElementFamily(alg, lambda lam: alg.zero())


def test_ortho_step_with_no_predecessor_matches_local():
    pi = dual_pi()
    q = ElementFamily(M4, rotated_projection)
    sec = messy_section(pi, q, seed=29)
    t_ortho = lift_ortho_step(zero_family(DUAL4), zero_family(M4), sec, GRID)
    t_local = lift_local(sec, GRID)
    gap = max(
        (po.elements["p"] - pl.elements["p"]).norm()
        for po, pl in zip(t_ortho.points, t_local.points)
    )
    assert gap <= 1e-10


def test_ortho_step_idempotent_section_is_fixed():
    pi = dual_pi()
    q = ElementFamily(M4, rotated_projection)
    sec = Section(pi, q, lambda lam: DUAL4.from_parts(q(lam), M4.zero()))
    trace = lift_ortho_step(zero_family(DUAL4), zero_family(M4), sec, GRID)
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
    trace = lift_ortho_step(p1, q1, sec2, GRID)
    assert all(pt.valid for pt in trace.points)
    assert trace.eps0 == 0.5
    for key in ("idempotency", "ef", "fe", "eq17", "quadratic", "commutation"):
        assert trace.worst(key) <= 1e-9, key
    assert trace.worst("lift") <= 1e-8


def test_ortho_step_rejects_non_orthogonal_targets():
    pi = dual_pi()
    q = ElementFamily(M4, rotated_projection)
    sec = messy_section(pi, q, seed=37)
    p_same = ElementFamily(DUAL4, lambda lam: DUAL4.from_parts(q(lam), M4.zero()))
    with pytest.raises(SectionInvalid):
        lift_ortho_step(p_same, q, sec, GRID)


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
    fams, traces = lift_family(secs, GRID)
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
    fams, _ = lift_family(secs, GRID, sa=True)
    for lam in (-0.5, 0.0, 0.5):
        for f in fams:
            p = f(lam)
            assert (p - p.adjoint()).norm() <= 1e-9
            assert (p * p - p).norm() <= 1e-8


def test_lift_family_respects_cap_and_shape():
    # every section of a family set must lift through the one pi
    q = ElementFamily(M4, rotated_projection)
    sec = messy_section(dual_pi(), q, seed=47)
    other = messy_section(dual_pi(), q, seed=47)  # the same data through another pi
    with pytest.raises(ParameterError, match="different homomorphism families"):
        lift_family([sec, other], GRID)
    assert lift_family([], GRID) == ([], [])


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
    fams, traces = lift_family(secs, grid)
    per_step = [len(trace.valid_points()) for trace in traces]
    assert per_step == [len(grid)] * 3
    assert len(calls) == sum(per_step)
    for lam in grid:
        for fam, trace in zip(fams, traces):
            assert fam(lam) is trace.point(complex(lam)).p
    assert len(calls) == sum(per_step)


def test_a_lifted_family_off_the_grid_is_the_lift_on_a_grid_that_holds_it():
    # off the grid a lifted family runs its step's kernel through the same
    # lifting._point, and its predecessors off the grid too, so the value is the
    # one a run whose grid holds that lambda computes, bit for bit
    pi = dual_pi()
    rng = np.random.default_rng(61)
    secs = [
        Section(
            pi,
            tgt,
            lambda lam, _t=tgt, _n=M4.random_element(rng): DUAL4.from_parts(
                _t(lam), (0.2 + 0.1 * lam) * _n
            ),
        )
        for tgt in diagonal_targets(3)
    ]
    off_grid, _ = lift_family(secs, (0.0, 0.2))
    on_grid, traces = lift_family(secs, (0.0, 0.35))
    for fam, ref, trace in zip(off_grid, on_grid, traces):
        want = trace.point(0.35).p
        assert ref(0.35) is want
        got = fam(0.35)
        assert all(np.array_equal(g, w) for g, w in zip(got.payload, want.payload))


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
    fams, traces = lift_family(secs, SPLIT_GRID)
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
    _, traces = lift_family(secs, SPLIT_GRID)
    keys = [sorted(trace.points[-1].defects) for trace in traces]
    assert keys == [["enclosure"], ["predecessor"], ["predecessor"]]


def _failing_after(monkeypatch, name: str, exc: Exception, spared: int = 0) -> None:
    """Make lifting's ``name`` raise ``exc`` on every call after the
    first ``spared`` ones."""
    real, calls = getattr(lifting, name), []

    def fake(*args, **kwargs):
        calls.append(1)
        if len(calls) > spared:
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(lifting, name, fake)


@pytest.mark.parametrize(
    "exc, key",
    [
        (NotInvertible("resolvent refused"), "not-invertible"),
        (QuadratureNotConverged("no convergence"), "quadrature-not-converged"),
    ],
)
@pytest.mark.parametrize("path", ["local", "self-adjoint", "orthogonal"])
def test_a_kernel_error_away_from_the_base_point_invalidates_only_that_point(
    monkeypatch, exc, key, path
):
    # the base point lambda = 0 still ends the lift: nothing can be frozen there
    pi = dual_pi()
    q = ElementFamily(M4, rotated_projection)
    sec = messy_section(pi, q, seed=31)
    if path == "local":  # its first sqrt_cut freezes the sheet at lambda = 0
        _failing_after(monkeypatch, "sqrt_cut", exc, spared=1)
        lift = lambda grid: lift_local(sec, grid)
    elif path == "self-adjoint":
        _failing_after(monkeypatch, "riesz_projection", exc)
        lift = lambda grid: lift_local_sa(sec, grid)
    else:
        _failing_after(monkeypatch, "sqrt_near_one", exc)
        lift = lambda grid: lift_family([sec], grid)[1][0]
    trace = lift((-0.3, 0.2))
    assert [pt.valid for pt in trace.points] == [False, False]
    assert all(pt.defects == {key: math.inf} for pt in trace.points)
    with pytest.raises(type(exc)):
        lift((-0.3, 0.0, 0.2))


def test_a_lifted_family_raises_enclosure_failed_where_a_kernel_error_struck(monkeypatch):
    pi = dual_pi()
    q = ElementFamily(M4, rotated_projection)
    sec = messy_section(pi, q, seed=31)
    fams, traces = lift_family([sec], (0.0, 0.2))
    assert all(pt.valid for pt in traces[0].points)
    _failing_after(monkeypatch, "sqrt_near_one", NotInvertible("resolvent refused"))
    with pytest.raises(EnclosureFailed, match="not-invertible"):
        fams[0](0.3)  # off the grid: the step's kernel runs and raises
    assert fams[0](0.2) is traces[0].point(0.2).p


def test_a_lifted_family_keeps_no_point_off_the_grid(monkeypatch):
    """Outside a run nothing is stored: each off-grid call runs the step's
    kernel again, and a grid point is read off the trace."""
    pi = dual_pi()
    q = ElementFamily(M4, rotated_projection)
    sec = messy_section(pi, q, seed=31)
    fams, traces = lift_family([sec], (0.0, 0.2))
    real, calls = lifting.sqrt_near_one, []
    monkeypatch.setattr(lifting, "sqrt_near_one", lambda *args, **kw: calls.append(1) or real(*args, **kw))
    first, second = fams[0](0.3), fams[0](0.3)
    assert len(calls) == 2 and (first - second).norm() == 0.0
    assert fams[0](0.2) is traces[0].point(0.2).p and len(calls) == 2


def test_family_orthogonality_record_fails_on_invalid_rows():
    pi, targets, secs = product_family_data()
    scn = Scenario(
        id="product-split",
        pi=pi,
        grid=SPLIT_GRID,
        theorem_paths=(3,),
        family_sections=tuple(secs),
    )
    report = run_verification(scn)
    runs = {run["name"]: run for run in report["runs"]}
    ortho = runs["family-orthogonality"]
    assert [row["valid"] for row in ortho["rows"]] == [True, True, True, False]
    assert ortho["rows"][-1]["defects"] == {"predecessor": None}  # the lifted families have no value
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
    trace = lift_local(sec, GRID)
    assert all(pt.valid for pt in trace.points)
    assert trace.worst("idempotency") <= 1e-9
    assert trace.worst("lift") <= 1e-8


def test_lift_allowance_carries_the_tail_of_p():
    # pi sees only the stored part of p, so the lift defect is allowed
    # p's certified tail on top of the tail of the defect itself
    scn = build_scenario("example2")
    _, traces = lift_family(scn.family_sections, (0.0,))
    pt = traces[0].point(0.0)
    tail = scn.pi.source.tail_bound(pt.p)
    assert tail > 0.0
    assert pt.allowances["lift"] >= tail
