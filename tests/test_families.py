"""Families, sections, and the helpers that build them."""

import numpy as np
import pytest

from idemlift.algebra import (
    BlockTriangularAlgebra,
    DualAlgebra,
    MatrixAlgebra,
    WienerAlgebra,
    alg_exp,
)
from idemlift.errors import (
    NoInvolution,
    NotIdempotentInput,
    NotStarCompatible,
    OutOfRadius,
    ParameterError,
)
from idemlift.families import (
    ElementFamily,
    HomFamily,
    Section,
    constant_family,
    exp_conjugation_family,
    hom_apply,
    kernel_residual,
    make_section,
    symmetrize,
)

M1 = MatrixAlgebra(1)
M3 = MatrixAlgebra(3)
DUAL = DualAlgebra(M3)


def dual_projection() -> HomFamily:
    return HomFamily(
        DUAL,
        M3,
        lambda lam, x: DUAL.base_part(x),
        embed=lambda lam, b: DUAL.from_parts(b, M3.zero()),
        star_on_real=True,
        label="forget-eps",
    )


def wiener_evaluation(deg: int = 6) -> tuple[WienerAlgebra, HomFamily]:
    W = WienerAlgebra(M1, deg)
    pi = HomFamily(
        W,
        M1,
        lambda lam, f: W.evaluate(f, lam),
        embed=lambda lam, b: W.from_coeffs([b]),
        radius=1.0,
        star_on_real=True,
        label="evaluate-series",
    )
    return W, pi


def test_hom_apply_is_multiplicative_and_unital():
    pi = dual_projection()
    rng = np.random.default_rng(0)
    for lam in (0.0, 0.4, -0.3 + 0.2j):
        x = DUAL.random_element(rng)
        y = DUAL.random_element(rng)
        lhs = pi.apply(lam, x * y)
        rhs = pi.apply(lam, x) * pi.apply(lam, y)
        assert (lhs - rhs).norm() <= 1e-12
        add = pi.apply(lam, x + y) - (pi.apply(lam, x) + pi.apply(lam, y))
        assert add.norm() <= 1e-12
    assert (pi.apply(0.2, DUAL.one()) - M3.one()).norm() == 0.0


def test_hom_star_compatibility_on_real_axis():
    pi = dual_projection()
    rng = np.random.default_rng(1)
    x = DUAL.random_element(rng)
    gap = pi.apply(0.3, x.adjoint()) - pi.apply(0.3, x).adjoint()
    assert gap.norm() <= 1e-12


def test_evaluation_hom_norm_bound():
    # series evaluation is a contraction on the closed unit disc, with
    # equality attained by constants
    W, pi = wiener_evaluation()
    rng = np.random.default_rng(2)
    for lam in (0.0, 0.5, -0.9, 0.3 + 0.4j):
        for _ in range(20):
            f = W.random_element(rng)
            assert pi.apply(lam, f).norm() <= f.norm() + 1e-12
    c = W.from_scalar_coeffs([2.5])
    assert pi.apply(0.7, c).norm() == pytest.approx(c.norm())


def test_section_lifts_target_on_grid():
    W, pi = wiener_evaluation()
    z = W.generator()
    target = ElementFamily(M1, lambda lam: M1.wrap([[1.0 + 0.5 * lam]]))
    f = W.from_scalar_coeffs([1.0, 0.5])

    sec = Section(pi, target, lambda lam: f, radius=1.0)
    for lam in np.linspace(-0.9, 0.9, 7):
        assert sec.defect(lam) <= 1e-12
    assert (sec(0.2) - f).norm() == 0.0
    assert z.norm() == 1.0


def test_make_section_constant_embed():
    W, pi = wiener_evaluation()
    target = ElementFamily(M1, lambda lam: M1.wrap([[np.sin(lam) + 2.0]]))
    sec = make_section(pi, target)
    for lam in (-0.5, 0.0, 0.8):
        assert sec.defect(lam) <= 1e-12
        got = W.coefficient(sec(lam), 0)
        assert (got - target(lam)).norm() <= 1e-12


def test_make_section_component_embed():
    pi = dual_projection()
    rng = np.random.default_rng(3)
    base = M3.random_element(rng)
    target = ElementFamily(M3, lambda lam: np.exp(lam) * base)
    sec = make_section(pi, target)
    for lam in (-0.4, 0.0, 0.25):
        assert sec.defect(lam) <= 1e-12
        assert DUAL.eps_part(sec(lam)).norm() == 0.0


def test_make_section_strategy_mismatches():
    # a family without an embedding has nothing to re-embed through
    target_d = ElementFamily(M3, lambda lam: M3.one())
    bare = HomFamily(DUAL, M3, lambda lam, x: DUAL.base_part(x))
    with pytest.raises(ParameterError, match="no embedding"):
        make_section(bare, target_d)


def test_symmetrize_produces_self_adjoint_section():
    pi = dual_projection()
    rng = np.random.default_rng(4)
    p0 = np.diag([1.0, 1.0, 0.0]).astype(complex)
    target = ElementFamily(M3, lambda lam: M3.wrap(p0))
    messy = M3.random_element(rng)
    sec = Section(
        pi, target, lambda lam: DUAL.from_parts(M3.wrap(p0), messy)
    )
    sym = symmetrize(sec)
    for lam in (-0.5, 0.0, 0.5):
        a = sym(lam)
        assert (a - a.adjoint()).norm() <= 1e-12
        assert sym.defect(lam) <= 1e-12


def test_symmetrize_requires_involution_and_star_family():
    block = BlockTriangularAlgebra(2, 2)
    prod_targets = MatrixAlgebra(2)
    pi_block = HomFamily(block, prod_targets, lambda lam, x: prod_targets.wrap(
        block.matrix_representation(x)[:2, :2]
    ))
    target = ElementFamily(prod_targets, lambda lam: prod_targets.one())
    sec = Section(pi_block, target, lambda lam: block.one())
    with pytest.raises(NoInvolution):
        symmetrize(sec)

    pi_no_star = HomFamily(DUAL, M3, lambda lam, x: DUAL.base_part(x))
    target3 = ElementFamily(M3, lambda lam: M3.one())
    sec3 = Section(pi_no_star, target3, lambda lam: DUAL.one())
    with pytest.raises(NotStarCompatible):
        symmetrize(sec3)


def test_exp_conjugation_family_stays_idempotent():
    e = M3.wrap(np.diag([1.0, 0.0, 0.0]).astype(complex))
    x = np.zeros((3, 3), dtype=complex)
    x[0, 1] = 1.0  # does not commute with e
    fam = exp_conjugation_family(e, M3.wrap(x))
    assert (fam(0.0) - e).norm() == 0.0
    for lam in (-1.0, -0.5, 0.5, 1.0):
        p = fam(lam)
        assert (p * p - p).norm() <= 1e-12
        assert (p - e).norm() > 0.1  # genuinely non-constant


def test_exp_conjugation_matches_closed_form():
    # with e = E11 and x = E12 the conjugation collapses to e + lam E12,
    # since E12 E11 = 0 kills every higher series term
    e = M3.wrap(np.diag([1.0, 0.0, 0.0]).astype(complex))
    x = np.zeros((3, 3), dtype=complex)
    x[0, 1] = 1.0
    fam = exp_conjugation_family(e, M3.wrap(x))
    for lam in (0.3, -0.7):
        expect = np.diag([1.0, 0.0, 0.0]).astype(complex)
        expect[0, 1] = lam
        assert (fam(lam) - M3.wrap(expect)).norm() <= 1e-12


def test_exp_conjugation_rejects_non_idempotent_seed():
    rng = np.random.default_rng(5)
    with pytest.raises(NotIdempotentInput):
        exp_conjugation_family(M3.random_element(rng), M3.random_element(rng))


def test_kernel_residual():
    pi = dual_projection()
    rng = np.random.default_rng(6)
    inside = DUAL.from_parts(M3.zero(), M3.random_element(rng))
    outside = DUAL.one()
    assert kernel_residual(pi, inside, 0.3) == 0.0
    assert kernel_residual(pi, outside, 0.3) == pytest.approx(1.0)


def test_validity_radius_is_enforced():
    fam = ElementFamily(M3, lambda lam: M3.one(), radius=0.5)
    fam(0.49)
    with pytest.raises(OutOfRadius):
        fam(0.5)
    with pytest.raises(OutOfRadius):
        fam(-2.0)

    pi = dual_projection()
    tight = HomFamily(DUAL, M3, lambda lam, x: DUAL.base_part(x), radius=0.25)
    with pytest.raises(OutOfRadius):
        tight.apply(0.3, DUAL.one())
    wide_source = ElementFamily(DUAL, lambda lam: DUAL.one(), radius=10.0)
    with pytest.raises(OutOfRadius):
        hom_apply(tight, wide_source, 0.3)
    assert (hom_apply(pi, wide_source, 0.3) - M3.one()).norm() == 0.0


def test_a_nan_lambda_lies_inside_no_radius():
    """A NaN compares false with every radius, so it was let through: a
    family returned its value and a homomorphism ran its evaluator."""
    nan = complex(float("nan"), 0.0)
    calls = []
    pi = HomFamily(DUAL, M3, lambda lam, x: calls.append(lam) or DUAL.base_part(x), radius=1.0)
    fam = constant_family(M3.one(), radius=1.0)
    sec = Section(dual_projection(), fam, lambda lam: DUAL.one(), radius=1.0)
    for call in (lambda: fam(nan), lambda: sec(nan), lambda: pi.apply(nan, DUAL.one())):
        with pytest.raises(OutOfRadius, match="nan"):
            call()
    unbounded = constant_family(M3.one())  # an infinite radius too
    with pytest.raises(OutOfRadius):
        unbounded(complex(0.0, float("nan")))
    assert calls == []


def test_constant_family():
    rng = np.random.default_rng(7)
    x = M3.random_element(rng)
    fam = constant_family(x, radius=2.0)
    assert (fam(1.5) - x).norm() == 0.0


def test_family_validation():
    with pytest.raises(ParameterError):
        ElementFamily(M3, lambda lam: M3.one(), radius=0.0)
    with pytest.raises(ParameterError):
        HomFamily(DUAL, M3, lambda lam, x: DUAL.base_part(x), radius=-1.0)


def test_section_refuses_a_radius_that_is_not_positive():
    """A zero or negative radius put every lambda out of radius, and a NaN
    one switched the radius check off."""
    pi = dual_projection()
    target = constant_family(M3.one())
    embed = lambda lam: DUAL.from_parts(M3.one(), M3.zero())
    for radius in (0.0, -1.0, float("nan")):
        with pytest.raises(ParameterError, match="radius must be positive"):
            Section(pi, target, embed, radius=radius)
    sec = Section(pi, target, embed, radius=2.0)
    assert sec.defect(1.5) == 0.0
    with pytest.raises(ParameterError, match="radius must be positive"):
        sec.replace(radius=float("nan"))
