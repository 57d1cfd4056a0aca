"""Contour-integral functional calculus against eigendecomposition oracles."""

import math

import numpy as np
import pytest

from oracles import (
    eigenprojection_near,
    half_shift_root,
    principal_sqrt,
    random_sectorial_matrix,
    random_split_spectrum_matrix,
)

from idemlift import funcalc
from idemlift.algebra import (
    ConvolutionAlgebra,
    DualAlgebra,
    MatrixAlgebra,
    ProductAlgebra,
    UnitizationAlgebra,
    WienerAlgebra,
)
from idemlift.contours import (
    PolygonalArc,
    build_escape_arc,
    build_gamma_pair,
    circle_polygon,
    square_polygon,
)
from idemlift.errors import (
    DegenerateGeometry,
    ParameterError,
    QuadratureNotConverged,
    SpectrumMeetsCut,
    SpectrumNotEnclosed,
    SpectrumOnContour,
    SpectrumTooLarge,
)
from idemlift.funcalc import (
    ContourData,
    contour_apply,
    riesz_projection,
    sqrt_cut,
    sqrt_near_one,
)

M1 = MatrixAlgebra(1)
M2 = MatrixAlgebra(2)


def _gamma_for(x, eps_scale=1.0):
    rep = x.spectrum()
    P = build_escape_arc(rep)
    eps = eps_scale * P.distance_to_points(rep.points) / 3.0
    poly = build_gamma_pair(P, eps, rep.radius)
    return P, ContourData(poly, eps=eps, branch="cut", cut=P)


def test_cauchy_formula_basics() -> None:
    a = M2.wrap(np.diag([0.1, 0.2]).astype(complex))
    cd = ContourData(circle_polygon(0j, 0.5), eps=0.5)
    audits = []
    same = contour_apply(lambda z: z, a, cd, audit_sink=audits)
    assert (same - a).norm() <= 1e-12
    unit = contour_apply(lambda z: np.ones_like(z), a, cd)
    assert (unit - M2.one()).norm() <= 1e-12
    squared = contour_apply(lambda z: z**2, a, cd)
    np.testing.assert_allclose(
        squared.payload, np.diag([0.01, 0.04]), atol=1e-12
    )
    assert audits and audits[0].delta < 1e-11


def test_contour_apply_multiplicative_on_polynomials() -> None:
    rng = np.random.default_rng(2)
    alg = MatrixAlgebra(4)
    cd = ContourData(circle_polygon(0j, 3.0), eps=1.0)
    for _ in range(10):
        a = alg.random_element(rng, 0.5)
        g = contour_apply(lambda z: 1 + 2 * z, a, cd)
        h = contour_apply(lambda z: z - 0.5 * z**2, a, cd)
        gh = contour_apply(lambda z: (1 + 2 * z) * (z - 0.5 * z**2), a, cd)
        assert (gh - g * h).norm() <= 1e-8


def test_contour_independence() -> None:
    a = M2.wrap(np.diag([0.1, 0.2]).astype(complex))
    circ = ContourData(circle_polygon(0j, 0.5), eps=0.5)
    sq = ContourData(square_polygon(0j, 0.6), eps=0.5)
    f1 = contour_apply(lambda z: np.exp(z), a, circ)
    f2 = contour_apply(lambda z: np.exp(z), a, sq)
    assert (f1 - f2).norm() <= 1e-9


def test_contour_apply_rejects_outside_spectrum() -> None:
    a = M2.wrap(np.diag([0.1, 2.0]).astype(complex))
    cd = ContourData(circle_polygon(0j, 0.5), eps=0.5)
    with pytest.raises(SpectrumNotEnclosed):
        contour_apply(lambda z: z, a, cd)


def test_riesz_on_random_split_spectra() -> None:
    rng = np.random.default_rng(7)
    alg = MatrixAlgebra(6)
    # eigenvalue discs of radius 0.28 leave clearance ~0.053 to the circle
    cd = ContourData(circle_polygon(1 + 0j, 1 / 3), eps=0.1, label="around-1")
    for _ in range(100):
        mat = random_split_spectrum_matrix(rng, 6)
        a = alg.wrap(mat)
        p = riesz_projection(a, cd)
        assert (p * p - p).norm() <= 1e-9
        assert (p * a - a * p).norm() <= 1e-9
        assert np.max(np.abs(p.payload - eigenprojection_near(mat, 1.0, 1 / 3))) <= 1e-7


def test_riesz_on_idempotent_returns_it() -> None:
    q = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)  # idempotent
    a = M2.wrap(q)
    cd = ContourData(circle_polygon(1 + 0j, 1 / 3), eps=1 / 3)
    assert (riesz_projection(a, cd) - a).norm() <= 1e-10


def test_riesz_complement_rule() -> None:
    rng = np.random.default_rng(11)
    alg = MatrixAlgebra(5)
    cd0 = ContourData(square_polygon(0j, 1 / 3), eps=0.2)
    cd1 = ContourData(square_polygon(1 + 0j, 1 / 3), eps=0.2)
    for _ in range(10):
        a = alg.wrap(random_split_spectrum_matrix(rng, 5, radius=0.2))
        p0 = riesz_projection(a, cd0)
        p1 = riesz_projection(a, cd1)
        assert (p0 + p1 - alg.one()).norm() <= 1e-9


def test_riesz_rejects_spectrum_on_contour() -> None:
    a = M2.wrap(np.diag([1 / 3 + 1e-14, 2.0]).astype(complex))
    cd = ContourData(circle_polygon(0j, 1 / 3), eps=0.2)
    with pytest.raises(SpectrumOnContour):
        riesz_projection(a, cd)


def test_contour_data_refuses_a_non_finite_eps() -> None:
    """A NaN margin would switch off the on-contour check: diag(1, 1.45)
    has 1.45 on this circle, which eps=0.1 catches."""
    for eps in (math.nan, math.inf):
        with pytest.raises(ParameterError):
            ContourData(circle_polygon(1 + 0j, 0.45), eps=eps)
    a = M2.wrap(np.diag([1.0, 1.45]).astype(complex))
    with pytest.raises(SpectrumOnContour):
        riesz_projection(a, ContourData(circle_polygon(1 + 0j, 0.45), eps=0.1))


def test_contour_data_takes_only_the_integer_sheets() -> None:
    """True passed ``sheet in (1, -1)``, was stored, and was described as
    ``"sheet": true``."""
    poly = circle_polygon(1 + 0j, 0.45)
    for sheet in (True, False, 1.0, -1.0, 2):
        with pytest.raises(ParameterError, match="sheet must be the integer"):
            ContourData(poly, eps=0.1, sheet=sheet)
    for sheet in (1, -1):
        assert ContourData(poly, eps=0.1, sheet=sheet).describe()["sheet"] == sheet


_ENCLOSING_ENTRY_POINTS = {
    "contour_apply": lambda a, cd: contour_apply(lambda z: z, a, cd),
    "spectral_component_apply": lambda a, cd: funcalc.spectral_component_apply(
        lambda z: z, a, cd
    ),
    "riesz_projection": riesz_projection,
    "sqrt_cut": lambda a, cd: sqrt_cut(a, PolygonalArc(-1 + 0j), cd),
}


@pytest.mark.parametrize("entry", sorted(_ENCLOSING_ENTRY_POINTS))
def test_enclosure_errors_agree_across_entry_points(entry) -> None:
    run = _ENCLOSING_ENTRY_POINTS[entry]
    cd = ContourData(circle_polygon(0j, 1.0), eps=0.2)
    # within eps/2 of the loop, once inside it and once outside; every
    # point stays clear of the cut along the negative reals
    for near in (0.95j, 1.05j):
        with pytest.raises(SpectrumOnContour):
            run(M2.wrap(np.diag([0.5j, near])), cd)
    far_outside = M2.wrap(np.diag([0.5j, 2j]))
    if entry in ("contour_apply", "sqrt_cut"):
        with pytest.raises(SpectrumNotEnclosed):
            run(far_outside, cd)
    else:
        run(far_outside, cd)  # a separating loop may leave spectrum outside


def test_sqrt_cut_known_diagonal() -> None:
    x = M2.wrap(np.diag([4.0, 9.0]).astype(complex))
    P, cd = _gamma_for(x)
    assert abs(P.ray_direction - (-1 + 0j)) <= 1e-9
    s = sqrt_cut(x, P, cd, sheet=+1)
    np.testing.assert_allclose(s.payload, np.diag([2.0, 3.0]), atol=1e-10)


def test_sqrt_cut_scalar_residue_is_plus_minus_one() -> None:
    x = M1.wrap(np.array([[1.0 + 0j]]))
    P, cd = _gamma_for(x)
    plus = sqrt_cut(x, P, cd, sheet=+1).payload[0, 0]
    minus = sqrt_cut(x, P, cd.replace(sheet=-1)).payload[0, 0]
    assert abs(plus - 1.0) <= 1e-10
    assert abs(minus + 1.0) <= 1e-10


def test_sqrt_cut_squares_back_and_matches_oracle() -> None:
    rng = np.random.default_rng(13)
    alg = MatrixAlgebra(4)
    for _ in range(25):
        mat = random_sectorial_matrix(rng, 4)
        x = alg.wrap(mat)
        P, cd = _gamma_for(x)
        s = sqrt_cut(x, P, cd, sheet=+1)
        assert (s * s - x).norm() <= 1e-9
        assert (s * x - x * s).norm() <= 1e-9
        if abs(P.ray_direction - (-1)) < 1e-9:
            # cut along the negative axis selects the principal branch
            assert np.max(np.abs(s.payload - principal_sqrt(mat))) <= 1e-7


def test_sqrt_cut_sheets_negate_exactly() -> None:
    rng = np.random.default_rng(17)
    alg = MatrixAlgebra(3)
    x = alg.wrap(random_sectorial_matrix(rng, 3))
    P, cd = _gamma_for(x)
    assert (sqrt_cut(x, P, cd, 1) + sqrt_cut(x, P, cd.replace(sheet=-1))).norm() <= 1e-12


def test_sqrt_cut_takes_its_sheet_from_the_contour() -> None:
    x = M2.wrap(np.diag([4.0, 9.0]).astype(complex))
    P, cd = _gamma_for(x)
    flipped = cd.replace(sheet=-1)
    assert (sqrt_cut(x, P, flipped, sheet=-1) + sqrt_cut(x, P, cd)).norm() == 0.0
    for contour, other in ((cd, -1), (flipped, 1), (cd, 2)):
        with pytest.raises(ParameterError, match="differs from the contour's sheet"):
            sqrt_cut(x, P, contour, sheet=other)


def test_sqrt_cut_contour_independence() -> None:
    rng = np.random.default_rng(19)
    alg = MatrixAlgebra(3)
    x = alg.wrap(random_sectorial_matrix(rng, 3))
    P, cd_wide = _gamma_for(x, eps_scale=1.0)
    _, cd_tight = _gamma_for(x, eps_scale=0.5)
    s1 = sqrt_cut(x, P, cd_wide)
    s2 = sqrt_cut(x, P, cd_tight)
    assert (s1 - s2).norm() <= 1e-10


def test_sqrt_cut_rejects_a_cut_other_than_the_contours() -> None:
    x = M2.wrap(np.diag([4.0, 9.0]).astype(complex))
    P, cd = _gamma_for(x)
    same = PolygonalArc(2.0 * P.ray_direction)  # normalised on build
    assert (sqrt_cut(x, same, cd) - sqrt_cut(x, P, cd)).norm() == 0.0
    turned = PolygonalArc(1j * P.ray_direction)
    with pytest.raises(ParameterError, match="differs from the contour's cut"):
        sqrt_cut(x, turned, cd)


def test_sqrt_cut_rejects_spectrum_near_cut() -> None:
    x = M2.wrap(np.diag([-1.0, 4.0]).astype(complex))
    P = PolygonalArc(-1 + 0j)
    poly = build_gamma_pair(P, 0.2, 4.0)
    cd = ContourData(poly, eps=0.2, branch="cut", cut=P)
    with pytest.raises(SpectrumMeetsCut):
        sqrt_cut(x, P, cd)


def test_sqrt_cut_detects_loop_crossing_the_cut() -> None:
    x = M1.wrap(np.array([[-1.0 + 0j]]))
    P = PolygonalArc(1 + 0j)  # cut along the positive axis
    crossing = ContourData(
        circle_polygon(-1 + 0j, 1.2), eps=0.2, branch="cut", cut=P
    )
    with pytest.raises(DegenerateGeometry):
        sqrt_cut(x, P, crossing)


def test_quadrature_gives_up_on_hugging_pole() -> None:
    a = M1.wrap(np.array([[0.5 - 1e-10 + 0j]]))
    cd = ContourData(circle_polygon(0j, 0.5), eps=1e-12)
    with pytest.raises(QuadratureNotConverged):
        contour_apply(lambda z: np.ones_like(z), a, cd)


def test_sqrt_near_one_scalar_values() -> None:
    w0 = sqrt_near_one(M1.zero())
    assert w0.norm() <= 1e-12
    y = M1.wrap(np.array([[0.1 + 0j]]))
    w = sqrt_near_one(y).payload[0, 0]
    assert abs(w - half_shift_root(0.1)) <= 1e-12
    assert abs(w * w + w + 0.1 / 4) <= 1e-10


def test_sqrt_near_one_solves_quarter_equation_on_nilpotents() -> None:
    base = MatrixAlgebra(3)
    dual = DualAlgebra(base)
    rng = np.random.default_rng(23)
    for _ in range(10):
        y = dual.from_parts(base.zero(), base.random_element(rng))
        w = sqrt_near_one(y)
        assert (w * w + w + 0.25 * y).norm() <= 1e-9
        assert dual.base_part(w).norm() <= 1e-12  # stays in the kernel


def test_sqrt_near_one_matches_direct_branch() -> None:
    rng = np.random.default_rng(29)
    alg = MatrixAlgebra(4)
    for _ in range(10):
        mat = random_split_spectrum_matrix(rng, 4, radius=0.3)
        small = alg.wrap(0.3 * (mat - eigenprojection_near(mat, 1.0, 0.4) @ mat))
        rep = small.spectrum()
        if rep.radius >= 1 / 3:
            continue
        w = sqrt_near_one(small)
        direct = 0.5 * (-np.eye(4) + principal_sqrt(np.eye(4) - small.payload))
        assert np.max(np.abs(w.payload - direct)) <= 1e-8


def test_sqrt_near_one_rejects_large_spectrum() -> None:
    y = M1.wrap(np.array([[0.4 + 0j]]))
    with pytest.raises(SpectrumTooLarge):
        sqrt_near_one(y)


def _with_radius(rng, n, radius):
    """Random diagonalisable n x n matrix with spectral radius ``radius``."""
    eigs = radius * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    eigs[0] = radius * np.exp(2j * np.pi * rng.uniform())
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    return v @ np.diag(eigs) @ np.linalg.inv(v)


def _jordan_root(lam, n):
    """-1/2 + sqrt(1 - y)/2 for y = lam*I + N, N the nilpotent shift, by
    the binomial series of sqrt(1 - lam) sqrt(1 - N/(1 - lam)), which
    ends at N**n = 0."""
    shift = np.eye(n, k=1, dtype=complex)
    root = np.zeros((n, n), dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(n):
        root += math.prod((0.5 - j) / (j + 1) for j in range(k)) * term
        term = term @ (-shift / (1.0 - lam))
    return lam * np.eye(n) + shift, 0.5 * (-np.eye(n) + np.sqrt(1.0 - lam) * root)


def test_sqrt_near_one_matches_dense_reference_up_to_radius_one_third() -> None:
    rng = np.random.default_rng(31)
    cases = []
    for radius in (0.1, 0.2, 0.3, 0.32, 0.33):
        mat = _with_radius(rng, 4, radius)
        cases.append((mat, 0.5 * (-np.eye(4) + principal_sqrt(np.eye(4) - mat))))
    mat = _with_radius(rng, 16, 0.33)
    cases.append((mat, 0.5 * (-np.eye(16) + principal_sqrt(np.eye(16) - mat))))
    cases.append(_jordan_root(0.3, 4))
    cases.append(_jordan_root(-0.25j, 4))
    for mat, ref in cases:
        audits = []
        w = sqrt_near_one(MatrixAlgebra(mat.shape[0]).wrap(mat), audit_sink=audits)
        assert np.max(np.abs(w.payload - ref)) <= 1e-12
        assert audits[0].nodes_per_edge <= 256


def test_sqrt_near_one_evaluates_each_circle_node_once(monkeypatch) -> None:
    seen = []
    make_kernel = MatrixAlgebra.resolvent_kernel

    def spy(self, x):
        kernel = make_kernel(self, x)

        def integral(zs, weights):
            seen.append(np.array(zs))
            return kernel(zs, weights)

        return integral

    monkeypatch.setattr(MatrixAlgebra, "resolvent_kernel", spy)
    rng = np.random.default_rng(37)
    for radius in (0.1, 0.3):
        seen.clear()
        audits = []
        sqrt_near_one(MatrixAlgebra(4).wrap(_with_radius(rng, 4, radius)), audit_sink=audits)
        nodes = np.concatenate(seen)
        n = audits[0].nodes_per_edge
        assert len(nodes) == n and len(seen) == audits[0].refinements + 1
        # all of the n-point grid on |z| = 1/2, each point once
        k = np.sort(np.round(np.angle(nodes) / (2 * np.pi) * n) % n)
        np.testing.assert_array_equal(k, np.arange(n))
        assert np.allclose(np.abs(nodes), 0.5)
    assert [len(b) for b in seen] == [32, 32, 64]  # the radius 0.3 input


def test_sqrt_near_one_gives_up_at_the_node_cap(monkeypatch) -> None:
    y = MatrixAlgebra(4).wrap(_with_radius(np.random.default_rng(41), 4, 0.3))
    audits = []
    sqrt_near_one(y, audit_sink=audits)
    assert audits[0].nodes_per_edge == 128
    monkeypatch.setattr(funcalc, "QUAD_MAX_NODES", 64)
    with pytest.raises(QuadratureNotConverged, match="at 64 nodes"):
        sqrt_near_one(y)


def test_sqrt_near_one_nested_sum_keeps_the_certified_tail() -> None:
    wien = WienerAlgebra(ConvolutionAlgebra(10), 3)
    up = UnitizationAlgebra(wien)
    rng = np.random.default_rng(43)
    for c in (0.05, 0.25j):
        f = wien.add_tail(wien.random_element(rng, 0.05), 1e-3)
        x = up.from_parts(f, c)
        audits = []
        w = sqrt_near_one(x, audit_sink=audits)
        n = audits[0].nodes_per_edge
        zs = 0.5 * np.exp(2j * np.pi * np.arange(n) / n)
        ws = np.sqrt(1.0 - zs) * zs / n
        # one-shot sums over the same n nodes: node by node, and fused
        per_node = sum((complex(w) * up.inverse(z * up.one() - x) for z, w in zip(zs, ws)), up.zero())
        fused = up.resolvent_integral(x, zs, ws)
        for ref in (per_node, fused):
            ref = 0.5 * ref - 0.5 * up.one()
            gap = w - ref
            assert gap.norm() - up.tail_bound(gap) <= 1e-12
            assert abs(up.tail_bound(w) / up.tail_bound(ref) - 1.0) <= 1e-12
        # the certificate is never below the per-node one
        assert up.tail_bound(w) >= up.tail_bound(0.5 * per_node - 0.5 * up.one())
    assert n == 128  # the c = 0.25j input carried a sum through two doublings


def test_sqrt_near_one_builds_one_power_table_per_integral(monkeypatch) -> None:
    """A call that refines once integrates in two passes, but forms the
    powers of its radical part once: one Cauchy product per table entry.
    Its result and tail are bit-identical to a run that builds the table
    again for each pass."""
    wien = WienerAlgebra(ConvolutionAlgebra(16), 4)
    up = UnitizationAlgebra(wien)
    x = up.from_parts(wien.random_element(np.random.default_rng(53), 0.1), 0.1)
    calls = []
    cauchy = WienerAlgebra._cauchy

    def counting(self, a, rb):
        calls.append(len(a))
        return cauchy(self, a, rb)

    monkeypatch.setattr(WienerAlgebra, "_cauchy", counting)
    audits = []
    once = sqrt_near_one(x, audit_sink=audits)
    assert audits[0].refinements == 1
    products = len(calls)
    # the table holds f .. f^16: no power of a tailed series has norm 0,
    # so the chain runs to the nilpotency index of the base
    table = wien._powers(up.radical_part(x).payload, wien.nilpotency_index)[0]
    assert len(table) == 16 and products == len(table)

    make_kernel = UnitizationAlgebra.resolvent_kernel
    monkeypatch.setattr(
        UnitizationAlgebra, "resolvent_kernel", lambda self, x: lambda zs, ws: make_kernel(self, x)(zs, ws)
    )
    again = sqrt_near_one(x)
    assert up.scalar_part(again) == up.scalar_part(once)
    rad, rad_again = up.radical_part(once).payload, up.radical_part(again).payload
    assert rad.coeffs.tobytes() == rad_again.coeffs.tobytes()
    assert rad.tail == rad_again.tail


def test_kinds_without_a_resolvent_kernel_are_refused_by_name() -> None:
    """Only the matrix, dual, block-triangular and unitization kinds, and
    products of them, integrate resolvents; a series or convolution element
    is refused with a ParameterError that names its kind."""
    wien = WienerAlgebra(MatrixAlgebra(1), 2)
    x = wien.from_scalar_coeffs([0.1, 0.05, 0.02])
    cd = funcalc.ContourData(circle_polygon(0.1, 0.4), eps=0.1)
    with pytest.raises(ParameterError, match="wiener-truncated algebra has no resolvent"):
        funcalc.riesz_projection(x, cd)
    with pytest.raises(ParameterError, match="wiener-truncated algebra has no resolvent"):
        funcalc.sqrt_near_one(x)
    conv = ConvolutionAlgebra(8)
    y = conv.random_element(np.random.default_rng(47), 0.3)
    with pytest.raises(ParameterError, match="convolution-discrete algebra has no resolvent"):
        funcalc.riesz_projection(y, cd)


def test_a_product_integral_converges_in_every_factor() -> None:
    """The series factor's tail used to be credited to the matrix factor's
    quadrature gap, so the integral stopped one doubling early there."""
    conv = ConvolutionAlgebra(8)
    series = WienerAlgebra(conv, 2)
    up, mats = UnitizationAlgebra(series), MatrixAlgebra(2)
    f = np.zeros(conv.shape, dtype=complex)
    f[0] = 0.1
    tailed = up.from_parts(series.from_coeffs([conv.wrap(f)], tail=1e-6), 0.0)
    m = mats.wrap(np.array([[0.3, 0.2], [0.0, -0.25]]))
    prod = ProductAlgebra((up, mats))
    got_audit, ref_audit = [], []
    got = funcalc.sqrt_near_one(prod.from_components(tailed, m), audit_sink=got_audit)
    ref = funcalc.sqrt_near_one(m, audit_sink=ref_audit)
    assert [(a.nodes_per_edge, a.refinements) for a in got_audit] == [(128, 2)]
    assert [(a.nodes_per_edge, a.refinements) for a in ref_audit] == [(128, 2)]
    assert np.array_equal(prod.component(got, 1).payload, ref.payload)
