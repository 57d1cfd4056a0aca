"""Contour-integral functional calculus against eigendecomposition oracles."""

import cmath
import math

import numpy as np
import pytest

from oracles import (
    eigenprojection_near,
    half_shift_root,
    principal_sqrt,
    random_sectorial_matrix,
    random_split_spectrum_matrix,
    tracked_angles,
)

from idemlift import funcalc
from idemlift.algebra import (
    BlockTriangularAlgebra,
    ConvolutionAlgebra,
    DualAlgebra,
    MatrixAlgebra,
    ProductAlgebra,
    UnitizationAlgebra,
    WienerAlgebra,
)
from idemlift.contours import (
    JordanPolygon,
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


def test_sqrt_cut_detects_a_loop_crossing_the_cut_inside_an_edge() -> None:
    """The 64-gon of the vertex case turned by half a step: the cut ray
    passes through the interior of the edge from vertex 63 to vertex 0,
    and no vertex lies on it."""
    x = M1.wrap(np.array([[-1.0 + 0j]]))
    P = PolygonalArc(1 + 0j)
    turned = JordanPolygon(
        tuple(-1 + 1.2 * np.exp(2j * np.pi * (k + 0.5) / 64) for k in range(64))
    )
    assert all(v.imag != 0.0 for v in turned.vertices)
    crossing = ContourData(turned, eps=0.2, branch="cut", cut=P)
    with pytest.raises(DegenerateGeometry, match="integration loop crosses the branch cut"):
        sqrt_cut(x, P, crossing)


def test_sqrt_cut_refuses_a_loop_around_the_origin() -> None:
    """Any loop around the origin meets every ray from it; the spectrum
    itself is enclosed and clear of the cut, so only the geometry fails."""
    x = M2.wrap(np.diag([1.0, 0.5j]))
    P = PolygonalArc(-1 + 0j)
    around = ContourData(circle_polygon(0j, 2.0), eps=0.2, branch="cut", cut=P)
    with pytest.raises(DegenerateGeometry, match="integration loop crosses the branch cut"):
        sqrt_cut(x, P, around)


def test_the_cut_check_refuses_no_gamma_pair_loop() -> None:
    """The loop around a cut ray, built at 360 directions and three tube
    widths, never meets its own ray."""
    for eps in (1e-3, 0.1, 1.0):
        for k in range(360):
            P = PolygonalArc(np.exp(2j * np.pi * k / 360))
            funcalc._check_cut(build_gamma_pair(P, eps, 2.0), P)


def test_the_closed_form_sheet_angle_is_the_tracked_angle() -> None:
    """On loops that avoid the cut, the closed-form argument at every
    node is the cumulative argument tracked along the loop from the first
    node (the reference in ``oracles``), at every level of every edge."""
    for k in range(0, 360, 7):
        P = PolygonalArc(np.exp(2j * np.pi * k / 360))
        poly = build_gamma_pair(P, 0.1, 2.0)
        for level in (0, 1, 2):
            zs = np.concatenate([edge(level)[0] for edge in funcalc._polygon_edges(poly, [])])
            closed = funcalc._sheet_angles(zs, P.angle)
            assert np.max(np.abs(closed - tracked_angles(zs, P.angle))) <= 1e-12


def test_contour_apply_refuses_values_not_shaped_like_the_nodes() -> None:
    """``g`` is called once on the node array; a constant, which a retry
    node by node once accepted, is refused with both shapes named."""
    a = M2.wrap(np.diag([0.1, 0.2j]))
    cd = ContourData(circle_polygon(0j, 1.0), eps=0.2)
    with pytest.raises(ParameterError, match=r"of shape \(\) on nodes of shape \(\d+,\)"):
        contour_apply(lambda z: 1.0, a, cd)
    with pytest.raises(ParameterError, match=r"of shape \(2, \d+\) on nodes of shape \(\d+,\)"):
        contour_apply(lambda z: np.stack((z, z)), a, cd)


def test_contour_apply_lets_an_error_of_g_through_unchanged() -> None:
    """An exception raised by ``g`` on the node array propagates as it
    is; a scalar-only ``g`` such as ``cmath.exp`` is not retried node by
    node."""
    a = M2.wrap(np.diag([0.1, 0.2j]))
    cd = ContourData(circle_polygon(0j, 1.0), eps=0.2)
    refusal = ValueError("g refuses")

    def refusing(zs):
        raise refusal

    with pytest.raises(ValueError) as info:
        contour_apply(refusing, a, cd)
    assert info.value is refusal
    with pytest.raises(TypeError):
        contour_apply(cmath.exp, a, cd)


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
        assert audits[0].nodes <= 256


def test_sqrt_near_one_evaluates_each_circle_node_once(monkeypatch) -> None:
    seen = []
    make_kernel = MatrixAlgebra.resolvent_kernel

    def spy(self, x):
        kernel = make_kernel(self, x)

        def integral(zs, weights, starts):
            seen.append(np.array(zs))
            return kernel(zs, weights, starts)

        return integral

    monkeypatch.setattr(MatrixAlgebra, "resolvent_kernel", spy)
    rng = np.random.default_rng(37)
    for radius in (0.1, 0.3):
        seen.clear()
        audits = []
        sqrt_near_one(MatrixAlgebra(4).wrap(_with_radius(rng, 4, radius)), audit_sink=audits)
        nodes = np.concatenate(seen)
        n = audits[0].nodes
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
    assert audits[0].nodes == 128
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
        n = audits[0].nodes
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
        UnitizationAlgebra,
        "resolvent_kernel",
        lambda self, x: lambda zs, ws, starts: make_kernel(self, x)(zs, ws, starts),
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
    assert [(a.nodes, a.refinements) for a in got_audit] == [(128, 2)]
    assert [(a.nodes, a.refinements) for a in ref_audit] == [(128, 2)]
    assert np.array_equal(prod.component(got, 1).payload, ref.payload)


# -- the start rule: each polygon edge starts at the Gauss order its
# nearest spectrum point asks for


def _start_for(rho: float) -> int:
    """The start the rule asks for at Bernstein parameter ``rho``."""
    for n in (4, 8, 16):
        if rho ** (-2 * n) <= funcalc.QUAD_TOL:
            return n
    return funcalc.QUAD_START_NODES


def _rho_at_start(n: int) -> float:
    """The Bernstein parameter at which n nodes just meet QUAD_TOL."""
    return funcalc.QUAD_TOL ** (-1.0 / (2 * n))


@pytest.mark.parametrize("a, b", [(0j, 1 + 0j), (1 + 2j, -0.5 + 1j), (3j, 3j - 1e-3)])
def test_an_edge_starts_where_its_bernstein_ellipse_meets_the_tolerance(a, b) -> None:
    """For a point on the perpendicular bisector at distance d from an
    edge of length L, rho = 2d/L + sqrt(1 + (2d/L)**2); for one on the
    edge's line at distance t beyond an endpoint, rho = w + sqrt(w**2 - 1)
    with w = 1 + 2t/L.  Each threshold is met just inside and missed just
    outside, on either side of the edge and beyond either end."""
    L, mid, unit = abs(b - a), 0.5 * (a + b), (b - a) / abs(b - a)
    for n in (4, 8, 16):
        for rho in (1.02 * _rho_at_start(n), 0.98 * _rho_at_start(n)):
            t = 0.5 * (rho - 1.0 / rho)  # 2d/L
            assert abs(t + math.sqrt(1.0 + t * t) - rho) <= 1e-12 * rho
            w = 0.5 * (rho + 1.0 / rho)  # 1 + 2t/L beyond an endpoint
            points = [
                mid + 1j * unit * 0.5 * L * t,
                mid - 1j * unit * 0.5 * L * t,
                b + unit * 0.5 * L * (w - 1.0),
                a - unit * 0.5 * L * (w - 1.0),
            ]
            for s in points:
                assert funcalc._edge_starts([(a, b)], [s]).tolist() == [_start_for(rho)]
    # the nearest point decides; no point asks for the fewest nodes; a
    # point on the edge asks for the most
    far, near = mid + 1j * unit * 100.0 * L, mid + 1j * unit * 0.3 * L
    assert funcalc._edge_starts([(a, b)], [far, near]).tolist() == [16]
    assert funcalc._edge_starts([(a, b)], [far]).tolist() == [4]
    assert funcalc._edge_starts([(a, b)], []).tolist() == [4]
    assert funcalc._edge_starts([(a, b)], [mid]).tolist() == [16]
    assert funcalc._edge_starts([(a, b), (b, a)], [far]).tolist() == [4, 4]


def _basis(rng, n):
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return v + 2.0 * math.sqrt(n) * np.eye(n)


def _eig_apply(mat, f):
    """f(mat) through ``eig``, f acting on the eigenvalue array."""
    w, v = np.linalg.eig(mat)
    return v @ np.diag(f(w)) @ np.linalg.inv(v)


def _start_rule_cases(n, seed):
    """(name, call, eig reference) for the four polygon entry points on a
    random n x n matrix."""
    rng = np.random.default_rng(seed)
    alg = MatrixAlgebra(n)
    k = n // 2
    split = np.concatenate((np.zeros(k), np.ones(n - k))) + 0.28 * np.sqrt(
        rng.uniform(0, 1, n)
    ) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    v = _basis(rng, n)
    a = alg.wrap(v @ np.diag(split) @ np.linalg.inv(v))
    sector = rng.uniform(0.5, 4.0, n) * np.exp(1j * rng.uniform(-np.pi / 3, np.pi / 3, n))
    v = _basis(rng, n)
    x = alg.wrap(v @ np.diag(sector) @ np.linalg.inv(v))
    P, gamma = _gamma_for(x)
    around_one = ContourData(circle_polygon(1 + 0j, 0.45), eps=0.1)
    around_all = ContourData(circle_polygon(0.5 + 0j, 1.2), eps=0.1)
    inside = lambda w: (np.abs(w - 1.0) < 0.45).astype(complex)  # noqa: E731

    def cut_sqrt(w):
        theta = P.angle - 2.0 * np.pi + (np.angle(w) - P.angle) % (2.0 * np.pi)
        return np.sqrt(np.abs(w)) * np.exp(0.5j * theta)

    return [
        ("riesz_projection", lambda s: riesz_projection(a, around_one, s), _eig_apply(a.payload, inside)),
        (
            "spectral_component_apply",
            lambda s: funcalc.spectral_component_apply(lambda z: z * z, a, around_one, s),
            _eig_apply(a.payload, lambda w: w * w * inside(w)),
        ),
        (
            "contour_apply",
            lambda s: contour_apply(np.exp, a, around_all, s),
            _eig_apply(a.payload, np.exp),
        ),
        ("sqrt_cut", lambda s: sqrt_cut(x, P, gamma, audit_sink=s), _eig_apply(x.payload, cut_sqrt)),
    ]


def _refine_every_edge(norms):
    """All-edge doubling: the per-edge loop with every edge refined on
    every pass, as before it refined edge by edge."""
    return list(range(len(norms)))


@pytest.fixture
def resolvent_count(monkeypatch):
    """The nodes the matrix kernels receive, counted through a wrapped
    ``algebra._resolvents``; ``run(call)`` gives the call's payload, the
    nodes it evaluated and its one audit."""
    from idemlift import algebra

    evaluated = []
    resolvents = algebra._resolvents

    def counting(p, zs):
        evaluated.append(len(zs))
        return resolvents(p, zs)

    monkeypatch.setattr(algebra, "_resolvents", counting)

    def run(call):
        evaluated.clear()
        audits = []
        result = call(audits).payload
        (audit,) = audits
        return result, sum(evaluated), audit

    return run


@pytest.mark.parametrize("n, seed", [(4, 59), (4, 61), (16, 67)])
def test_the_start_rule_agrees_with_the_uniform_rule_on_fewer_resolvents(
    monkeypatch, resolvent_count, n, seed
) -> None:
    """Each polygon call matches the uniform start (every edge at
    QUAD_START_NODES, as before the start rule) and the eig reference to
    1e-12.  Per call it evaluates no more resolvents than all-edge
    doubling from the same starts, and all the calls together fewer than
    the uniform start."""

    def uniform_starts(edges, points):
        return np.full(len(edges), funcalc.QUAD_START_NODES)

    saved = 0
    for name, call, ref in _start_rule_cases(n, seed):
        got, nodes, audit = resolvent_count(call)
        with monkeypatch.context() as m:
            m.setattr(funcalc, "_edge_starts", uniform_starts)
            uniform, uniform_nodes, _ = resolvent_count(call)
        with monkeypatch.context() as m:
            m.setattr(funcalc, "_unconverged", _refine_every_edge)
            _, doubled_nodes, doubled = resolvent_count(call)
        assert np.max(np.abs(got - ref)) <= 1e-12, name
        assert np.max(np.abs(got - uniform)) <= 1e-12, name
        assert nodes == audit.evaluated <= doubled_nodes, name
        # all-edge doubling starts over on every edge: its k + 1 passes hold
        # (2**(k + 1) - 1) / 2**k times the nodes of the accepted one
        k = doubled.refinements
        assert doubled_nodes == doubled.nodes * (2 ** (k + 1) - 1) // 2**k, name
        saved += uniform_nodes - nodes
    assert saved > 0


def test_a_polygon_integral_gives_up_at_the_node_cap_on_its_densest_edge(monkeypatch) -> None:
    """QUAD_MAX_NODES bounds the nodes of any one edge: a call that
    accepts with d nodes on its densest edge converges to the same result
    under a cap of d and gives up under a cap of d / 2.  The Riesz
    projection's edges start apart; the cut square root's also end at
    different levels, as its last passes refine only some edges."""
    rng = np.random.default_rng(59)
    v = _basis(rng, 4)
    a = MatrixAlgebra(4).wrap(v @ np.diag([0.1, 0.2j, 1.3, 0.9 - 0.1j]) @ np.linalg.inv(v))
    cd = ContourData(circle_polygon(1 + 0j, 0.45), eps=0.1)
    starts = funcalc._edge_starts(cd.polygon.edges(), a.spectrum().points)
    assert starts.min() < starts.max()  # the edges start apart
    _, cut_sqrt, _ = _start_rule_cases(4, 61)[3]
    calls = _kernel_runs(monkeypatch)
    for name, call in (("riesz", lambda: riesz_projection(a, cd)), ("sqrt_cut", lambda: cut_sqrt([]))):
        calls.clear()
        got = call().payload
        densest = max(max(runs) for runs in calls)
        if name == "sqrt_cut":
            assert len(set(map(len, calls))) > 1  # the last passes refine fewer edges
        with monkeypatch.context() as m:
            m.setattr(funcalc, "QUAD_MAX_NODES", densest)
            assert np.array_equal(call().payload, got)
            m.setattr(funcalc, "QUAD_MAX_NODES", densest // 2)
            with pytest.raises(QuadratureNotConverged, match=f"at {densest // 2} nodes on its densest edge"):
                call()


# -- the per-edge loop: each pass refines only the edges whose own gap is
# not yet below QUAD_TOL / E


def _scripted_edges(values, calls):
    """Edges whose sum at level k is ``values[e][k]``: one node at z = 1
    with dz weight 2 pi i * value, against the resolvent of 0 in M_1.
    Each evaluation is recorded in ``calls`` as (edge, level)."""

    def edge(e):
        def level(k):
            calls.append((e, k))
            return np.array([1.0 + 0j]), np.array([2j * np.pi * values[e][k]]), 0.0, 4 << k

        return level

    return [edge(e) for e in range(len(values))]


def _scripted(values):
    calls, audits = [], []
    total = funcalc._integrate(np.ones_like, M1.zero(), _scripted_edges(values, calls), audits)
    (audit,) = audits
    return complex(total.payload[0, 0]), audit, calls


def test_a_pass_refines_only_the_edges_that_have_not_converged_and_keeps_the_stale_gaps() -> None:
    """Edge 0 settles at pass 1 with a gap of 0.45 tol, below tol / 2, so
    it is never refined again, and its gap stays in the summed one: pass 2
    reads 0.6 + 0.45 tol and goes on, pass 3 reads 0.01 + 0.45 tol and
    stops.  Dropping the stale gap would stop at pass 2; refining every
    edge would evaluate edge 0 at levels 2 and 3."""
    tol = funcalc.QUAD_TOL
    values = [[0.0, 0.45 * tol, 0.45 * tol, 0.45 * tol], [0.0, 1e-3, 1e-3 + 0.6 * tol, 1e-3 + 0.61 * tol]]
    total, audit, calls = _scripted(values)
    assert sorted(calls) == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (1, 3)]
    assert (audit.refinements, audit.nodes, audit.evaluated) == (3, 8 + 32, 6)
    assert audit.delta == pytest.approx(0.46 * tol, rel=1e-4)
    assert total == pytest.approx(1e-3 + 1.06 * tol, abs=1e-18)


def test_acceptance_reads_the_summed_gap_not_each_edges_gap() -> None:
    """Gaps of 0.7e-3 and -0.7e-3 cancel: the sum is accepted at pass 1,
    although neither edge's own gap is below tol / 2."""
    values = [[0.0, 0.7e-3, 0.7e-3], [0.0, -0.7e-3, -0.7e-3]]
    total, audit, calls = _scripted(values)
    assert audit.refinements == 1 and len(calls) == 4
    assert audit.delta < funcalc.QUAD_TOL and total == 0.0


def test_no_edge_over_its_share_does_not_accept_a_summed_gap_over_the_tolerance(monkeypatch) -> None:
    """Under a stored norm that is not subadditive, |x|**2 / tol, two gaps
    of 0.6 tol each read 0.36 tol, under tol / 2, while their sum reads
    1.44 tol.  The loop refines every edge then, and accepts only a summed
    gap below QUAD_TOL."""
    tol = funcalc.QUAD_TOL
    monkeypatch.setattr(
        MatrixAlgebra, "_norm_parts", lambda self, p: (abs(p[0, 0]) ** 2 / tol,) * 2
    )
    values = [[0.0, 0.6 * tol, 0.6 * tol], [0.0, 0.6 * tol, 0.6 * tol]]
    _, audit, calls = _scripted(values)
    assert audit.refinements == 2 and sorted(calls)[-1] == (1, 2)
    assert audit.delta < tol


def _kernel_runs(monkeypatch):
    """Record, per kernel call of a matrix integral, its run lengths."""
    calls = []
    make_kernel = MatrixAlgebra.resolvent_kernel

    def spy(self, x):
        kernel = make_kernel(self, x)

        def integral(zs, weights, starts):
            calls.append(np.diff(list(starts) + [len(zs)]).tolist())
            return kernel(zs, weights, starts)

        return integral

    monkeypatch.setattr(MatrixAlgebra, "resolvent_kernel", spy)
    return calls


def test_sqrt_cut_evaluates_its_branch_only_on_the_nodes_it_sums(monkeypatch) -> None:
    """Over all passes the square-root branch sees exactly the nodes the
    audit counts as evaluated, though the edges end at different levels:
    a pass that refines some edges evaluates no other edge's nodes."""
    seen = []
    integrate = funcalc._integrate

    def spy(scalar_fn, a, edges, audit_sink):
        def counted(zs):
            seen.append(len(zs))
            return scalar_fn(zs)

        return integrate(counted, a, edges, audit_sink)

    monkeypatch.setattr(funcalc, "_integrate", spy)
    calls = _kernel_runs(monkeypatch)
    _, call, _ = _start_rule_cases(4, 61)[3]
    audits = []
    call(audits)
    (audit,) = audits
    assert len({len(runs) for runs in calls}) > 1  # the last passes refine fewer edges
    assert seen == [sum(runs) for runs in calls]
    assert sum(seen) == audit.evaluated


def test_each_pass_is_one_kernel_call_over_the_edges_it_refines(monkeypatch) -> None:
    """Passes 0 and 1 send every edge of the gamma polygon, as one run
    each, in one kernel call; later passes send fewer edges, each at
    twice its last node count."""
    _, call, _ = _start_rule_cases(4, 59)[3]
    calls = _kernel_runs(monkeypatch)
    audits = []
    call(audits)
    assert len(calls) == audits[0].refinements + 1 >= 3
    assert len(calls[0]) == len(calls[1]) == 9
    assert [2 * n for n in calls[0]] == calls[1]
    assert all(len(runs) < 9 for runs in calls[2:])
    assert audits[0].evaluated == sum(map(sum, calls))


def _jordan_cases():
    """(name, call, reference) on a 4 x 4 Jordan block at 2 + 0.5i, whose
    square root is the binomial series sqrt(lam) sum_k C(1/2, k) (N/lam)^k,
    and on Jordan blocks at 0.05 and 1.02 in one basis, whose Riesz
    projection near 1 is the second block's identity."""
    lam, n = 2.0 + 0.5j, 4
    shift = np.eye(n, k=1, dtype=complex)
    x = MatrixAlgebra(n).wrap(lam * np.eye(n) + shift)
    P, gamma = _gamma_for(x)
    theta = P.angle - 2.0 * np.pi + (np.angle(lam) - P.angle) % (2.0 * np.pi)
    root = np.sqrt(abs(lam)) * np.exp(0.5j * theta)
    series = sum(
        math.prod((0.5 - j) / (j + 1) for j in range(k)) * np.linalg.matrix_power(shift / lam, k)
        for k in range(n)
    )
    jordan = np.zeros((5, 5), dtype=complex)
    jordan[:2, :2] = 0.05 * np.eye(2) + np.eye(2, k=1)
    jordan[2:, 2:] = 1.02 * np.eye(3) + np.eye(3, k=1)
    v = _basis(np.random.default_rng(71), 5)
    a = MatrixAlgebra(5).wrap(v @ jordan @ np.linalg.inv(v))
    ref = v @ np.diag([0, 0, 1, 1, 1]).astype(complex) @ np.linalg.inv(v)
    around_one = ContourData(circle_polygon(1 + 0j, 0.45), eps=0.1)
    return [
        ("sqrt_cut", lambda s: sqrt_cut(x, P, gamma, audit_sink=s), root * series),
        ("riesz_projection", lambda s: riesz_projection(a, around_one, s), ref),
    ]


@pytest.mark.parametrize("case", [0, 1])
def test_the_per_edge_loop_agrees_on_jordan_blocks_within_all_edge_doubling(
    monkeypatch, resolvent_count, case
) -> None:
    name, call, ref = _jordan_cases()[case]
    got, nodes, audit = resolvent_count(call)
    with monkeypatch.context() as m:
        m.setattr(funcalc, "_unconverged", _refine_every_edge)
        doubled, doubled_nodes, _ = resolvent_count(call)
    assert np.max(np.abs(got - ref)) <= 1e-12, name
    assert np.max(np.abs(doubled - ref)) <= 1e-12, name
    assert nodes == audit.evaluated <= doubled_nodes, name


def test_the_circle_evaluates_exactly_the_nodes_of_its_estimate() -> None:
    rng = np.random.default_rng(73)
    for y in (MatrixAlgebra(4).wrap(_with_radius(rng, 4, 0.3)), M1.zero()):
        audits = []
        sqrt_near_one(y, audit_sink=audits)
        assert audits[0].evaluated == audits[0].nodes >= 64


def _same_payload(p, q) -> bool:
    if isinstance(p, tuple):
        return len(p) == len(q) and all(_same_payload(u, v) for u, v in zip(p, q))
    if hasattr(p, "coeffs"):
        return p.coeffs.tobytes() == q.coeffs.tobytes() and p.tail == q.tail
    return np.asarray(p).tobytes() == np.asarray(q).tobytes()


def _kernel_kinds():
    rng = np.random.default_rng(79)
    m2, m16 = MatrixAlgebra(2), MatrixAlgebra(16)
    conv = ConvolutionAlgebra(8)
    wien = WienerAlgebra(conv, 2)
    up = UnitizationAlgebra(wien)
    tailed = up.from_parts(wien.add_tail(wien.random_element(rng, 0.05), 1e-4), 0.1)
    dual, block = DualAlgebra(m2), BlockTriangularAlgebra(1, 2)
    prod = ProductAlgebra((up, m2))
    return [
        m16.random_element(rng, 0.3),
        dual.random_element(rng, 0.3),
        block.random_element(rng, 0.3),
        UnitizationAlgebra(conv).from_parts(conv.random_element(rng, 0.05), 0.1j),
        tailed,
        prod.from_components(tailed, m2.random_element(rng, 0.3)),
    ]


@pytest.mark.parametrize("kind", range(6))
def test_each_run_of_a_kernel_call_equals_a_one_run_call_on_its_nodes(kind) -> None:
    """For every kind with a resolvent kernel.  On M_16 a block holds 16
    nodes, so the runs of 40 nodes cross blocks, and whole runs of one
    length inside a block are summed together."""
    x = _kernel_kinds()[kind]
    alg = x.algebra
    zs = 1.5 * np.exp(2j * np.pi * np.arange(40) / 40)
    ws = np.random.default_rng(83).standard_normal(40) * zs
    starts = [0, 4, 8, 12, 21, 22, 39]
    runs = alg.resolvent_kernel(x)(zs, ws, starts)
    assert len(runs) == len(starts)
    for run, lo, hi in zip(runs, starts, starts[1:] + [40]):
        one = alg.resolvent_integral(x, zs[lo:hi], ws[lo:hi])
        assert _same_payload(run.payload, one.payload), (lo, hi)
    if kind == 4:
        assert all(alg.tail_bound(run) > 0.0 for run in runs)  # every tail certified


def test_gauss_legendre_rules_match_leggauss() -> None:
    for n in (4, 8, 16):
        x, w = funcalc._gauss_legendre(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(x - ref_x)) <= 1e-15 and np.max(np.abs(w - ref_w)) <= 1e-15
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


def test_a_polygon_integral_leaves_numpy_polynomial_unimported() -> None:
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, numpy as np\n"
        "from idemlift import MatrixAlgebra, ContourData, circle_polygon, riesz_projection\n"
        "a = MatrixAlgebra(2).wrap(np.diag([0.0, 1.0]))\n"
        "p = riesz_projection(a, ContourData(circle_polygon(1, 0.45), eps=0.1))\n"
        "assert abs(p.payload[1, 1] - 1) < 1e-12\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={"PYTHONPATH": str(src)}
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
