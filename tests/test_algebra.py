"""Algebra-kind invariants: norms, inverses, spectra, involutions."""

import numpy as np
import pytest

import idemlift as il
from idemlift.errors import (
    AlgebraMismatch,
    NoInvolution,
    NotInvertible,
    ParameterError,
)


def _kinds():
    mat1 = il.MatrixAlgebra(1)
    mat3 = il.MatrixAlgebra(3)
    conv = il.ConvolutionAlgebra(10)
    wien = il.WienerAlgebra(mat1, 4)
    wien_conv = il.WienerAlgebra(conv, 3)
    return {
        "matrix": mat3,
        "dual": il.DualAlgebra(mat3),
        "block-triangular": il.BlockTriangularAlgebra(2, 2),
        "convolution-discrete": conv,
        "wiener-truncated": wien,
        "unitization": il.UnitizationAlgebra(conv),
        "product": il.ProductAlgebra((il.UnitizationAlgebra(wien_conv), il.MatrixAlgebra(2))),
    }


def test_unit_laws_and_unit_norm() -> None:
    rng = np.random.default_rng(7)
    for name, alg in _kinds().items():
        if not alg.is_unital:
            with pytest.raises(ParameterError):
                alg.one()
            continue
        one = alg.one()
        assert one.norm() >= 1.0 - 1e-15, name
        x = alg.random_element(rng)
        assert il.dist(one * x, x) <= 1e-14 * max(1.0, x.norm()), name
        assert il.dist(x * one, x) <= 1e-14 * max(1.0, x.norm()), name


def test_ring_laws_sampled() -> None:
    """Algebra laws hold up to the declared tail radii (zero outside wiener)."""

    def close(u, v, tol):
        alg = u.algebra
        return il.dist(u, v) <= tol + alg.tail_bound(u) + alg.tail_bound(v)

    rng = np.random.default_rng(11)
    for name, alg in _kinds().items():
        for _ in range(25):
            x = alg.random_element(rng)
            y = alg.random_element(rng)
            z = alg.random_element(rng)
            tol = 1e-12 * max(1.0, x.norm() * y.norm() * z.norm())
            assert close((x * y) * z, x * (y * z), tol), name
            assert close(x * (y + z), x * y + x * z, tol), name
            assert close((2.5 - 1j) * (x + y), (2.5 - 1j) * x + (2.5 - 1j) * y, tol), name


def test_submultiplicative_norms_random_sweep() -> None:
    """||xy|| <= ||x|| ||y|| on 10**4 random pairs for every kind."""
    rng = np.random.default_rng(23)
    for name, alg in _kinds().items():
        for _ in range(10_000):
            x = alg.random_element(rng)
            y = alg.random_element(rng)
            assert (x * y).norm() <= x.norm() * y.norm() * (1 + 1e-12), name


def test_matrix_inverse_known_value() -> None:
    alg = il.MatrixAlgebra(2)
    x = alg.wrap(np.array([[2.0, 1.0], [0.0, 3.0]]))
    xi = x.inverse()
    expected = np.array([[0.5, -1.0 / 6.0], [0.0, 1.0 / 3.0]])
    np.testing.assert_allclose(xi.payload, expected, atol=1e-14)


def test_matrix_inverse_condition_refusal() -> None:
    alg = il.MatrixAlgebra(2)
    x = alg.wrap(np.array([[1.0, 0.0], [0.0, 1e-14]]))
    with pytest.raises(NotInvertible):
        x.inverse()
    with pytest.raises(NotInvertible):
        alg.zero().inverse()


def test_inverses_roundtrip_all_kinds() -> None:
    rng = np.random.default_rng(31)
    for name, alg in _kinds().items():
        if name in ("convolution-discrete",):
            with pytest.raises(NotInvertible):
                alg.random_element(rng).inverse()
            continue
        one = alg.one()
        for _ in range(20):
            # keep a safe distance from the non-invertible locus
            x = one + alg.random_element(rng, scale=0.3)
            xi = x.inverse()
            assert il.dist(x * xi, one) <= alg.tail_bound(x * xi) + 1e-11, name
            assert il.dist(xi * x, one) <= alg.tail_bound(xi * x) + 1e-11, name


def test_dual_inverse_formula() -> None:
    base = il.MatrixAlgebra(3)
    alg = il.DualAlgebra(base)
    rng = np.random.default_rng(5)
    b0 = base.one() + base.random_element(rng, 0.4)
    b1 = base.random_element(rng)
    x = alg.from_parts(b0, b1)
    xi = x.inverse()
    i0 = b0.inverse()
    np.testing.assert_allclose(alg.base_part(xi).payload, i0.payload, atol=1e-12)
    np.testing.assert_allclose(
        alg.eps_part(xi).payload, (-(i0 * b1 * i0)).payload, atol=1e-12
    )


def test_block_triangular_inverse_keeps_structure() -> None:
    alg = il.BlockTriangularAlgebra(2, 3)
    rng = np.random.default_rng(13)
    x = alg.one() + alg.random_element(rng, 0.3)
    xi = x.inverse()
    assert np.all(xi.payload[2:, :2] == 0)
    assert il.dist(x * xi, alg.one()) <= 1e-12


def test_convolution_product_matches_integral_of_one() -> None:
    """f = g = 1 convolves to (f*g)(t) = t on the grid, exactly."""
    alg = il.ConvolutionAlgebra(4)
    f = alg.sample(lambda t: 1.0)
    fg = f * f
    np.testing.assert_allclose(fg.payload, alg.grid, atol=0.0)


def test_convolution_nilpotency_exact() -> None:
    rng = np.random.default_rng(41)
    alg = il.ConvolutionAlgebra(9)
    for _ in range(10):
        x = alg.random_element(rng, 3.0)
        p = x
        for _ in range(alg.n_grid - 1):
            p = p * x
        assert p.norm() == 0.0


def test_convolution_is_commutative_and_radical() -> None:
    rng = np.random.default_rng(43)
    alg = il.ConvolutionAlgebra(16)
    x = alg.random_element(rng)
    y = alg.random_element(rng)
    assert il.dist(x * y, y * x) <= 1e-15
    assert alg.spectrum(x).points == (0j,)
    assert alg.spectrum(x).exact


def test_wiener_nilpotency_over_radical_base() -> None:
    conv = il.ConvolutionAlgebra(6)
    alg = il.WienerAlgebra(conv, 4)
    rng = np.random.default_rng(47)
    x = alg.random_element(rng)
    p = x
    for _ in range(conv.n_grid - 1):
        p = p * x
    # the stored truncation dies exactly; only tail slack may remain
    assert p.norm() == alg.tail_bound(p)


def test_wiener_tail_product_rule_without_spill() -> None:
    """tail(xy) <= ||x|| tail(y) + tail(x) ||y|| + tail(x) tail(y) when the
    stored product does not overflow the truncation degree."""
    base = il.MatrixAlgebra(1)
    alg = il.WienerAlgebra(base, 8)
    rng = np.random.default_rng(53)
    for _ in range(50):
        cx = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        cy = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        tx, ty = rng.uniform(0, 0.5, size=2)
        x = alg.from_scalar_coeffs(cx, tail=tx)
        y = alg.from_scalar_coeffs(cy, tail=ty)
        bound = x.norm() * ty + tx * y.norm() + tx * ty
        assert alg.tail_bound(x * y) <= bound + 1e-13


def test_wiener_tail_over_estimates_discarded_mass() -> None:
    """The tail of a truncated product dominates what a wider truncation keeps."""
    base = il.MatrixAlgebra(1)
    narrow = il.WienerAlgebra(base, 4)
    wide = il.WienerAlgebra(base, 8)
    rng = np.random.default_rng(59)
    for _ in range(25):
        cx = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        cy = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        xn = narrow.from_scalar_coeffs(cx)
        yn = narrow.from_scalar_coeffs(cy)
        xw = wide.from_scalar_coeffs(cx)
        yw = wide.from_scalar_coeffs(cy)
        pn = xn * yn
        pw = xw * yw
        dropped = sum(
            wide.coefficient(pw, k).norm() for k in range(5, 9)
        )
        assert narrow.tail_bound(pn) >= dropped - 1e-13


def test_wiener_inverse_certified() -> None:
    base = il.MatrixAlgebra(1)
    alg = il.WienerAlgebra(base, 10)
    f = alg.from_scalar_coeffs([1.0, -0.5])
    fi = f.inverse()
    for k in range(11):
        assert il.norm(alg.coefficient(fi, k)) == pytest.approx(0.5**k, abs=1e-14)
    assert alg.tail_bound(fi) >= 0.5**11 / (1 - 0.5) - 1e-13
    # zero inside the closed disc: no certified inverse
    g = alg.from_scalar_coeffs([1.0, 3.0])
    with pytest.raises(NotInvertible):
        g.inverse()


def test_unitization_spectrum_and_inverse() -> None:
    conv = il.ConvolutionAlgebra(12)
    alg = il.UnitizationAlgebra(conv)
    rng = np.random.default_rng(61)
    f = conv.random_element(rng, 2.0)
    x = alg.from_parts(f, 1.5 - 0.5j)
    rep = x.spectrum()
    assert rep.exact and rep.points == (1.5 - 0.5j,)
    xi = x.inverse()
    assert il.dist(x * xi, alg.one()) <= 1e-13
    assert il.dist(xi * x, alg.one()) <= 1e-13
    with pytest.raises(NotInvertible):
        alg.from_parts(f, 0.0).inverse()
    with pytest.raises(ParameterError):
        il.UnitizationAlgebra(il.MatrixAlgebra(2))


def _series_resolvent_case(seed: int):
    """A unitized series element f + c whose f carries a nonzero tail, and
    a ring of weighted nodes around c."""
    wien = il.WienerAlgebra(il.ConvolutionAlgebra(10), 3)
    up = il.UnitizationAlgebra(wien)
    rng = np.random.default_rng(seed)
    f = wien.add_tail(wien.random_element(rng, 0.1), 1e-3)
    c = 0.2 + 0.1j
    zs = c + 0.6 * np.exp(2j * np.pi * (np.arange(24) + 0.3) / 24)
    ws = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    return up, f, c, zs, ws


def test_resolvent_integral_matches_per_node_sum() -> None:
    up, f, c, zs, ws = _series_resolvent_case(71)
    assert up.base.tail_bound(f) > 0.0
    x = up.from_parts(f, c)
    conv = il.ConvolutionAlgebra(10)
    exact = il.UnitizationAlgebra(conv)  # no tails: the Neumann series ends
    y = exact.from_parts(conv.random_element(np.random.default_rng(5), 0.3), c)
    prod = il.ProductAlgebra((up, il.MatrixAlgebra(2)))
    mat = il.MatrixAlgebra(2).wrap(np.array([[0.25, 0.1], [0.0, 0.1 + 0.05j]]))
    for alg, el in ((up, x), (exact, y), (prod, prod.from_components(x, mat))):
        got = alg.resolvent_integral(el, zs, ws)
        ref = alg.weighted_sum([alg.inverse(z * alg.one() - el) for z in zs], ws)
        gap = got - ref
        assert gap.norm() - alg.tail_bound(gap) <= 1e-12, alg.kind
        # the same certified bound, rounded up, never below the reference
        assert alg.tail_bound(ref) <= alg.tail_bound(got), alg.kind
        assert alg.tail_bound(got) <= alg.tail_bound(ref) * (1.0 + 1e-12), alg.kind
    assert up.tail_bound(up.resolvent_integral(x, zs, ws)) > 0.0


def test_resolvent_integral_refuses_uncertified_nodes() -> None:
    up, f, c, zs, ws = _series_resolvent_case(73)
    x = up.from_parts(f, c)
    with pytest.raises(NotInvertible, match="one-point spectrum"):
        up.resolvent_integral(x, np.append(zs, c), np.append(ws, 1.0))
    near = c + 0.5 * f.norm()  # |z - c| < ||f||: the Neumann ratio is >= 1
    with pytest.raises(NotInvertible, match="cannot be certified"):
        up.resolvent_integral(x, np.append(zs, near), np.append(ws, 1.0))


def test_matrix_resolvent_integral_in_blocks_equals_default_path() -> None:
    alg = il.MatrixAlgebra(16)  # 16 nodes per block of RESOLVENT_BLOCK_BYTES
    rng = np.random.default_rng(79)
    x = alg.random_element(rng, 0.3)
    for k in (1, 16, 50):  # one partial block, one full block, four blocks
        zs = 2.0 * np.exp(2j * np.pi * (np.arange(k) + 0.3) / k)
        ws = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        got = alg.resolvent_integral(x, zs, ws).payload
        ref = alg.weighted_sum(alg.resolvent_batch(x, zs), ws).payload
        assert got.tobytes() == ref.tobytes(), k
    with pytest.raises(NotInvertible, match="too close to the spectrum"):
        alg.resolvent_integral(x, np.append(zs, x.spectrum().points[0]), np.append(ws, 1.0))


def test_unitization_norm_is_l1_sum() -> None:
    conv = il.ConvolutionAlgebra(32)
    alg = il.UnitizationAlgebra(conv)
    f = conv.sample(lambda t: 2.0)
    x = alg.from_parts(f, -3.0)
    assert x.norm() == pytest.approx(f.norm() + 3.0, rel=1e-15)


def test_product_algebra_componentwise() -> None:
    alg = il.ProductAlgebra((il.MatrixAlgebra(2), il.MatrixAlgebra(3)))
    rng = np.random.default_rng(67)
    x = alg.random_element(rng)
    y = alg.random_element(rng)
    a0 = alg.component(x, 0)
    assert x.norm() == pytest.approx(
        max(a0.norm(), alg.component(x, 1).norm()), rel=1e-15
    )
    both = x * y
    assert il.dist(alg.component(both, 0), a0 * alg.component(y, 0)) == 0.0
    pts = set(x.spectrum().points)
    comp_pts = set(a0.spectrum().points) | set(alg.component(x, 1).spectrum().points)
    assert il.hausdorff_distance(pts, comp_pts) <= 1e-12


def test_spectral_mapping_polynomials() -> None:
    """Hausdorff(sigma(g(x)), g(sigma(x))) small for deg <= 4 polynomials."""
    rng = np.random.default_rng(71)
    alg = il.MatrixAlgebra(5)
    for _ in range(25):
        x = alg.random_element(rng)
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        gx = alg.zero()
        for c in coeffs[::-1]:
            gx = gx * x + c * alg.one()
        eigs = np.asarray(x.spectrum().points)
        mapped = np.polyval(coeffs[::-1], eigs)
        assert il.hausdorff_distance(gx.spectrum().points, mapped) <= 1e-8


def test_spectrum_inclusion_under_kernel_perturbation() -> None:
    """Spectra of diagonal parts survive adding strictly upper elements."""
    rng = np.random.default_rng(73)
    alg = il.BlockTriangularAlgebra(3, 2)
    x = alg.random_element(rng)
    base_pts = x.spectrum().points
    for _ in range(100):
        y = np.zeros((5, 5), dtype=complex)
        y[:3, 3:] = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        pert = x + alg.wrap(y)
        pert_pts = np.asarray(pert.spectrum().points)
        for p in base_pts:
            assert np.min(np.abs(pert_pts - p)) <= 1e-8


def test_dual_spectrum_matches_embedding() -> None:
    base = il.MatrixAlgebra(3)
    alg = il.DualAlgebra(base)
    rng = np.random.default_rng(79)
    for _ in range(20):
        x = alg.random_element(rng)
        rep = alg.matrix_representation(x)
        assert il.hausdorff_distance(
            x.spectrum().points, np.linalg.eigvals(rep)
        ) <= 1e-8


def test_wiener_sampled_spectrum_of_generator() -> None:
    alg = il.WienerAlgebra(il.MatrixAlgebra(1), 5)
    z = alg.generator()
    rep = z.spectrum()
    assert not rep.exact
    assert rep.radius == pytest.approx(1.0, abs=1e-12)


def test_involution_laws() -> None:
    rng = np.random.default_rng(83)
    for name, alg in _kinds().items():
        if not alg.has_involution:
            with pytest.raises(NoInvolution):
                alg.random_element(rng).adjoint()
            continue
        c = alg.involution_bound
        for _ in range(20):
            x = alg.random_element(rng)
            y = alg.random_element(rng)
            scale = max(1.0, x.norm())
            assert il.dist(x.adjoint().adjoint(), x) <= 1e-13 * scale, name
            lhs = (x * y).adjoint()
            rhs = y.adjoint() * x.adjoint()
            slack = alg.tail_bound(lhs) + alg.tail_bound(rhs)
            assert il.dist(lhs, rhs) <= slack + 1e-12 * max(1.0, x.norm() * y.norm()), name
            assert x.adjoint().norm() <= c * x.norm() * (1 + 1e-12), name


def test_weighted_matrix_involution_bound_attained() -> None:
    alg = il.MatrixAlgebra(3, weight=(4.0, 1.0, 2.0))
    assert alg.involution_bound == pytest.approx(16.0)
    w = np.asarray(alg.weight)
    i, j = int(np.argmin(w)), int(np.argmax(w))
    x = np.zeros((3, 3), dtype=complex)
    x[i, j] = 1.0 / w[i] * w[j]  # normalised so ||x|| = 1
    e = alg.wrap(x)
    assert e.norm() == pytest.approx(1.0)
    assert e.adjoint().norm() == pytest.approx(alg.involution_bound, rel=1e-12)


def test_matrix_representations_are_multiplicative() -> None:
    rng = np.random.default_rng(89)
    conv = il.ConvolutionAlgebra(7)
    wien = il.WienerAlgebra(conv, 3)
    objs = [
        conv,
        wien,
        il.DualAlgebra(il.MatrixAlgebra(2)),
        il.UnitizationAlgebra(conv),
        il.ProductAlgebra((il.MatrixAlgebra(2), il.MatrixAlgebra(2))),
    ]
    for alg in objs:
        x = alg.random_element(rng)
        y = alg.random_element(rng)
        rx = alg.matrix_representation(x)
        ry = alg.matrix_representation(y)
        rxy = alg.matrix_representation(x * y)
        np.testing.assert_allclose(rx @ ry, rxy, atol=1e-12)


def test_element_mixing_raises() -> None:
    a = il.MatrixAlgebra(2)
    b = il.MatrixAlgebra(3)
    rng = np.random.default_rng(97)
    with pytest.raises(AlgebraMismatch):
        _ = a.random_element(rng) + b.random_element(rng)


def test_build_algebra_descriptors_roundtrip() -> None:
    descs = [
        {"kind": "matrix", "n": 4},
        {"kind": "matrix", "n": 2, "weight": [2.0, 1.0]},
        {"kind": "dual", "base": {"kind": "matrix", "n": 2}},
        {"kind": "block-triangular", "k": 2, "m": 3},
        {"kind": "convolution-discrete", "N": 16},
        {
            "kind": "wiener-truncated",
            "base": {"kind": "matrix", "n": 1},
            "degree": 6,
        },
        {"kind": "unitization", "base": {"kind": "convolution-discrete", "N": 8}},
        {
            "kind": "product",
            "factors": [
                {"kind": "matrix", "n": 2},
                {"kind": "convolution-discrete", "N": 4},
            ],
        },
    ]
    for d in descs:
        alg = il.build_algebra(d)
        again = il.build_algebra(alg.describe())
        assert again == alg


def test_build_algebra_rejects_bad_descriptors() -> None:
    for bad in [
        {"kind": "nope"},
        {"kind": "matrix"},
        {"kind": "matrix", "n": 0},
        {"kind": "convolution-discrete", "N": 1},
        {"kind": "matrix", "n": 3, "weight": [1.0, -1.0, 2.0]},
        "matrix",
    ]:
        with pytest.raises(ParameterError):
            il.build_algebra(bad)  # type: ignore[arg-type]


def test_alg_exp_matches_dense_expm() -> None:
    rng = np.random.default_rng(101)
    alg = il.MatrixAlgebra(4)
    x = alg.random_element(rng, 1.5)
    ex = il.alg_exp(x)
    w, v = np.linalg.eig(x.payload)
    dense = v @ np.diag(np.exp(w)) @ np.linalg.inv(v)
    np.testing.assert_allclose(ex.payload, dense, atol=1e-11)
