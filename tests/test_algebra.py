"""Algebra-kind invariants: norms, inverses, spectra, involutions."""

import numpy as np
import pytest

from oracles import hausdorff_distance

import idemlift as il
from idemlift.algebra import CONDITION_LIMIT, _checked_inv
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
        assert (one * x - x).norm() <= 1e-14 * max(1.0, x.norm()), name
        assert (x * one - x).norm() <= 1e-14 * max(1.0, x.norm()), name


def test_ring_laws_sampled() -> None:
    """Algebra laws hold up to the declared tail radii (zero outside wiener)."""

    def close(u, v, tol):
        alg = u.algebra
        return (u - v).norm() <= tol + alg.tail_bound(u) + alg.tail_bound(v)

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


def _graded_stack(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` random n x n matrices U diag(s) V^H whose singular values
    fall geometrically from 1 to 10^-e, with e uniform in [0, 14]."""
    out = []
    for e in rng.uniform(0.0, 14.0, count):
        u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        out.append(u @ np.diag(np.logspace(0.0, -e, n)) @ v.conj().T)
    return np.stack(out)


@pytest.mark.parametrize("n", [2, 4, 16])
def test_checked_inverse_refuses_every_ill_conditioned_matrix(n: int) -> None:
    """||A||_F ||A^-1||_F lies in [cond_2, n cond_2]: every matrix with
    cond_2 above the limit is refused, none with cond_2 below limit / n."""
    stack = _graded_stack(np.random.default_rng(100 + n), n, 120)
    conds = np.linalg.cond(stack)
    assert np.any(conds > CONDITION_LIMIT) and np.any(conds < CONDITION_LIMIT / (2 * n))
    for mat, cond in zip(stack, conds):
        if cond > CONDITION_LIMIT:
            with pytest.raises(NotInvertible, match="condition bound"):
                _checked_inv(mat, "refused")
            with pytest.raises(NotInvertible):
                il.MatrixAlgebra(n).wrap(mat).inverse()
        elif cond < CONDITION_LIMIT / (2 * n):
            assert _checked_inv(mat, "refused").tobytes() == np.linalg.inv(mat).tobytes()
    with pytest.raises(NotInvertible):
        _checked_inv(stack, "refused")  # one refused member refuses the stack
    fine = stack[conds < CONDITION_LIMIT / (2 * n)]
    assert _checked_inv(fine, "refused").tobytes() == np.linalg.inv(fine).tobytes()
    for scale in (1e-200, 1e200):  # the bound is scale-invariant; no square overflows
        assert _checked_inv(scale * fine, "refused").shape == fine.shape


def test_checked_inverse_maps_exact_singularity_and_non_finite_entries() -> None:
    stack = np.stack([np.eye(3, dtype=complex)] * 4)
    stack[2, :, 1] = 0.0  # an exactly singular member
    with pytest.raises(NotInvertible, match="exactly singular") as info:
        _checked_inv(stack, "refused")
    assert not isinstance(info.value, np.linalg.LinAlgError)
    for bad in (np.nan, np.inf, complex(0.0, np.inf)):
        stack = np.stack([np.eye(3, dtype=complex)] * 4)
        stack[1, 0, 2] = bad
        with pytest.raises(NotInvertible, match="non-finite"):
            _checked_inv(stack, "refused")
        with pytest.raises(NotInvertible):
            il.MatrixAlgebra(3).wrap(stack[1]).inverse()


def test_checked_inverse_guards_every_matrix_kernel() -> None:
    """Plain and dual matrices, block-triangular elements and resolvents."""
    mat = il.MatrixAlgebra(3)
    with pytest.raises(NotInvertible):
        mat.wrap(np.diag([1.0, 1.0, 0.0])).inverse()
    dual = il.DualAlgebra(mat)
    with pytest.raises(NotInvertible):
        dual.from_parts(mat.wrap(np.diag([1.0, 1e-13, 1.0])), mat.one()).inverse()
    x = mat.wrap(np.diag([0.5, 1.0, 2.0]))
    for alg, elem in ((mat, x), (dual, dual.from_parts(x, mat.one()))):
        with pytest.raises(NotInvertible, match="too close to the spectrum"):
            alg.resolvent_batch(elem, [3.0, 1.0])
    bt = il.BlockTriangularAlgebra(2, 3)
    for diag in ([1.0, 0.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0, 1e-14]):
        p = np.diag(diag).astype(complex)
        p[0, 3] = 1.0
        with pytest.raises(NotInvertible, match="diagonal block"):
            bt.wrap(p).inverse()
    y = bt.wrap(np.diag([0.5, 1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(NotInvertible, match="too close to the spectrum"):
        bt.resolvent_batch(y, [5.0, 3.0])


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
            assert (x * xi - one).norm() <= alg.tail_bound(x * xi) + 1e-11, name
            assert (xi * x - one).norm() <= alg.tail_bound(xi * x) + 1e-11, name


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
    assert (x * xi - alg.one()).norm() <= 1e-12


def test_array_kinds_refuse_payloads_of_another_shape() -> None:
    """One shape-checked wrap for the array kinds; block-triangular adds
    only its lower-left check."""
    cases = (
        (il.MatrixAlgebra(2), np.eye(3)),
        (il.BlockTriangularAlgebra(2, 2), np.eye(3)),
        (il.BlockTriangularAlgebra(2, 2), np.eye(4).ravel()),
        (il.ConvolutionAlgebra(8), np.zeros(8)),
    )
    for alg, payload in cases:
        with pytest.raises(ParameterError, match=f"{alg.kind} payload must have shape"):
            alg.wrap(payload)
    low = np.eye(4, dtype=complex)
    low[3, 0] = 1.0
    with pytest.raises(ParameterError, match="lower-left block"):
        il.BlockTriangularAlgebra(2, 2).wrap(low)


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
    assert (x * y - y * x).norm() <= 1e-15
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


def _coefficient_draws(base, rng, count: int) -> list:
    """``count`` random series coefficients in ``base``: standard complex
    normals over matrix(1), random elements over a convolution base."""
    if base == il.MatrixAlgebra(1):
        draws = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        return [base.wrap([[c]]) for c in draws]
    return [base.random_element(rng) for _ in range(count)]


def test_wiener_tail_product_rule_without_spill() -> None:
    """tail(xy) <= ||x|| tail(y) + tail(x) ||y|| + tail(x) tail(y) when the
    stored product does not overflow the truncation degree."""
    rng = np.random.default_rng(53)
    # (series algebra, leading coefficients drawn): degree 2 * (count - 1) <= D
    cases = (
        (il.WienerAlgebra(il.MatrixAlgebra(1), 8), 4),
        (il.WienerAlgebra(il.ConvolutionAlgebra(10), 3), 2),
    )
    for alg, count in cases:
        for _ in range(50):
            cx = _coefficient_draws(alg.base, rng, count)
            cy = _coefficient_draws(alg.base, rng, count)
            tx, ty = rng.uniform(0, 0.5, size=2)
            x = alg.from_coeffs(cx, tail=tx)
            y = alg.from_coeffs(cy, tail=ty)
            bound = x.norm() * ty + tx * y.norm() + tx * ty
            assert alg.tail_bound(x * y) <= bound + 1e-13, alg


def test_wiener_tail_over_estimates_discarded_mass() -> None:
    """The tail of a truncated product dominates what a wider truncation keeps."""
    rng = np.random.default_rng(59)
    for base, d in ((il.MatrixAlgebra(1), 4), (il.ConvolutionAlgebra(10), 3)):
        narrow = il.WienerAlgebra(base, d)
        wide = il.WienerAlgebra(base, 2 * d)
        for _ in range(25):
            cx = _coefficient_draws(base, rng, d + 1)
            cy = _coefficient_draws(base, rng, d + 1)
            pn = narrow.from_coeffs(cx) * narrow.from_coeffs(cy)
            pw = wide.from_coeffs(cx) * wide.from_coeffs(cy)
            dropped = sum(
                wide.coefficient(pw, k).norm() for k in range(d + 1, 2 * d + 1)
            )
            assert dropped > 0.0
            assert narrow.tail_bound(pn) >= dropped - 1e-13, base


def test_wiener_product_matches_block_toeplitz_reference() -> None:
    """The stored coefficients of x*y are the leading block column of the
    product of the block Toeplitz representations, a reference that shares
    no code with the batched Cauchy product."""
    rng = np.random.default_rng(61)
    for base in (il.MatrixAlgebra(2), il.ConvolutionAlgebra(10)):
        alg = il.WienerAlgebra(base, 4)
        nb = base.matrix_representation(base.zero()).shape[0]
        for _ in range(10):
            x = alg.random_element(rng)
            y = alg.random_element(rng)
            ref = alg.matrix_representation(x) @ alg.matrix_representation(y)
            xy = x * y
            for k in range(alg.degree + 1):
                got = base.matrix_representation(alg.coefficient(xy, k))
                want = ref[k * nb : (k + 1) * nb, :nb]
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def _dense_cauchy(a: np.ndarray, b: np.ndarray, n_grid: int) -> np.ndarray:
    """All 2D + 1 degrees of the Cauchy product of two convolution
    coefficient arrays, from np.convolve: (f*g)_l = sum_{j<l} f_{l-j-1}
    g_j / N."""
    d, m = len(a) - 1, a.shape[1]
    full = np.zeros((2 * d + 1, m), dtype=complex)
    for i in range(d + 1):
        for j in range(d + 1):
            full[i + j, 1:] += np.convolve(a[i], b[j])[: m - 1] / n_grid
    return full


@pytest.mark.parametrize("n_grid", [8, 16, 32])
def test_series_product_matches_the_dense_untruncated_product(n_grid) -> None:
    """The kept degrees against np.convolve, componentwise to 1e-14 of the
    product of the absolute values; the spill is the norm sum of the
    dropped degrees, rounded up and never below it."""
    conv = il.ConvolutionAlgebra(n_grid)
    rng = np.random.default_rng(97 + n_grid)
    for d in (0, 4, 6, 28):
        alg = il.WienerAlgebra(conv, d)
        for _ in range(3):
            x, y = alg.random_element(rng), alg.random_element(rng)
            a, b = x.payload.coeffs, y.payload.coeffs
            kept, spill = alg._cauchy(a, conv._right_operand(b))
            full = _dense_cauchy(a, b, n_grid)
            scale = _dense_cauchy(np.abs(a), np.abs(b), n_grid)[: d + 1].real
            assert np.all(np.abs(kept - full[: d + 1]) <= 1e-14 * scale), (n_grid, d)
            dropped = float(np.sum(conv._norms(full[d + 1 :])))
            assert spill >= dropped, (n_grid, d)
            assert spill <= dropped * (1.0 + 1e-12), (n_grid, d)
            assert (spill == 0.0) == (d == 0)
            # the element product carries the same coefficients and spill
            xy = (x * y).payload
            assert xy.coeffs.tobytes() == kept.tobytes() and xy.tail == spill


def test_wiener_refuses_bases_without_array_payloads() -> None:
    conv = il.ConvolutionAlgebra(5)
    for base in (
        il.UnitizationAlgebra(conv),
        il.DualAlgebra(il.MatrixAlgebra(2)),
        il.BlockTriangularAlgebra(1, 1),
        il.ProductAlgebra((il.MatrixAlgebra(1),)),
        il.WienerAlgebra(conv, 2),
    ):
        with pytest.raises(ParameterError, match="matrix or convolution base"):
            il.WienerAlgebra(base, 3)


def test_wiener_inverse_certified() -> None:
    base = il.MatrixAlgebra(1)
    alg = il.WienerAlgebra(base, 10)
    f = alg.from_scalar_coeffs([1.0, -0.5])
    fi = f.inverse()
    for k in range(11):
        assert alg.coefficient(fi, k).norm() == pytest.approx(0.5**k, abs=1e-14)
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
    assert (x * xi - alg.one()).norm() <= 1e-13
    assert (xi * x - alg.one()).norm() <= 1e-13
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
        ref = sum((complex(w) * alg.inverse(z * alg.one() - el) for z, w in zip(zs, ws)), alg.zero())
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


def test_unitization_inverse_is_the_negated_resolvent_at_zero() -> None:
    """One Neumann series: a tailed and an exact element, bit for bit."""
    up, f, c, _, _ = _series_resolvent_case(83)
    conv = il.ConvolutionAlgebra(10)
    exact = il.UnitizationAlgebra(conv)
    y = exact.from_parts(conv.random_element(np.random.default_rng(7), 0.3), c)
    for alg, el in ((up, up.from_parts(f, c)), (exact, y)):
        inv = alg.inverse(el)
        ref = -(alg.resolvent_integral(el, [0], [1]))
        rad, ref_rad = alg.radical_part(inv).payload, alg.radical_part(ref).payload
        if alg is up:
            rad, ref_rad = rad.coeffs, ref_rad.coeffs
        assert rad.tobytes() == ref_rad.tobytes(), alg.base.kind
        assert alg.scalar_part(inv) == alg.scalar_part(ref)
        assert alg.tail_bound(inv) == alg.tail_bound(ref)
    assert up.tail_bound(up.inverse(up.from_parts(f, c))) > 0.0
    with pytest.raises(NotInvertible, match="scalar part is zero"):
        up.inverse(up.from_parts(f, 0.0))


def test_certified_tail_does_not_depend_on_batching() -> None:
    """The same nodes certified in one call and in two calls."""
    for seed in (71, 73, 89):
        up, f, c, zs, ws = _series_resolvent_case(seed)
        x = up.from_parts(f, c)
        one = up.tail_bound(up.resolvent_integral(x, zs, ws))
        for cut in (2, 9, 17):
            two = up.resolvent_integral(x, zs[:cut], ws[:cut]) + up.resolvent_integral(
                x, zs[cut:], ws[cut:]
            )
            assert abs(up.tail_bound(two) / one - 1.0) <= 1e-15, (seed, cut)


def test_matrix_resolvent_integral_in_blocks_equals_default_path() -> None:
    alg = il.MatrixAlgebra(16)  # 16 nodes per block of RESOLVENT_BLOCK_BYTES
    rng = np.random.default_rng(79)
    x = alg.random_element(rng, 0.3)
    for k in (1, 16, 50):  # one partial block, one full block, four blocks
        zs = 2.0 * np.exp(2j * np.pi * (np.arange(k) + 0.3) / k)
        ws = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        got = alg.resolvent_integral(x, zs, ws).payload
        batch = np.stack([r.payload for r in alg.resolvent_batch(x, zs)])
        ref = np.sum(ws[:, None, None] * batch, axis=0)
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
    assert (alg.component(both, 0) - a0 * alg.component(y, 0)).norm() == 0.0
    pts = set(x.spectrum().points)
    comp_pts = set(a0.spectrum().points) | set(alg.component(x, 1).spectrum().points)
    assert hausdorff_distance(pts, comp_pts) <= 1e-12


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
        assert hausdorff_distance(gx.spectrum().points, mapped) <= 1e-8


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
        assert hausdorff_distance(
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
            assert (x.adjoint().adjoint() - x).norm() <= 1e-13 * scale, name
            lhs = (x * y).adjoint()
            rhs = y.adjoint() * x.adjoint()
            slack = alg.tail_bound(lhs) + alg.tail_bound(rhs)
            assert (lhs - rhs).norm() <= slack + 1e-12 * max(1.0, x.norm() * y.norm()), name
            assert x.adjoint().norm() <= c * x.norm() * (1 + 1e-12), name


def test_product_involution_is_read_off_its_factors() -> None:
    mat = il.MatrixAlgebra(2)
    block = il.BlockTriangularAlgebra(1, 1)
    conv = il.UnitizationAlgebra(il.ConvolutionAlgebra(4))
    assert il.ProductAlgebra((mat, conv)).involution_bound == 1.0
    assert il.ProductAlgebra((mat, conv)).has_involution
    assert il.ProductAlgebra((mat, block)).involution_bound is None
    assert not il.ProductAlgebra((block, mat)).has_involution


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
    with pytest.raises(ParameterError):
        il.MatrixAlgebra(0)
    with pytest.raises(ParameterError):
        il.ConvolutionAlgebra(1)


def test_linalg_failures_raise_parameter_error() -> None:
    """LAPACK's refusal of non-finite entries surfaces as ParameterError."""
    bad = np.full((4, 4), np.nan, dtype=complex)
    bad[2:, :2] = 0.0
    for alg in (il.MatrixAlgebra(4), il.BlockTriangularAlgebra(2, 2)):
        x = alg.wrap(bad)
        with pytest.raises(ParameterError, match="spectral norm"):
            x.norm()
        with pytest.raises(ParameterError, match="eigenvalues"):
            x.spectrum()


def test_spectral_norm_refuses_infinite_entries(capfd) -> None:
    """Infinite entries raise ParameterError before LAPACK sees them (it
    would return NaN and print a DLASCL message)."""
    x = il.MatrixAlgebra(4).wrap(np.full((4, 4), np.inf, dtype=complex))
    with pytest.raises(ParameterError, match="spectral norm failed: non-finite"):
        x.norm()
    series = il.WienerAlgebra(il.MatrixAlgebra(1), 3)
    f = series.from_scalar_coeffs([1.0, complex(0.0, -np.inf), 0.5])
    with pytest.raises(ParameterError, match="spectral norm failed: non-finite"):
        f.norm()
    assert capfd.readouterr().err == ""


def test_is_radical_reads_nilpotency_index() -> None:
    for name, alg in _kinds().items():
        assert alg.is_radical == (alg.nilpotency_index is not None), name
        assert alg.is_radical == (name == "convolution-discrete"), name
    assert il.WienerAlgebra(il.ConvolutionAlgebra(5), 2).is_radical


def test_algebras_built_twice_compare_and_hash_equal() -> None:
    again = _kinds()
    for name, alg in _kinds().items():
        assert alg is not again[name] and alg == again[name], name
        assert hash(alg) == hash(again[name]), name
    assert len({*_kinds().values(), *again.values()}) == len(again)


def test_kinds_with_equal_fields_compare_unequal() -> None:
    """Equality is per kind: algebras of two kinds never compare equal,
    even where their fields have the same names or the same values."""
    pairs = [
        (il.MatrixAlgebra(4), il.ConvolutionAlgebra(4)),
        (il.DualAlgebra(il.MatrixAlgebra(2)), il.UnitizationAlgebra(il.ConvolutionAlgebra(2))),
    ]
    for a, b in pairs:
        assert a != b and b != a
        assert a.__eq__(b) is NotImplemented
    assert il.MatrixAlgebra(4) != il.MatrixAlgebra(5)
    assert il.MatrixAlgebra(4) != 4


def test_algebra_fields_refuse_assignment() -> None:
    for name, alg in _kinds().items():
        field = alg._fields[0]
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(alg, field, getattr(alg, field))
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(alg, field)
        with pytest.raises(AttributeError):
            alg.extra = 1
    assert il.BlockTriangularAlgebra(2, 3).m == 3


def test_algebra_replace_validates_again() -> None:
    alg = il.WienerAlgebra(il.MatrixAlgebra(1), 4)
    assert alg.replace(degree=2) == il.WienerAlgebra(il.MatrixAlgebra(1), 2)
    assert alg.degree == 4
    with pytest.raises(ParameterError, match="degree"):
        alg.replace(degree=-1)
    with pytest.raises(ParameterError, match="matrix or convolution base"):
        alg.replace(base=il.DualAlgebra(il.MatrixAlgebra(1)))
    assert il.ProductAlgebra([il.MatrixAlgebra(1)]).replace().factors == (il.MatrixAlgebra(1),)


def test_algebra_repr_lists_the_fields() -> None:
    """Each kind prints its fields, and the printout rebuilds an equal algebra."""
    want = {
        "matrix": "MatrixAlgebra(n=3)",
        "dual": "DualAlgebra(base=MatrixAlgebra(n=3))",
        "block-triangular": "BlockTriangularAlgebra(k=2, m=2)",
        "convolution-discrete": "ConvolutionAlgebra(n_grid=10)",
        "wiener-truncated": "WienerAlgebra(base=MatrixAlgebra(n=1), degree=4)",
        "unitization": "UnitizationAlgebra(base=ConvolutionAlgebra(n_grid=10))",
        "product": "ProductAlgebra(factors=(UnitizationAlgebra(base=WienerAlgebra("
        "base=ConvolutionAlgebra(n_grid=10), degree=3)), MatrixAlgebra(n=2)))",
    }
    for name, alg in _kinds().items():
        assert repr(alg) == want[name], name
        assert eval(repr(alg), vars(il)) == alg, name


def test_alg_exp_matches_dense_expm() -> None:
    rng = np.random.default_rng(101)
    alg = il.MatrixAlgebra(4)
    x = alg.random_element(rng, 1.5)
    ex = il.alg_exp(x)
    w, v = np.linalg.eig(x.payload)
    dense = v @ np.diag(np.exp(w)) @ np.linalg.inv(v)
    np.testing.assert_allclose(ex.payload, dense, atol=1e-11)


def test_elements_refuse_assignment_and_deletion() -> None:
    """Deleting a field used to succeed and leave an element whose repr raised."""
    for name, alg in _kinds().items():
        x = alg.zero()
        for field in ("algebra", "payload"):
            with pytest.raises(AttributeError, match="Element is immutable"):
                setattr(x, field, None)
            with pytest.raises(AttributeError, match="Element is immutable"):
                delattr(x, field)
        assert repr(x).startswith(f"Element({alg.kind}, "), name


def test_the_stored_norm_sets_the_tails_aside_factor_by_factor() -> None:
    conv = il.ConvolutionAlgebra(8)
    series = il.WienerAlgebra(conv, 2)
    up = il.UnitizationAlgebra(series)
    mats = il.MatrixAlgebra(2)
    prod = il.ProductAlgebra((up, mats))
    f = np.zeros(conv.shape, dtype=complex)
    f[0] = 8 * 0.125  # a coefficient of norm 0.125
    tailed = up.from_parts(series.from_coeffs([conv.wrap(f)], tail=0.5), -2.0)
    assert up.norm_parts(tailed) == (tailed.norm(), 2.125) == (2.625, 2.125)
    # one factor's tail is no slack on another factor's data
    x = prod.from_components(up.from_parts(series.from_coeffs([], tail=0.5), 0.0), 0.25 * mats.one())
    assert x.norm() == prod.tail_bound(x) == 0.5
    assert prod.norm_parts(x) == (0.5, 0.25)
    rng = np.random.default_rng(7)
    for name, alg in _kinds().items():  # without a tail, the stored norm is the norm
        y = alg.random_element(rng)
        assert alg.norm_parts(y) == (y.norm(), y.norm()), name


def _sampled_spectrum_one_sample_at_a_time(alg, x) -> tuple:
    """The series spectrum as each sample's base spectrum, merged: the
    reference for the one-call form."""
    from idemlift.algebra import _SPECTRUM_ANGLES, _SPECTRUM_CIRCLES, _as_point_tuple

    radii = np.arange(1, _SPECTRUM_CIRCLES + 1) / _SPECTRUM_CIRCLES
    ang = 2.0 * np.pi * np.arange(_SPECTRUM_ANGLES) / _SPECTRUM_ANGLES
    zs = [0j, *(radii[:, None] * np.exp(1j * ang)).ravel().tolist()]
    pts = []
    for val in alg._eval_payload(x.payload, zs):
        pts.extend(alg.base.spectrum(alg.base.wrap(val)).points)
    uniq = []
    for w in _as_point_tuple(pts):
        if not uniq or abs(w - uniq[-1]) > 1e-13:
            uniq.append(w)
    return tuple(uniq)


@pytest.mark.parametrize("base", [il.MatrixAlgebra(1), il.MatrixAlgebra(4), il.ConvolutionAlgebra(6)])
def test_series_spectrum_in_one_call_is_the_per_sample_spectrum(base) -> None:
    alg = il.WienerAlgebra(base, 3)
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = alg.random_element(rng) + (alg.one() if alg.is_unital else alg.zero())
        rep = x.spectrum()
        assert rep.points == _sampled_spectrum_one_sample_at_a_time(alg, x)
        assert not rep.exact
