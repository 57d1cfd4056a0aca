import cmath
import math

import numpy as np
import pytest

from oracles import polygon_is_simple_pairwise

from idemlift import contours
from idemlift.algebra import SpectrumReport
from idemlift.contours import (
    JordanPolygon,
    PolygonalArc,
    build_escape_arc,
    build_gamma_pair,
    circle_polygon,
    square_polygon,
)
from idemlift.errors import DegenerateGeometry, ParameterError, SpectrumContainsZero


def test_escape_ray_single_point_is_antipodal() -> None:
    arc = build_escape_arc(SpectrumReport((1 + 0j,), True))
    assert abs(arc.ray_direction - (-1 + 0j)) <= 1e-9
    assert arc.distance_to_point(1 + 0j) == pytest.approx(1.0, abs=1e-12)


def test_escape_ray_symmetric_pair_breaks_tie_low_angle() -> None:
    arc = build_escape_arc(SpectrumReport((-1 + 0j, 1 + 0j), True))
    assert abs(arc.ray_direction - 1j) <= 1e-9
    assert arc.distance_to_points([-1, 1]) == pytest.approx(1.0, abs=1e-12)


def test_escape_ray_clustered_spectrum() -> None:
    pts = (1 + 0.1j, 1 - 0.1j, 2 + 0j)
    arc = build_escape_arc(SpectrumReport(pts, True))
    margin = arc.distance_to_points(pts)
    assert margin > 0
    # no direction on a fine sweep beats the chosen one by more than roundoff
    best = max(
        min(
            abs(p - max(0.0, (p * cmath.exp(-1j * phi)).real) * cmath.exp(1j * phi))
            for p in pts
        )
        for phi in np.linspace(0, 2 * math.pi, 2000, endpoint=False)
    )
    assert margin >= best - 1e-6


def test_escape_ray_rejects_spectrum_through_zero() -> None:
    with pytest.raises(SpectrumContainsZero):
        build_escape_arc(SpectrumReport((0j, 1 + 0j), True))


def test_gamma_template_vertices() -> None:
    """eps=1/3, rho=1 puts the outer square at R=3 with the documented
    tube vertices, up to orientation normalisation."""
    arc = PolygonalArc(-1 + 0j)
    poly = build_gamma_pair(arc, 1 / 3, 1.0)
    e, R = 1 / 3, 3.0
    frame = [
        R - 1j * e, -1j * e, -e + 0j, 1j * e, R + 1j * e,
        R + 1j * R, -R + 1j * R, -R - 1j * R, R - 1j * R,
    ]
    expected = {-v for v in frame}
    got = set(poly.vertices)
    assert len(got) == len(expected)
    for v in expected:
        assert min(abs(v - u) for u in got) <= 1e-12


def test_gamma_encloses_spectrum_not_ray() -> None:
    arc = PolygonalArc(-1 + 0j)
    poly = build_gamma_pair(arc, 1 / 3, 1.0)
    assert poly.winding_number(1 + 0j) == 1
    assert poly.winding_number(0j) == 0
    assert poly.winding_number(-2 + 0j) == 0  # on the far side of the cut
    assert poly.winding_number(5 + 0j) == 0
    assert poly.distance_to_point(1 + 0j) == pytest.approx(2 / 3, abs=1e-12)
    # everything of modulus <= rho + eps and clearance > eps from the ray
    rng = np.random.default_rng(1)
    for _ in range(300):
        z = complex(*rng.uniform(-4 / 3, 4 / 3, 2))
        if abs(z) <= 4 / 3 and arc.distance_to_point(z) > 1 / 3 + 1e-9:
            assert poly.winding_number(z) == 1, z


def test_gamma_mirrored_example_encloses_one() -> None:
    arc = PolygonalArc(-1 + 0j)
    poly = build_gamma_pair(arc, 0.1, 2.0)
    assert poly.winding_number(1 + 0j) == 1
    for z in (1 + 0.3j, 1 - 0.3j, 0.7 + 0j, 1.3 + 0j):
        assert poly.winding_number(z) == 1


def test_gamma_rejects_degenerate_margin() -> None:
    arc = PolygonalArc(1j)
    with pytest.raises(DegenerateGeometry):
        build_gamma_pair(arc, 1.0, 0.5)
    with pytest.raises(ParameterError):
        build_gamma_pair(arc, 0.0, 1.0)


def test_polygon_normalises_to_counterclockwise() -> None:
    cw = JordanPolygon((0j, 1j, 1 + 1j, 1 + 0j))
    assert cw.vertices == (1 + 0j, 1 + 1j, 1j, 0j)
    assert cw.winding_number(0.5 + 0.5j) == 1


def test_polygon_rejects_self_intersection() -> None:
    with pytest.raises(ParameterError):
        JordanPolygon((0j, 1 + 1j, 1 + 0j, 0 + 1j))


def test_polygon_rejects_repeated_vertex() -> None:
    with pytest.raises(ParameterError):
        JordanPolygon((0j, 0j, 1 + 1j))


def test_polygon_refuses_a_non_finite_vertex() -> None:
    for bad in (complex("nan"), complex("inf"), complex(1, math.inf)):
        with pytest.raises(ParameterError):
            JordanPolygon((0j, 1 + 0j, bad))


def test_ray_refuses_a_non_finite_direction() -> None:
    for bad in (complex("nan"), complex("inf"), complex(1, math.nan)):
        with pytest.raises(ParameterError):
            PolygonalArc(bad)


def test_circle_polygon_refuses_a_non_finite_centre_or_radius() -> None:
    bad = ((math.nan, 1.0), (complex(0, math.inf), 1.0), (0j, math.nan), (0j, math.inf))
    for center, radius in bad:
        with pytest.raises(ParameterError):
            circle_polygon(center, radius)


def test_circle_polygon_refuses_a_non_integer_vertex_count() -> None:
    """8.5 and NaN passed the size check and failed in ``range`` with an
    untyped TypeError."""
    for n in (8.5, math.nan, 16.0):
        with pytest.raises(ParameterError, match="must be an integer"):
            circle_polygon(0j, 1.0, n=n)
    assert len(circle_polygon(0j, 1.0, n=np.int64(9)).vertices) == 9


def test_circle_polygon_is_built_once_per_circle() -> None:
    """Equal calls share one immutable polygon, built and tested for
    simplicity once; the cache does not let a refused vertex count
    through on its integer twin's entry."""
    ring = circle_polygon(1 + 0j, 0.45)
    assert circle_polygon(1, 0.45, 64) is ring
    assert circle_polygon(1 + 0j, 0.45, n=np.int64(64)) is ring
    assert circle_polygon(1 + 0j, 0.45, n=32) is not ring
    with pytest.raises(ParameterError, match="must be an integer"):
        circle_polygon(1 + 0j, 0.45, n=64.0)


def test_square_polygon_refuses_a_non_finite_centre_or_half_side() -> None:
    bad = ((math.nan, 1.0), (complex(math.inf, 0), 1.0), (0j, math.nan), (0j, math.inf))
    for center, half in bad:
        with pytest.raises(ParameterError):
            square_polygon(center, half)


def test_circle_polygon_geometry() -> None:
    c = circle_polygon(1 + 2j, 0.5)
    assert len(c.vertices) == 64
    assert all(abs(abs(v - (1 + 2j)) - 0.5) <= 1e-14 for v in c.vertices)
    assert c.winding_number(1 + 2j) == 1
    assert c.winding_number(1.7 + 2j) == 0
    assert sum(abs(b - a) for a, b in c.edges()) == pytest.approx(2 * math.pi * 0.5, rel=1e-3)


def test_square_polygon_symmetry_and_margin() -> None:
    sq = square_polygon(1.0, 1 / 3)
    assert {v.conjugate() for v in sq.vertices} == set(sq.vertices)  # mirror-symmetric
    assert sq.encloses([1 + 0j], margin=0.3)
    assert not sq.encloses([1 + 0j], margin=0.34)
    assert not sq.encloses([2 + 0j])


def test_ray_normalises_its_direction() -> None:
    assert PolygonalArc(2j).ray_direction == 1j
    with pytest.raises(ParameterError):
        PolygonalArc(0j)


def test_describe_serialisation() -> None:
    arc = PolygonalArc(1j)
    assert arc.describe() == {"ray_direction": [0.0, 1.0]}
    sq = square_polygon(0j, 1.0)
    desc = sq.describe()
    assert sorted(map(tuple, desc["vertices"])) == [
        (-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0),
    ]


def _simple(verts) -> bool:
    """``JordanPolygon._is_simple`` on the vertex loop as given, without
    the constructor's orientation and simplicity checks."""
    poly = object.__new__(JordanPolygon)
    object.__setattr__(poly, "vertices", tuple(complex(v) for v in verts))
    return poly._is_simple()


def _agrees(verts) -> bool:
    got = _simple(verts)
    assert got == polygon_is_simple_pairwise(tuple(complex(v) for v in verts)), verts
    return got


def test_polygon_simplicity_agrees_with_pairwise_loop_on_special_cases() -> None:
    assert not _agrees((0j, 1 + 1j, 1 + 0j, 1j))  # bow-tie
    # a vertex touching a non-adjacent edge counts as no crossing
    assert _agrees((0j, 4 + 0j, 4 + 4j, 2 + 0j, 4j))
    # collinear edges 0->3 and 2->1 overlap
    assert not _agrees((0j, 3 + 0j, 3 + 1j, 2 + 1j, 2 + 0j, 1 + 0j, 1 - 1j, -1j))
    # collinear edges that only meet at an endpoint, or not at all
    assert _agrees((0j, 1 + 0j, 1 + 1j, 3 + 1j, 3 + 0j, 2 + 0j, 2 - 1j, -1j))
    # the closing edge folds back over the first: adjacent, so not tested
    assert _agrees((0j, 2 + 0j, 1 + 1j, 1 + 0j))
    assert _agrees((0j, 1 + 0j, 1 + 1j))


def test_polygon_simplicity_agrees_on_rotated_gamma_templates() -> None:
    """Rotation turns the template's exact zeros into 1e-16 cross-product
    noise; the collinear outer edges x = R must still not cross."""
    for k in range(360):
        ray = PolygonalArc(cmath.exp(2j * math.pi * k / 360.0))
        for eps, rho in ((0.1, 1.0), (0.3, 0.5), (1e-3, 2.0)):
            verts = build_gamma_pair(ray, eps, rho).vertices
            assert _agrees(verts), (k, eps)


def test_polygon_simplicity_agrees_on_random_star_polygons() -> None:
    rng = np.random.default_rng(19)
    outcomes = set()
    for _ in range(300):
        n = int(rng.integers(3, 40))
        theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        verts = rng.uniform(0.2, 3.0, n) * np.exp(1j * theta) + complex(*rng.normal(size=2))
        if rng.uniform() < 0.5:  # a shuffled loop usually crosses itself
            verts = rng.permutation(verts)
        outcomes.add(_agrees(verts))
    assert outcomes == {True, False}


def _escape_direction(pts) -> complex:
    return build_escape_arc(SpectrumReport(tuple(complex(p) for p in pts), True)).ray_direction


def _angular_clearance(u: complex, pts) -> float:
    return float(np.min(np.abs(np.angle(np.asarray(pts) / u))))


def _directions(pts) -> np.ndarray:
    return np.sort(np.angle(pts) % (2 * np.pi))


def _widest_gap(pts) -> float:
    ang = _directions(pts)
    return float(np.max(np.diff(np.append(ang, ang[0] + 2 * np.pi))))


def test_escape_ray_bisects_the_widest_gap_of_random_spectra() -> None:
    """The ray's angular clearance is half the widest gap, and on every
    eighth spectrum no direction of a fine scan beats it by more than the
    scan's step."""
    rng = np.random.default_rng(23)
    phis = 2 * np.pi * np.arange(2**16) / 2**16
    for k in range(2000):
        n = int(rng.integers(1, 9))
        pts = rng.uniform(0.05, 3.0, n) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
        got = _angular_clearance(_escape_direction(pts), pts)
        assert abs(got - 0.5 * _widest_gap(pts)) <= 1e-12, pts
        if k % 8 == 0:  # distance from each scan direction to its two neighbours
            ang = _directions(pts)
            ring = np.concatenate(([ang[-1] - 2 * np.pi], ang, [ang[0] + 2 * np.pi]))
            i = np.searchsorted(ring, phis)
            scan = np.max(np.minimum(phis - ring[i - 1], ring[i] - phis))
            assert scan <= got + 2 * np.pi / 2**16, pts


def test_escape_ray_takes_the_wider_of_two_near_tied_gaps() -> None:
    """Gaps of 121.67 and 121.50 degrees (a spectrum drawn with seed 5): a
    one-degree scan settles on the narrower one, the bisector does not."""
    pts = (
        -2.5377650139802372 - 1.4851506675824082j,
        0.7412741472551774 - 0.39691438450462435j,
        0.03297322432331931 + 1.4194197064147362j,
    )
    lo, hi = np.angle(pts[2]), np.angle(pts[0]) % (2 * np.pi)
    u = _escape_direction(pts)
    assert abs(u - cmath.exp(0.5j * (lo + hi))) <= 1e-12
    assert _angular_clearance(u, pts) == pytest.approx(0.5 * _widest_gap(pts), abs=1e-12)


def test_escape_ray_breaks_angular_ties_by_clearance_then_lowest_angle() -> None:
    spectra = [(np.exp(2j * np.pi * np.arange(k) / k), math.pi / k) for k in range(1, 13)]
    spectra += [
        ([1 + 1j, 1 - 1j], math.pi),
        ([-2 + 0.5j, -2 - 0.5j], 0.0),
        ([0.3 - 4j, 0.3 + 4j], math.pi),
        ([1j, -1j], 0.0),
        ([1.0, -1.0], 0.5 * math.pi),
        ([2.0, 1 + 1j, 1 - 1j], math.pi),
        ([0.5, -0.5, 0.5j, -0.5j], 0.25 * math.pi),
        # three gaps of 120 degrees; the bisector between the far points is clearest
        ([1.0, 2 * cmath.exp(2j * math.pi / 3), 3 * cmath.exp(4j * math.pi / 3)], math.pi),
    ]
    for pts, phi in spectra:
        assert abs(_escape_direction(pts) - cmath.exp(1j * phi)) <= 1e-12, pts


def test_escape_ray_refuses_a_non_finite_spectrum() -> None:
    with pytest.raises(DegenerateGeometry):
        build_escape_arc([1.0, complex("nan")])


def test_escape_ray_of_an_empty_spectrum_is_the_negative_axis() -> None:
    assert build_escape_arc(SpectrumReport((), True)).ray_direction == -1


# -- the point queries work on edge arrays; each distance and winding
# number is the scalar rules' arithmetic, bit for bit


def _segment_distance(z: complex, a: complex, b: complex) -> float:
    """The scalar rule: distance from ``z`` to the closed segment [a, b]."""
    d = b - a
    L2 = abs(d) ** 2
    if L2 == 0.0:
        return abs(z - a)
    t = ((z - a).real * d.real + (z - a).imag * d.imag) / L2
    t = min(1.0, max(0.0, t))
    return abs(z - (a + t * d))


def _winding_number(poly: JordanPolygon, z: complex) -> int:
    """The scalar rule: crossings of z's horizontal, sided by ``_cross``."""
    wn = 0
    for a, b in poly.edges():
        if a.imag <= z.imag:
            if b.imag > z.imag and contours._cross(a, b, z) > 0:
                wn += 1
        elif b.imag <= z.imag and contours._cross(a, b, z) < 0:
            wn -= 1
    return wn


def _query_cases(seed: int):
    """Polygons with random points, their vertices and points on their edges."""
    rng = np.random.default_rng(seed)
    spec = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    arc = build_escape_arc(spec)
    polys = [
        build_gamma_pair(arc, 0.05 + rng.uniform(), 3.0),
        circle_polygon(complex(*rng.standard_normal(2)), rng.uniform(0.1, 3.0), int(rng.integers(8, 70))),
        square_polygon(0.5j, 1.0),
    ]
    for poly in polys:
        pts = list(3.0 * (rng.standard_normal(30) + 1j * rng.standard_normal(30)))
        pts += list(poly.vertices)
        pts += [a + rng.uniform() * (b - a) for a, b in poly.edges()]
        pts += [0.5 * (a + b) for a, b in poly.edges()]
        yield arc, poly, pts


@pytest.mark.parametrize("seed", range(8))
def test_polygon_point_queries_equal_the_scalar_rules_bit_for_bit(seed) -> None:
    for arc, poly, pts in _query_cases(seed):
        dists = [min(_segment_distance(z, a, b) for a, b in poly.edges()) for z in pts]
        winds = [_winding_number(poly, z) for z in pts]
        assert [poly.distance_to_point(z) for z in pts] == dists
        assert [poly.winding_number(z) for z in pts] == winds
        assert poly.distance_to_points(pts) == min(dists)
        assert 0.0 in dists and 0 in winds and 1 in winds  # vertices and edges are met
        inside = [z for z, w in zip(pts, winds) if w == 1]
        margin = 0.5 * max(d for d, w in zip(dists, winds) if w == 1)
        assert poly.encloses(inside) and not poly.encloses(pts)
        far = [z for z, d, w in zip(pts, dists, winds) if w == 1 and d >= margin]
        assert poly.encloses(far, margin) and not poly.encloses(inside, margin)
        rays = [contours._ray_distance(z, arc.ray_direction) for z in pts]
        assert [arc.distance_to_point(z) for z in pts] == rays
        assert arc.distance_to_points(pts) == min(rays)


def test_point_queries_of_no_points() -> None:
    poly = square_polygon(0j, 1.0)
    assert poly.distance_to_points([]) == math.inf and poly.encloses([], margin=0.5)
    assert PolygonalArc(1.0).distance_to_points([]) == math.inf
