import cmath
import math

import numpy as np
import pytest

from oracles import escape_direction_scalar, polygon_is_simple_pairwise

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
    assert cw.signed_area > 0
    assert cw.winding_number(0.5 + 0.5j) == 1


def test_polygon_rejects_self_intersection() -> None:
    with pytest.raises(ParameterError):
        JordanPolygon((0j, 1 + 1j, 1 + 0j, 0 + 1j))


def test_polygon_rejects_repeated_vertex() -> None:
    with pytest.raises(ParameterError):
        JordanPolygon((0j, 0j, 1 + 1j))


def test_circle_polygon_geometry() -> None:
    c = circle_polygon(1 + 2j, 0.5)
    assert len(c.vertices) == 64
    assert all(abs(abs(v - (1 + 2j)) - 0.5) <= 1e-14 for v in c.vertices)
    assert c.winding_number(1 + 2j) == 1
    assert c.winding_number(1.7 + 2j) == 0
    assert c.perimeter == pytest.approx(2 * math.pi * 0.5, rel=1e-3)


def test_square_polygon_symmetry_and_margin() -> None:
    sq = square_polygon(1.0, 1 / 3)
    assert sq.mirror_symmetric()
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


def _same_bits(a: complex, b: complex) -> bool:
    return np.array([a]).tobytes() == np.array([b]).tobytes()


def test_escape_ray_matches_scalar_scan_bit_for_bit() -> None:
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        pts = rng.uniform(0.05, 3.0, n) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
        ref = PolygonalArc(escape_direction_scalar(pts)).ray_direction
        assert _same_bits(_escape_direction(pts), ref), pts


def test_escape_ray_matches_scalar_scan_on_exact_ties() -> None:
    spectra = [np.exp(2j * np.pi * np.arange(k) / k) for k in range(1, 13)]
    spectra += [[z, z.conjugate()] for z in (1 + 1j, -2 + 0.5j, 0.3 - 4j, 1j)]
    spectra += [[1.0, -1.0], [1j, -1j], [2.0, 1 + 1j, 1 - 1j], [0.5, -0.5, 0.5j, -0.5j]]
    for pts in spectra:
        pts = np.asarray(pts, dtype=complex)
        ref = PolygonalArc(escape_direction_scalar(pts)).ray_direction
        assert _same_bits(_escape_direction(pts), ref), pts
