"""Planar contour geometry: escape rays, Jordan polygons, winding numbers.

Everything here is exact-ish plane geometry with complex numbers; no
quadrature happens in this module.  Polygons are stored as open vertex
loops (closure is implicit) and normalised to counterclockwise
orientation, so a point strictly inside always has winding number +1.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateGeometry, ParameterError, SpectrumContainsZero
from .frozen import Frozen

__all__ = [
    "PolygonalArc",
    "JordanPolygon",
    "circle_polygon",
    "square_polygon",
    "build_escape_arc",
    "build_gamma_pair",
]


def _segment_distance(z: complex, a: complex, b: complex) -> float:
    """Distance from ``z`` to the closed segment ``[a, b]``."""
    d = b - a
    L2 = abs(d) ** 2
    if L2 == 0.0:
        return abs(z - a)
    t = ((z - a).real * d.real + (z - a).imag * d.imag) / L2
    t = min(1.0, max(0.0, t))
    return abs(z - (a + t * d))


def _ray_distance(z: complex, direction: complex) -> float:
    """Distance from ``z`` to the ray ``t*direction, t >= 0``."""
    u = direction / abs(direction)
    t = max(0.0, z.real * u.real + z.imag * u.imag)
    return abs(z - t * u)


def _cross(o: complex, a: complex, b: complex) -> float:
    return (a.real - o.real) * (b.imag - o.imag) - (a.imag - o.imag) * (b.real - o.real)


def _segments_cross(a: complex, b: complex, c: complex, d: complex) -> bool:
    """Proper intersection test for closed segments, tolerant at endpoints.

    Cross products scale like coordinate^2, so sign decisions use a
    relative tolerance; rotated axis-aligned templates otherwise turn
    exact zeros into 1e-16 noise with arbitrary signs.  Segments that
    are collinear within that noise cross only if their shadows on the
    common line genuinely overlap.
    """
    scale = max(abs(a), abs(b), abs(c), abs(d), 1.0)
    tol = 1e-12 * scale * scale
    d1 = _cross(c, d, a)
    d2 = _cross(c, d, b)
    d3 = _cross(a, b, c)
    d4 = _cross(a, b, d)

    def sgn(v: float) -> int:
        if abs(v) <= tol:
            return 0
        return 1 if v > 0 else -1

    s1, s2, s3, s4 = sgn(d1), sgn(d2), sgn(d3), sgn(d4)
    if s1 * s2 < 0 and s3 * s4 < 0:
        return True
    if s1 == s2 == s3 == s4 == 0:
        den = abs(b - a) ** 2
        if den == 0.0:
            return False
        t1 = ((c - a).real * (b - a).real + (c - a).imag * (b - a).imag) / den
        t2 = ((d - a).real * (b - a).real + (d - a).imag * (b - a).imag) / den
        lo, hi = min(t1, t2), max(t1, t2)
        return hi > 1e-9 and lo < 1.0 - 1e-9
    return False


class PolygonalArc(Frozen):
    """Branch cut: the ray from the origin out to infinity in
    ``ray_direction``, normalised to unit length on construction.

    The paper's escape arcs may bend, but a finite or sampled spectrum
    always leaves a ray free, so a ray is all the lifts need.
    """

    __slots__ = ("ray_direction",)

    def __init__(self, ray_direction: complex):
        object.__setattr__(self, "ray_direction", ray_direction)
        self.__post_init__()

    def __post_init__(self) -> None:
        d = complex(self.ray_direction)
        if abs(d) == 0.0:
            raise ParameterError("ray direction must be nonzero")
        object.__setattr__(self, "ray_direction", d / abs(d))

    @property
    def angle(self) -> float:
        """Angle of the ray in (-pi, pi]."""
        return cmath.phase(self.ray_direction)

    def distance_to_point(self, z: complex) -> float:
        return _ray_distance(z, self.ray_direction)

    def distance_to_points(self, pts: Iterable[complex]) -> float:
        ds = [self.distance_to_point(z) for z in pts]
        return min(ds) if ds else math.inf

    def describe(self) -> dict:
        return {"ray_direction": [self.ray_direction.real, self.ray_direction.imag]}


class JordanPolygon(Frozen):
    """Simple closed polygon, normalised to counterclockwise orientation."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: Iterable[complex]):
        object.__setattr__(self, "vertices", vertices)
        self.__post_init__()

    def __post_init__(self) -> None:
        verts = tuple(complex(v) for v in self.vertices)
        if len(verts) < 3:
            raise ParameterError("polygon needs at least three vertices")
        if verts[0] == verts[-1]:
            verts = verts[:-1]
        for u, v in zip(verts, verts[1:] + verts[:1]):
            if u == v:
                raise ParameterError("consecutive polygon vertices must be distinct")
        if _signed_area(verts) < 0:
            verts = verts[::-1]
        object.__setattr__(self, "vertices", verts)
        if not self._is_simple():
            raise ParameterError("polygon is not simple")

    def _is_simple(self) -> bool:
        """No two non-adjacent edges meet, by ``_segments_cross``'s rule.

        All pairs are tested at once with the same relative tolerance and
        sign rule; only the pairs found collinear within that tolerance go
        through ``_segments_cross`` for its overlap test.  Edge ``i`` runs
        from vertex ``i`` to vertex ``i + 1``; the closing edge is adjacent
        to the first, so that pair is skipped like every other adjacent one.
        """
        verts = self.vertices
        n = len(verts)
        i, j = np.triu_indices(n, k=2)
        keep = ~((i == 0) & (j == n - 1))
        i, j = i[keep], j[keep]
        x = np.array([v.real for v in verts])
        y = np.array([v.imag for v in verts])
        mod = np.array([abs(v) for v in verts])  # the builtin abs, as the scalar rule
        nxt = np.roll(np.arange(n), -1)
        a, b, c, d = i, nxt[i], j, nxt[j]
        scale = np.max([mod[a], mod[b], mod[c], mod[d], np.ones(len(a))], axis=0)
        tol = 1e-12 * scale * scale

        def sgn(o, p, q):
            v = (x[p] - x[o]) * (y[q] - y[o]) - (y[p] - y[o]) * (x[q] - x[o])
            return np.where(np.abs(v) <= tol, 0, np.where(v > 0, 1, -1))

        s1, s2, s3, s4 = sgn(c, d, a), sgn(c, d, b), sgn(a, b, c), sgn(a, b, d)
        if np.any((s1 * s2 < 0) & (s3 * s4 < 0)):
            return False
        collinear = np.flatnonzero((s1 == 0) & (s2 == 0) & (s3 == 0) & (s4 == 0))
        return not any(
            _segments_cross(verts[a[k]], verts[b[k]], verts[c[k]], verts[d[k]])
            for k in collinear
        )

    def edges(self) -> list[tuple[complex, complex]]:
        n = len(self.vertices)
        return [(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)]

    @property
    def signed_area(self) -> float:
        return _signed_area(self.vertices)

    @property
    def perimeter(self) -> float:
        return sum(abs(b - a) for a, b in self.edges())

    def winding_number(self, z: complex) -> int:
        """Integer winding number of the (counterclockwise) loop about z."""
        wn = 0
        for a, b in self.edges():
            if a.imag <= z.imag:
                if b.imag > z.imag and _cross(a, b, z) > 0:
                    wn += 1
            else:
                if b.imag <= z.imag and _cross(a, b, z) < 0:
                    wn -= 1
        return wn

    def distance_to_point(self, z: complex) -> float:
        return min(_segment_distance(z, a, b) for a, b in self.edges())

    def distance_to_points(self, pts: Iterable[complex]) -> float:
        ds = [self.distance_to_point(z) for z in pts]
        return min(ds) if ds else math.inf

    def encloses(self, pts: Iterable[complex], margin: float = 0.0) -> bool:
        for z in pts:
            if self.winding_number(z) != 1:
                return False
            if margin > 0.0 and self.distance_to_point(z) < margin:
                return False
        return True

    def mirror_symmetric(self, tol: float = 1e-12) -> bool:
        """True when the vertex set is invariant under complex conjugation."""
        pts = np.asarray(self.vertices)
        for v in pts:
            if np.min(np.abs(pts - np.conj(v))) > tol:
                return False
        return True

    def describe(self) -> dict:
        return {"vertices": [[v.real, v.imag] for v in self.vertices]}


def _signed_area(verts: Sequence[complex]) -> float:
    s = 0.0
    n = len(verts)
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        s += a.real * b.imag - b.real * a.imag
    return 0.5 * s


def circle_polygon(center: complex, radius: float, n: int = 64) -> JordanPolygon:
    """Counterclockwise regular n-gon inscribed in the given circle."""
    if radius <= 0:
        raise ParameterError("circle radius must be positive")
    if n < 8:
        raise ParameterError("circle approximation needs at least 8 vertices")
    verts = tuple(
        complex(center) + radius * cmath.exp(2j * math.pi * k / n) for k in range(n)
    )
    return JordanPolygon(verts)


def square_polygon(center: complex, half_side: float) -> JordanPolygon:
    if half_side <= 0:
        raise ParameterError("square half side must be positive")
    c = complex(center)
    h = half_side
    return JordanPolygon(
        (c + h + 1j * h, c - h + 1j * h, c - h - 1j * h, c + h - 1j * h)
    )


# ---------------------------------------------------------------------------
# escape ray


def _ray_objectives(
    phis: Sequence[float], pts: np.ndarray, angles: np.ndarray
) -> list[tuple[float, float]]:
    """(angular distance, euclidean clearance) from the ray at each angle
    of ``phis`` to the points, in one broadcast; each direction vector
    comes from ``cmath.exp``, so an objective does not depend on which
    other angles share its call."""
    col = np.array(phis)[:, None]
    ang = np.min(np.minimum((col - angles) % (2 * np.pi), (angles - col) % (2 * np.pi)), axis=1)
    us = np.array([cmath.exp(1j * phi) for phi in phis])[:, None]
    t = np.maximum(0.0, pts.real * us.real + pts.imag * us.imag)
    eucl = np.min(np.abs(pts - t * us), axis=1)
    return list(zip(ang.tolist(), eucl.tolist()))


def build_escape_arc(spec) -> PolygonalArc:
    """Ray from the origin to infinity staying clear of a finite spectrum.

    The direction maximises the minimum angular distance to the spectrum
    directions, with euclidean clearance as tie-breaker and the lowest
    angle in [0, 2pi) breaking exact ties.  A 360-direction grid search,
    evaluated in one broadcast, is refined by ternary search around the
    best grid direction.  The search stops at its fixed point: once a
    step leaves the bracket unchanged, every later step of the 200 would
    repeat it.
    """
    pts = np.asarray(getattr(spec, "points", spec), dtype=complex)
    if pts.size == 0:
        return PolygonalArc(-1.0 + 0j)
    if np.min(np.abs(pts)) < 1e-13:
        raise SpectrumContainsZero("spectrum touches the origin; no escape ray exists")
    angles = np.angle(pts)

    phis = [2.0 * math.pi * j / 360.0 for j in range(360)]
    best_phi = 0.0
    best_obj = (-1.0, -1.0)
    for phi, obj in zip(phis, _ray_objectives(phis, pts, angles)):
        if obj[0] > best_obj[0] + 1e-12 or (
            abs(obj[0] - best_obj[0]) <= 1e-12 and obj[1] > best_obj[1] + 1e-12
        ):
            best_obj = obj
            best_phi = phi

    lo = best_phi - 2.0 * math.pi / 360.0
    hi = best_phi + 2.0 * math.pi / 360.0
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        obj1, obj2 = _ray_objectives((m1, m2), pts, angles)
        if obj1 < obj2:
            if m1 == lo:
                break
            lo = m1
        else:
            if m2 == hi:
                break
            hi = m2
    phi = (0.5 * (lo + hi)) % (2.0 * math.pi)
    (refined,) = _ray_objectives((phi,), pts, angles)
    if refined >= best_obj:
        best_phi, best_obj = phi, refined

    if best_obj[1] <= 0.0:
        raise DegenerateGeometry("no ray with positive clearance found")
    return PolygonalArc(cmath.exp(1j * best_phi))


# ---------------------------------------------------------------------------
# gamma polygon around an escape ray


def build_gamma_pair(P: PolygonalArc, eps: float, rho: float) -> JordanPolygon:
    """Closed integration loop around a cut ray: a tube hugging the ray
    joined to an outer square.

    In the frame where the ray points along the positive real axis the
    loop is (R,-e)(0,-e)(-e,0)(0,e)(R,e)(R,R)(-R,R)(-R,-R)(R,-R) with
    R = max(rho + 2*eps, 1/eps); the ray leaves through the gap between
    (R,-e) and (R,e), so the origin and the whole ray stay outside the
    enclosed region while everything else of modulus <= rho + eps and
    clearance > eps from the ray is inside.
    """
    if eps <= 0:
        raise ParameterError("tube half-width must be positive")
    if eps >= rho:
        raise DegenerateGeometry(
            f"tube half-width {eps} is not smaller than the spectral bound {rho}"
        )
    R = max(rho + 2.0 * eps, 1.0 / eps)
    e = eps
    frame = (
        complex(R, -e),
        complex(0, -e),
        complex(-e, 0),
        complex(0, e),
        complex(R, e),
        complex(R, R),
        complex(-R, R),
        complex(-R, -R),
        complex(R, -R),
    )
    u = P.ray_direction
    return JordanPolygon(tuple(u * v for v in frame))
