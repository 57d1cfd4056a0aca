"""Planar contour geometry: escape rays, Jordan polygons, winding numbers.

Everything here is exact-ish plane geometry with complex numbers; no
quadrature happens in this module.  Polygons are stored as open vertex
loops (closure is implicit) and normalised to counterclockwise
orientation, so a point strictly inside always has winding number +1.
The escape ray of a finite spectrum is found in closed form: it bisects
the widest gap between the spectrum's directions, which is the ray that
keeps the largest angle to every spectral point.  Every constructor
refuses non-finite input with ``ParameterError``.  Point queries
(distances, winding numbers, enclosure) take all points and edges at
once, on edge arrays built once per polygon, with the scalar rules'
arithmetic, so they give the same bits as a loop over edges would.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
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


@functools.lru_cache(maxsize=256)
def _edge_arrays(vertices: tuple[complex, ...]) -> tuple[np.ndarray, ...]:
    """The edges of the closed loop through ``vertices``, edge ``i`` from
    vertex ``a`` = ``i`` to ``b`` = ``i + 1``, as arrays: ``a.real``,
    ``a.imag``, ``b.imag``, ``d.real``, ``d.imag`` for ``d = b - a``, and
    ``abs(d) ** 2``, each formed as the scalar rules form it.  Built once
    per polygon: the cache is keyed on its vertices."""
    a = np.array(vertices, dtype=complex)
    d = np.roll(a, -1) - a
    length2 = np.array([abs(w) ** 2 for w in d.tolist()])
    return a.real, a.imag, np.roll(a.imag, -1), d.real, d.imag, length2


def _points(pts: Iterable[complex]) -> np.ndarray:
    return np.array([complex(z) for z in pts], dtype=complex)


def _segment_distances(zs: np.ndarray, vertices: tuple[complex, ...]) -> np.ndarray:
    """Distance from each point of ``zs`` to each closed edge of the loop
    through ``vertices``, points along the first axis.  Per pair it is the
    scalar rule's arithmetic: the clamped projection parameter ``t`` of
    ``z - a`` on ``d``, then ``abs(z - (a + t*d))`` as ``hypot``; a
    zero-length edge gives ``abs(z - a)``."""
    ar, ai, _, dr, di, length2 = _edge_arrays(vertices)
    zr, zi = zs.real[:, None], zs.imag[:, None]
    ur, ui = zr - ar, zi - ai
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (ur * dr + ui * di) / length2
    t = np.where(t > 0.0, t, 0.0)  # max(0.0, t), NaN to 0.0 as max does
    t = np.where(t < 1.0, t, 1.0)  # min(1.0, t)
    dist = np.hypot(zr - (ar + t * dr), zi - (ai + t * di))
    return np.where(length2 == 0.0, np.hypot(ur, ui), dist)


def _winding_numbers(zs: np.ndarray, vertices: tuple[complex, ...]) -> np.ndarray:
    """Winding number of the loop through ``vertices`` about each point of
    ``zs``: an edge crossing the point's horizontal upwards with the point
    on its left counts +1, downwards with the point on its right -1, the
    sides decided by ``_cross(a, b, z)``'s arithmetic."""
    ar, ai, bi, dr, di, _ = _edge_arrays(vertices)
    zr, zi = zs.real[:, None], zs.imag[:, None]
    cross = dr * (zi - ai) - di * (zr - ar)
    up = (ai <= zi) & (bi > zi) & (cross > 0)
    down = (ai > zi) & (bi <= zi) & (cross < 0)
    return up.sum(axis=1) - down.sum(axis=1)


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

    def __post_init__(self) -> None:
        d = complex(self.ray_direction)
        if abs(d) == 0.0 or not cmath.isfinite(d):
            raise ParameterError("ray direction must be finite and nonzero")
        object.__setattr__(self, "ray_direction", d / abs(d))

    @property
    def angle(self) -> float:
        """Angle of the ray in (-pi, pi]."""
        return cmath.phase(self.ray_direction)

    def _distances(self, zs: np.ndarray) -> np.ndarray:
        """``_ray_distance`` to each point of ``zs``, with its arithmetic."""
        u = self.ray_direction / abs(self.ray_direction)
        t = zs.real * u.real + zs.imag * u.imag
        t = np.where(t > 0.0, t, 0.0)  # max(0.0, t)
        return np.hypot(zs.real - t * u.real, zs.imag - t * u.imag)

    def distance_to_point(self, z: complex) -> float:
        return self.distance_to_points([z])

    def distance_to_points(self, pts: Iterable[complex]) -> float:
        zs = _points(pts)
        return float(self._distances(zs).min()) if len(zs) else math.inf

    def describe(self) -> dict:
        return {"ray_direction": [self.ray_direction.real, self.ray_direction.imag]}


class JordanPolygon(Frozen):
    """Simple closed polygon, normalised to counterclockwise orientation."""

    __slots__ = ("vertices",)

    def __post_init__(self) -> None:
        verts = tuple(complex(v) for v in self.vertices)
        if len(verts) < 3:
            raise ParameterError("polygon needs at least three vertices")
        if not all(map(cmath.isfinite, verts)):
            raise ParameterError("polygon vertices must be finite")
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

    def winding_number(self, z: complex) -> int:
        """Integer winding number of the (counterclockwise) loop about z."""
        return int(_winding_numbers(_points([z]), self.vertices)[0])

    def distance_to_point(self, z: complex) -> float:
        return self.distance_to_points([z])

    def distance_to_points(self, pts: Iterable[complex]) -> float:
        zs = _points(pts)
        return float(_segment_distances(zs, self.vertices).min()) if len(zs) else math.inf

    def encloses(self, pts: Iterable[complex], margin: float = 0.0) -> bool:
        """Every point has winding number 1 and, for a positive margin, is
        not nearer the loop than ``margin``."""
        zs = _points(pts)
        if not (_winding_numbers(zs, self.vertices) == 1).all():
            return False
        if margin > 0.0 and len(zs):
            return not (_segment_distances(zs, self.vertices).min(axis=1) < margin).any()
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
    """Counterclockwise regular n-gon inscribed in the given circle; ``n``
    is an integer of at least 8."""
    if not 0 < radius < math.inf:
        raise ParameterError("circle radius must be positive and finite")
    if not isinstance(n, numbers.Integral):
        raise ParameterError(f"circle vertex count must be an integer, got {n!r}")
    if n < 8:
        raise ParameterError("circle approximation needs at least 8 vertices")
    return _regular_polygon(complex(center), radius, int(n))


@functools.lru_cache(maxsize=256)
def _regular_polygon(center: complex, radius: float, n: int) -> JordanPolygon:
    """Built and tested for simplicity once per circle; callers share it."""
    return JordanPolygon(tuple(center + radius * cmath.exp(2j * math.pi * k / n) for k in range(n)))


def square_polygon(center: complex, half_side: float) -> JordanPolygon:
    if not 0 < half_side < math.inf:
        raise ParameterError("square half side must be positive and finite")
    c = complex(center)
    h = half_side
    return JordanPolygon(
        (c + h + 1j * h, c - h + 1j * h, c - h - 1j * h, c + h - 1j * h)
    )


# ---------------------------------------------------------------------------
# escape ray


def build_escape_arc(spec) -> PolygonalArc:
    """Ray from the origin to infinity staying clear of a finite spectrum.

    The direction maximises the minimum angular distance to the spectrum
    directions, so it bisects the widest gap between neighbouring
    directions in [0, 2pi) (the last gap wraps round to the first
    direction).  Gaps within 2e-12 of the widest tie; among their
    bisectors the largest euclidean clearance (within 1e-12) wins, then
    the lowest angle.  An empty spectrum gets the negative real axis.
    """
    pts = np.asarray(getattr(spec, "points", spec), dtype=complex)
    if pts.size == 0:
        return PolygonalArc(-1.0 + 0j)
    mods = np.abs(pts)
    if np.min(mods) < 1e-13:
        raise SpectrumContainsZero("spectrum touches the origin; no escape ray exists")
    if not np.isfinite(mods).all():
        raise DegenerateGeometry("spectrum has a non-finite point; no ray with positive clearance")
    two_pi = 2.0 * math.pi
    pts = pts.tolist()
    angles = sorted(cmath.phase(z) % two_pi for z in pts)
    gaps = [b - a for a, b in zip(angles, angles[1:] + [angles[0] + two_pi])]
    widest = max(gaps)
    rays = [(a + 0.5 * g) % two_pi for a, g in zip(angles, gaps) if g >= widest - 2e-12]
    clear = [min(_ray_distance(z, cmath.exp(1j * phi)) for z in pts) for phi in rays]
    top = max(clear)
    phi = min(phi for phi, c in zip(rays, clear) if c >= top - 1e-12)
    return PolygonalArc(cmath.exp(1j * phi))


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
