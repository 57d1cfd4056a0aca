"""Holomorphic functional calculus over polygonal contours.

The three workhorses are plain contour application (Cauchy integrals of
scalar functions against a resolvent), Riesz spectral projections, and
square roots with an explicit branch cut along an escape ray.  Branch
angles are tracked cumulatively along the integration loop, so no
principal-value convention at the cut ever enters; a loop-closure check
guards against a contour that sneaks across the cut.

Quadrature is composite Gauss-Legendre per polygon edge with adaptive
node doubling.  The weighted resolvent sum is formed by the algebra's
``resolvent_integral``; results are deterministic for a fixed version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .algebra import BanachAlgebra, Element, SpectrumReport
from .contours import JordanPolygon, PolygonalArc, circle_polygon
from .errors import (
    DegenerateGeometry,
    ParameterError,
    QuadratureNotConverged,
    SpectrumMeetsCut,
    SpectrumNotEnclosed,
    SpectrumOnContour,
    SpectrumTooLarge,
)

__all__ = [
    "ContourData",
    "QuadratureAudit",
    "contour_apply",
    "spectral_component_apply",
    "riesz_projection",
    "sqrt_cut",
    "sqrt_near_one",
]

QUAD_TOL = 1e-11
QUAD_START_NODES = 16
QUAD_MAX_NODES = 2**14

_BRANCHES = ("none", "cut", "principal-near-positive")


@dataclass(frozen=True)
class ContourData:
    """A polygon plus everything needed to integrate over it reproducibly.

    ``eps`` is the clearance margin the polygon was built with: the
    spectrum the contour is used against must stay at distance >= eps/2
    from the trace.  ``branch`` describes how square roots on the trace
    are to be evaluated: not at all, relative to a cut ray, or as the
    principal branch (used near 1 where it is positive).
    """

    polygon: JordanPolygon
    eps: float
    branch: str = "none"
    cut: PolygonalArc | None = None
    sheet: int = 1
    nodes_per_edge: int = QUAD_START_NODES
    label: str = ""

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise ParameterError("contour margin eps must be positive")
        if self.branch not in _BRANCHES:
            raise ParameterError(f"unknown branch descriptor {self.branch!r}")
        if self.sheet not in (1, -1):
            raise ParameterError("sheet must be +1 or -1")
        if self.branch == "cut":
            if self.cut is None:
                raise ParameterError("cut branch needs the cut arc")
            if not self.cut.is_ray:
                raise ParameterError("branch cuts along bent arcs are not supported")
        if self.nodes_per_edge < 2:
            raise ParameterError("need at least two quadrature nodes per edge")

    def describe(self) -> dict:
        out: dict = {
            "polygon": self.polygon.describe(),
            "eps": self.eps,
            "branch": self.branch,
            "sheet": self.sheet,
            "nodes_per_edge": self.nodes_per_edge,
        }
        if self.cut is not None:
            out["cut"] = self.cut.describe()
        if self.label:
            out["label"] = self.label
        return out


@dataclass(frozen=True)
class QuadratureAudit:
    """Convergence record of one adaptive contour integration."""

    nodes_per_edge: int
    delta: float
    refinements: int

    def describe(self) -> dict:
        return {
            "nodes_per_edge": self.nodes_per_edge,
            "delta": self.delta,
            "refinements": self.refinements,
        }


_PANEL_ORDER = 16


@lru_cache(maxsize=8)
def _panel_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for n points on [-1, 1]: a single Gauss-Legendre
    rule up to the panel order, composite equal panels of that order
    beyond it.  Composite panels keep the cost linear in n, where raising
    the polynomial order would cost leggauss its cubic eigensolve."""
    if n <= _PANEL_ORDER:
        return np.polynomial.legendre.leggauss(n)
    panels, rem = divmod(n, _PANEL_ORDER)
    if rem:
        raise ParameterError("composite node count must be a multiple of the panel order")
    x, w = np.polynomial.legendre.leggauss(_PANEL_ORDER)
    h = 2.0 / panels
    starts = -1.0 + h * np.arange(panels)
    xs = (starts[:, None] + 0.5 * h * (x[None, :] + 1.0)).ravel()
    ws = np.tile(0.5 * h * w, panels)
    return xs, ws


def _loop_nodes(polygon: JordanPolygon, n: int) -> tuple[np.ndarray, np.ndarray]:
    """All quadrature nodes along the loop, in traversal order, with the
    combined weight*dz/2 coefficient for each node."""
    x, w = _panel_rule(n)
    zs = []
    coeffs = []
    for a, b in polygon.edges():
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        zs.append(mid + half * x)
        coeffs.append(w * half)
    return np.concatenate(zs), np.concatenate(coeffs)


def _tracked_angles(zs: np.ndarray, cut_angle: float) -> np.ndarray:
    """Cumulative argument along the node sequence, pinned to the sheet
    (cut_angle - 2pi, cut_angle] at the first node.

    The tracked angles must agree with the closed-form cut-relative
    angle at every node and close up around the loop; a mismatch means
    the path crossed the cut.
    """
    rel = (np.angle(zs) - cut_angle) % (2.0 * math.pi)
    closed_form = cut_angle - 2.0 * math.pi + rel
    steps = np.angle(zs[1:] / zs[:-1])
    tracked = closed_form[0] + np.concatenate(([0.0], np.cumsum(steps)))
    if np.max(np.abs(tracked - closed_form)) > 1e-6:
        raise DegenerateGeometry("integration loop crosses the branch cut")
    closure = np.angle(zs[0] / zs[-1])
    if abs(tracked[-1] + closure - tracked[0]) > 1e-6:
        raise DegenerateGeometry("branch angle fails to close up around the loop")
    return tracked


def _integrate(
    scalar_fn: Callable[[np.ndarray], np.ndarray],
    a: Element,
    cd: ContourData,
) -> tuple[Element, QuadratureAudit]:
    """(1/2pi i) * integral of scalar_fn(z) (z - a)^(-1) dz over the loop,
    with adaptive node doubling."""
    alg: BanachAlgebra = a.algebra
    n = cd.nodes_per_edge
    prev: Element | None = None
    refinements = 0
    while True:
        zs, coeffs = _loop_nodes(cd.polygon, n)
        gv = np.asarray(scalar_fn(zs), dtype=complex)
        weights = gv * coeffs / (2j * math.pi)
        total = alg.resolvent_integral(a, zs, weights)
        if prev is not None:
            gap = total - prev
            # convergence concerns the stored data; carried tail bounds
            # do not shrink with node count and are certified separately
            delta = max(0.0, gap.norm() - alg.tail_bound(gap))
            if delta < QUAD_TOL:
                return total, QuadratureAudit(n, delta, refinements)
        if 2 * n > QUAD_MAX_NODES:
            raise QuadratureNotConverged(
                f"contour integral did not stabilise below {QUAD_TOL} "
                f"at {n} nodes per edge"
            )
        prev = total
        n *= 2
        refinements += 1


def _vectorise(g: Callable) -> Callable[[np.ndarray], np.ndarray]:
    def run(zs: np.ndarray) -> np.ndarray:
        try:
            vals = np.asarray(g(zs), dtype=complex)
            if vals.shape == zs.shape:
                return vals
        except (TypeError, ValueError):
            pass
        return np.asarray([g(z) for z in zs], dtype=complex)

    return run


def _spectrum_points(a: Element) -> SpectrumReport:
    return a.algebra.spectrum(a)


def _check_enclosure(a: Element, cd: ContourData, *, require_inside: bool) -> None:
    rep = _spectrum_points(a)
    for z in rep.points:
        d = cd.polygon.distance_to_point(z)
        if d < 0.5 * cd.eps:
            kind = SpectrumNotEnclosed if require_inside else SpectrumOnContour
            raise kind(f"spectrum point {z:.6g} lies within eps/2 of the contour")
        if require_inside and cd.polygon.winding_number(z) != 1:
            raise SpectrumNotEnclosed(f"spectrum point {z:.6g} is not enclosed")


def contour_apply(
    g: Callable,
    a: Element,
    cd: ContourData,
    audit_sink: list[QuadratureAudit] | None = None,
) -> Element:
    """Functional-calculus image (1/2pi i) * integral g(z)(z-a)^(-1) dz.

    ``g`` must be holomorphic inside the loop and continuous on it; the
    whole spectrum of ``a`` must be strictly inside with clearance eps/2.
    """
    _check_enclosure(a, cd, require_inside=True)
    result, audit = _integrate(_vectorise(g), a, cd)
    if audit_sink is not None:
        audit_sink.append(audit)
    return result


def spectral_component_apply(
    g: Callable,
    a: Element,
    cd: ContourData,
    audit_sink: list[QuadratureAudit] | None = None,
) -> Element:
    """Like :func:`contour_apply`, but the loop may enclose only part of
    the spectrum (the rest must stay clear of the trace): the integral
    picks out g applied to the enclosed spectral component."""
    _check_enclosure(a, cd, require_inside=False)
    result, audit = _integrate(_vectorise(g), a, cd)
    if audit_sink is not None:
        audit_sink.append(audit)
    return result


def riesz_projection(
    a: Element,
    cd: ContourData,
    audit_sink: list[QuadratureAudit] | None = None,
) -> Element:
    """Spectral projection of ``a`` onto the part of the spectrum inside
    the loop.  The contour must separate the spectrum: every point stays
    at distance >= eps/2, inside or outside."""
    _check_enclosure(a, cd, require_inside=False)
    result, audit = _integrate(lambda zs: np.ones_like(zs), a, cd)
    if audit_sink is not None:
        audit_sink.append(audit)
    return result


def sqrt_cut(
    x: Element,
    cut: PolygonalArc,
    cd: ContourData,
    sheet: int | None = None,
    audit_sink: list[QuadratureAudit] | None = None,
) -> Element:
    """Square root of ``x`` with the branch cut placed along ``cut``.

    The branch of sqrt is exp(log/2) with the argument tracked
    continuously along the loop relative to the cut ray; ``sheet`` = -1
    negates the principal sheet globally.
    """
    if not cut.is_ray:
        raise ParameterError("branch cuts along bent arcs are not supported")
    if sheet is None:
        sheet = cd.sheet
    if sheet not in (1, -1):
        raise ParameterError("sheet must be +1 or -1")
    rep = _spectrum_points(x)
    clearance = min((cut.distance_to_point(z) for z in rep.points), default=math.inf)
    if clearance <= cd.eps:
        raise SpectrumMeetsCut(
            f"spectrum clearance {clearance:.3g} from the cut is within eps={cd.eps:.3g}"
        )
    for z in rep.points:
        if cd.polygon.winding_number(z) != 1:
            raise SpectrumNotEnclosed(f"spectrum point {z:.6g} is not enclosed")
        if cd.polygon.distance_to_point(z) < 0.5 * cd.eps:
            raise SpectrumOnContour(
                f"spectrum point {z:.6g} lies within eps/2 of the contour"
            )
    alpha = cut.angle

    def branch_sqrt(zs: np.ndarray) -> np.ndarray:
        theta = _tracked_angles(zs, alpha)
        return sheet * np.sqrt(np.abs(zs)) * np.exp(0.5j * theta)

    result, audit = _integrate(branch_sqrt, x, cd)
    if audit_sink is not None:
        audit_sink.append(audit)
    return result


@lru_cache(maxsize=1)
def _near_one_contour() -> ContourData:
    """The circle |z| = 1/2 of ``sqrt_near_one``, built on first use."""
    return ContourData(
        polygon=circle_polygon(0j, 0.5),
        eps=1.0 / 3.0,
        branch="principal-near-positive",
        label="sqrt-near-one",
    )


def sqrt_near_one(
    y: Element,
    audit_sink: list[QuadratureAudit] | None = None,
) -> Element:
    """Solve w**2 + w + y/4 = 0 by w = -1/2 + (1/2) sqrt(1 - y), computed
    as a Cauchy integral over the circle |z| = 1/2 with the principal
    (positive near 1) branch of sqrt(1 - z).

    Requires a unital algebra and a spectrum inside |z| < 1/3, which
    keeps 1 - z away from the negative reals on and inside the circle.
    """
    alg = y.algebra
    if not alg.is_unital:
        raise ParameterError("square root near one needs a unital algebra")
    rep = _spectrum_points(y)
    if rep.points and rep.radius >= 1.0 / 3.0:
        raise SpectrumTooLarge(
            f"spectral radius {rep.radius:.6g} is not inside the disc of radius 1/3"
        )
    result, audit = _integrate(lambda zs: np.sqrt(1.0 - zs), y, _near_one_contour())
    if audit_sink is not None:
        audit_sink.append(audit)
    return 0.5 * result - 0.5 * alg.one()
