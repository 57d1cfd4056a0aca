"""Holomorphic functional calculus over polygonal contours.

The three workhorses are plain contour application (Cauchy integrals of
scalar functions against a resolvent), Riesz spectral projections, and
square roots with an explicit branch cut along an escape ray.  Branch
angles are tracked cumulatively along the integration loop, so no
principal-value convention at the cut ever enters; a loop-closure check
guards against a contour that sneaks across the cut.

Quadrature doubles its node count until two passes agree.  Polygons
use composite Gauss-Legendre per edge, and each doubling starts over.
The fixed circle |z| = 1/2 of ``sqrt_near_one`` uses the periodic
trapezoid rule, which converges geometrically; each doubling keeps half
of the previous sum and evaluates only the new midpoint nodes.  The
weighted resolvent sum is formed by the algebra's resolvent kernel: an
integral asks for it once (``resolvent_kernel``), so the work that does
not depend on the nodes, such as the unitization's table of powers, is
done once per integral and not once per pass.  Results are deterministic
for a fixed version.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .algebra import BanachAlgebra, Element, SpectrumReport
from .contours import JordanPolygon, PolygonalArc
from .errors import (
    DegenerateGeometry,
    ParameterError,
    QuadratureNotConverged,
    SpectrumMeetsCut,
    SpectrumNotEnclosed,
    SpectrumOnContour,
    SpectrumTooLarge,
)
from .frozen import Frozen

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
_NEAR_ONE_RADIUS = 0.5
_NEAR_ONE_START_NODES = 32

_BRANCHES = ("none", "cut")


class ContourData(Frozen):
    """A polygon plus everything needed to integrate over it reproducibly.

    ``eps`` is the clearance margin the polygon was built with: the
    spectrum the contour is used against must stay at distance >= eps/2
    from the trace.  ``branch`` describes how square roots on the trace
    are to be evaluated: not at all, or relative to the cut ray ``cut``
    on ``sheet`` (-1 negates the principal sheet).
    Quadrature starts at ``QUAD_START_NODES`` per edge.
    """

    __slots__ = ("polygon", "eps", "branch", "cut", "sheet", "label")
    _defaults = {"branch": "none", "cut": None, "sheet": 1, "label": ""}

    def __post_init__(self) -> None:
        if not 0 < self.eps < math.inf:
            raise ParameterError("contour margin eps must be positive and finite")
        if self.branch not in _BRANCHES:
            raise ParameterError(f"unknown branch descriptor {self.branch!r}")
        # exactly the int 1 or -1: True == 1, and would be written as true
        if type(self.sheet) is not int or self.sheet not in (1, -1):
            raise ParameterError(f"sheet must be the integer +1 or -1, got {self.sheet!r}")
        if self.branch == "cut" and self.cut is None:
            raise ParameterError("cut branch needs the cut ray")

    def describe(self) -> dict:
        out: dict = {
            "polygon": self.polygon.describe(),
            "eps": self.eps,
            "branch": self.branch,
            "sheet": self.sheet,
        }
        if self.cut is not None:
            out["cut"] = self.cut.describe()
        if self.label:
            out["label"] = self.label
        return out


class QuadratureAudit(Frozen):
    """Convergence record of one adaptive contour integration.

    ``nodes_per_edge`` is the final node count per polygon edge; on the
    circle of ``sqrt_near_one`` it is the node count of its one closed
    edge, i.e. every node evaluated.
    """

    __slots__ = ("nodes_per_edge", "delta", "refinements")

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


# a node rule maps (n, refining) to the nodes of the pass with n nodes per
# edge, their dz coefficients, and the share of the previous total the
# pass carries over (0 when it starts over)
_NodeRule = Callable[[int, bool], tuple[np.ndarray, np.ndarray, float]]


def _polygon_rule(polygon: JordanPolygon) -> _NodeRule:
    def rule(n: int, refining: bool) -> tuple[np.ndarray, np.ndarray, float]:
        return (*_loop_nodes(polygon, n), 0.0)

    return rule


def _circle_rule(n: int, refining: bool) -> tuple[np.ndarray, np.ndarray, float]:
    """Periodic trapezoid rule with n nodes on |z| = 1/2; a refining
    pass holds only the odd nodes, the previous pass's midpoints."""
    k = np.arange(1, n, 2) if refining else np.arange(n)
    zs = _NEAR_ONE_RADIUS * np.exp(2j * math.pi * k / n)
    return zs, (2j * math.pi / n) * zs, 0.5 if refining else 0.0


def _integrate(
    scalar_fn: Callable[[np.ndarray], np.ndarray],
    a: Element,
    rule: _NodeRule,
    n: int,
    audit_sink: list[QuadratureAudit] | None,
) -> Element:
    """(1/2pi i) * integral of scalar_fn(z) (z - a)^(-1) dz over the loop
    of ``rule``, starting at n nodes per edge, with adaptive doubling;
    the convergence record goes to ``audit_sink``.  The algebra's resolvent
    kernel for ``a`` is built once and called once per pass."""
    alg: BanachAlgebra = a.algebra
    kernel = alg.resolvent_kernel(a)
    prev: Element | None = None
    refinements = 0
    while True:
        zs, coeffs, carry = rule(n, prev is not None)
        gv = np.asarray(scalar_fn(zs), dtype=complex)
        weights = gv * coeffs / (2j * math.pi)
        total = kernel(zs, weights)
        if carry:
            total = carry * prev + total
        if prev is not None:
            gap = total - prev
            # convergence concerns the stored data, as tails do not shrink with the
            # nodes; a NaN gap, which no node count mends, ends it and fails every check
            delta = alg.norm_parts(gap)[1]
            if not delta >= QUAD_TOL:
                if audit_sink is not None:
                    audit_sink.append(QuadratureAudit(n, delta, refinements))
                return total
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


def _check_enclosure(rep: SpectrumReport, cd: ContourData, *, require_inside: bool) -> None:
    """Every spectrum point must keep eps/2 clear of the contour and,
    with ``require_inside``, lie inside it."""
    for z in rep.points:
        if cd.polygon.distance_to_point(z) < 0.5 * cd.eps:
            raise SpectrumOnContour(f"spectrum point {z:.6g} lies within eps/2 of the contour")
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
    _check_enclosure(a.spectrum(), cd, require_inside=True)
    return _integrate(_vectorise(g), a, _polygon_rule(cd.polygon), QUAD_START_NODES, audit_sink)


def spectral_component_apply(
    g: Callable,
    a: Element,
    cd: ContourData,
    audit_sink: list[QuadratureAudit] | None = None,
) -> Element:
    """Like :func:`contour_apply`, but the loop may enclose only part of
    the spectrum (the rest must stay clear of the trace): the integral
    picks out g applied to the enclosed spectral component."""
    _check_enclosure(a.spectrum(), cd, require_inside=False)
    return _integrate(_vectorise(g), a, _polygon_rule(cd.polygon), QUAD_START_NODES, audit_sink)


def riesz_projection(
    a: Element,
    cd: ContourData,
    audit_sink: list[QuadratureAudit] | None = None,
) -> Element:
    """Spectral projection of ``a`` onto the part of the spectrum inside
    the loop.  The contour must separate the spectrum: every point stays
    at distance >= eps/2, inside or outside."""
    _check_enclosure(a.spectrum(), cd, require_inside=False)
    return _integrate(np.ones_like, a, _polygon_rule(cd.polygon), QUAD_START_NODES, audit_sink)


def sqrt_cut(
    x: Element,
    cut: PolygonalArc,
    cd: ContourData,
    sheet: int | None = None,
    audit_sink: list[QuadratureAudit] | None = None,
) -> Element:
    """Square root of ``x`` with the branch cut placed along ``cut``.

    The branch of sqrt is exp(log/2) with the argument tracked
    continuously along the loop relative to the cut ray; sheet -1
    negates the principal sheet globally.  Cut and sheet come from
    ``cd``; the arguments are checked against it (``cut`` is the cut
    where ``cd`` records none, ``sheet`` may be omitted).
    """
    if cd.cut is not None and cd.cut != cut:
        raise ParameterError(
            f"cut {cut.describe()} differs from the contour's cut {cd.cut.describe()}"
        )
    if sheet not in (None, cd.sheet):
        raise ParameterError(f"sheet {sheet} differs from the contour's sheet {cd.sheet}")
    rep = x.spectrum()
    clearance = min((cut.distance_to_point(z) for z in rep.points), default=math.inf)
    if clearance <= cd.eps:
        raise SpectrumMeetsCut(
            f"spectrum clearance {clearance:.3g} from the cut is within eps={cd.eps:.3g}"
        )
    _check_enclosure(rep, cd, require_inside=True)
    alpha = cut.angle

    def branch_sqrt(zs: np.ndarray) -> np.ndarray:
        theta = _tracked_angles(zs, alpha)
        return cd.sheet * np.sqrt(np.abs(zs)) * np.exp(0.5j * theta)

    return _integrate(branch_sqrt, x, _polygon_rule(cd.polygon), QUAD_START_NODES, audit_sink)


def sqrt_near_one(
    y: Element,
    audit_sink: list[QuadratureAudit] | None = None,
) -> Element:
    """Solve w**2 + w + y/4 = 0 by w = -1/2 + (1/2) sqrt(1 - y), computed
    as a Cauchy integral over the circle |z| = 1/2 with the principal
    (positive near 1) branch of sqrt(1 - z), by the nested trapezoid
    rule: 32 nodes, then doubled until two passes agree.

    Requires a unital algebra and a spectrum inside |z| < 1/3, which
    keeps 1 - z away from the negative reals on and inside the circle.
    """
    alg = y.algebra
    if not alg.is_unital:
        raise ParameterError("square root near one needs a unital algebra")
    rep = y.spectrum()
    if rep.points and rep.radius >= 1.0 / 3.0:
        raise SpectrumTooLarge(
            f"spectral radius {rep.radius:.6g} is not inside the disc of radius 1/3"
        )
    result = _integrate(
        lambda zs: np.sqrt(1.0 - zs), y, _circle_rule, _NEAR_ONE_START_NODES, audit_sink
    )
    return 0.5 * result - 0.5 * alg.one()
