"""Holomorphic functional calculus over polygonal contours.

The three workhorses are plain contour application (Cauchy integrals of
scalar functions against a resolvent), Riesz spectral projections, and
square roots with an explicit branch cut along an escape ray.  Branch
angles are tracked cumulatively along the integration loop, so no
principal-value convention at the cut ever enters; a loop-closure check
guards against a contour that sneaks across the cut.

Quadrature doubles its node count until two passes agree.  Polygons
use composite Gauss-Legendre per edge.  Each edge starts at the order
that the Bernstein-ellipse bound asks for at its nearest spectrum point,
so a short edge far from the spectrum takes few nodes; every edge
doubles on each pass, and each pass starts over.
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

import itertools
import math
from functools import lru_cache
from typing import Callable, Sequence

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
# the fewest Gauss nodes an edge starts with; every node count an edge
# takes is a power of two from here to QUAD_MAX_NODES
_MIN_START_NODES = 4
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
    Quadrature starts each edge at the order the spectrum it is used
    against asks for, at most ``QUAD_START_NODES``.
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

    ``nodes`` is the node count of the accepted pass over the whole loop;
    on the circle of ``sqrt_near_one`` that is every node evaluated, as
    each pass keeps the previous one's nodes.
    """

    __slots__ = ("nodes", "delta", "refinements")

    def describe(self) -> dict:
        return {
            "nodes": self.nodes,
            "delta": self.delta,
            "refinements": self.refinements,
        }


_PANEL_ORDER = 16


@lru_cache(maxsize=None)
def _panel_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for n points on [-1, 1]: a single Gauss-Legendre
    rule up to the panel order, composite equal panels of that order
    beyond it.  Composite panels keep the cost linear in n, where raising
    the polynomial order would cost leggauss its cubic eigensolve.  Node
    counts are powers of two up to QUAD_MAX_NODES, so the cache is small."""
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


def _edge_starts(edges: list[tuple[complex, complex]], points: Sequence[complex]) -> np.ndarray:
    """The Gauss node count each edge [a, b] starts with.

    A pole s off the edge bounds the n-point Gauss error by rho**(-2n)
    (Trefethen, Approximation Theory and Approximation Practice, Thm
    19.3), where rho > 1 names the Bernstein ellipse of the edge through
    s: foci a and b, semi-axes summing to rho |b - a| / 2.  So rho is the
    root >= 1 of rho + 1/rho = 2c, c = (|s - a| + |s - b|) / |b - a|.
    That equals |w + sqrt(w - 1) sqrt(w + 1)| for w = (2s - a - b) / (b - a),
    but has no branch to choose: on the edge's own line a signed zero in
    w flips that form to the root < 1.  An edge starts at the smallest
    power of two in [_MIN_START_NODES, QUAD_START_NODES] at which its
    nearest point of ``points`` gives rho**(-2n) <= QUAD_TOL, else at
    QUAD_START_NODES; with no points, at the fewest."""
    a, b = np.array(edges, dtype=complex).T
    s = np.asarray(points, dtype=complex)[None, :]
    c = (np.abs(s - a[:, None]) + np.abs(s - b[:, None])) / np.abs(b - a)[:, None]
    c = c.min(axis=1, initial=math.inf)
    rho = c + np.sqrt(np.maximum(c * c - 1.0, 0.0))
    starts = np.full(len(edges), QUAD_START_NODES)
    n = QUAD_START_NODES // 2
    while n >= _MIN_START_NODES:
        starts[rho ** (-2.0 * n) <= QUAD_TOL] = n
        n //= 2
    return starts


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


# a node rule maps pass k (0 first) to the nodes that pass evaluates, their
# dz coefficients, the share of the previous total the pass carries over (0
# when it starts over) and the most nodes the pass puts on one edge
_NodeRule = Callable[[int], tuple[np.ndarray, np.ndarray, float, int]]


def _polygon_rule(polygon: JordanPolygon, points: Sequence[complex]) -> _NodeRule:
    """Composite Gauss-Legendre along the loop, in traversal order: pass k
    puts start * 2**k nodes on each edge, the start from the spectrum
    ``points`` (``_edge_starts``), and starts over."""
    edges = polygon.edges()
    starts = _edge_starts(edges, points).tolist()
    mids = [0.5 * (a + b) for a, b in edges]
    halves = [0.5 * (b - a) for a, b in edges]

    def rule(k: int) -> tuple[np.ndarray, np.ndarray, float, int]:
        zs = []
        coeffs = []
        for mid, half, start in zip(mids, halves, starts):
            x, w = _panel_rule(start << k)
            zs.append(mid + half * x)
            coeffs.append(w * half)
        return np.concatenate(zs), np.concatenate(coeffs), 0.0, max(starts) << k

    return rule


def _circle_rule(k: int) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Periodic trapezoid rule with n = 32 * 2**k nodes on |z| = 1/2, its
    one closed edge; a refining pass holds only the odd nodes, the
    previous pass's midpoints."""
    n = _NEAR_ONE_START_NODES << k
    j = np.arange(1, n, 2) if k else np.arange(n)
    zs = _NEAR_ONE_RADIUS * np.exp(2j * math.pi * j / n)
    return zs, (2j * math.pi / n) * zs, 0.5 if k else 0.0, n


def _integrate(
    scalar_fn: Callable[[np.ndarray], np.ndarray],
    a: Element,
    rule: _NodeRule,
    audit_sink: list[QuadratureAudit] | None,
) -> Element:
    """(1/2pi i) * integral of scalar_fn(z) (z - a)^(-1) dz over the loop
    of ``rule``, doubling the nodes of every edge each pass until two
    passes agree; the convergence record goes to ``audit_sink``.  The
    algebra's resolvent kernel for ``a`` is built once and called once
    per pass."""
    alg: BanachAlgebra = a.algebra
    kernel = alg.resolvent_kernel(a)
    prev: Element | None = None
    nodes = 0
    for k in itertools.count():
        zs, coeffs, carry, densest = rule(k)
        gv = np.asarray(scalar_fn(zs), dtype=complex)
        weights = gv * coeffs / (2j * math.pi)
        total = kernel(zs, weights)
        # the nodes of the whole pass, the carried ones included
        nodes = len(zs) + (nodes if carry else 0)
        if carry:
            total = carry * prev + total
        if prev is not None:
            gap = total - prev
            # convergence concerns the stored data, as tails do not shrink with the
            # nodes; a NaN gap, which no node count mends, ends it and fails every check
            delta = alg.norm_parts(gap)[1]
            if not delta >= QUAD_TOL:
                if audit_sink is not None:
                    audit_sink.append(QuadratureAudit(nodes, delta, k))
                return total
        if 2 * densest > QUAD_MAX_NODES:
            raise QuadratureNotConverged(
                f"contour integral did not stabilise below {QUAD_TOL} "
                f"at {densest} nodes on its densest edge"
            )
        prev = total


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
    rep = a.spectrum()
    _check_enclosure(rep, cd, require_inside=True)
    return _integrate(_vectorise(g), a, _polygon_rule(cd.polygon, rep.points), audit_sink)


def spectral_component_apply(
    g: Callable,
    a: Element,
    cd: ContourData,
    audit_sink: list[QuadratureAudit] | None = None,
) -> Element:
    """Like :func:`contour_apply`, but the loop may enclose only part of
    the spectrum (the rest must stay clear of the trace): the integral
    picks out g applied to the enclosed spectral component."""
    rep = a.spectrum()
    _check_enclosure(rep, cd, require_inside=False)
    return _integrate(_vectorise(g), a, _polygon_rule(cd.polygon, rep.points), audit_sink)


def riesz_projection(
    a: Element,
    cd: ContourData,
    audit_sink: list[QuadratureAudit] | None = None,
) -> Element:
    """Spectral projection of ``a`` onto the part of the spectrum inside
    the loop.  The contour must separate the spectrum: every point stays
    at distance >= eps/2, inside or outside."""
    rep = a.spectrum()
    _check_enclosure(rep, cd, require_inside=False)
    return _integrate(np.ones_like, a, _polygon_rule(cd.polygon, rep.points), audit_sink)


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

    return _integrate(branch_sqrt, x, _polygon_rule(cd.polygon, rep.points), audit_sink)


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
    result = _integrate(lambda zs: np.sqrt(1.0 - zs), y, _circle_rule, audit_sink)
    return 0.5 * result - 0.5 * alg.one()
