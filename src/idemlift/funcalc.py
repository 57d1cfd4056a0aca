"""Holomorphic functional calculus over polygonal contours.

The three workhorses are plain contour application (Cauchy integrals of
scalar functions against a resolvent), Riesz spectral projections, and
square roots with an explicit branch cut along an escape ray, taken on
the closed-form sheet of the plane slit along the ray; each call checks
once, on the polygon, that the loop misses the ray, so every integrand
is pointwise.

Quadrature refines until two passes agree, edge by edge.  Polygons use
composite Gauss-Legendre per edge.  Each edge starts at the order that
the Bernstein-ellipse bound asks for at its nearest spectrum point, so a
short edge far from the spectrum takes few nodes; after the second pass
only the edges whose own last change is not yet small are doubled, and
an edge left alone keeps its sum.  The fixed circle |z| = 1/2 of
``sqrt_near_one`` is one edge under the periodic trapezoid rule, which
converges geometrically; each doubling keeps half of the previous sum
and evaluates only the new midpoint nodes.  The weighted resolvent sums
are formed by the algebra's resolvent kernel: an integral asks for it
once (``resolvent_kernel``), so the work that does not depend on the
nodes, such as the unitization's table of powers, is done once per
integral and not once per pass; each pass is one kernel call that sums
every edge it refines apart.  Results are deterministic for a fixed
version.
"""

from __future__ import annotations

import functools
import itertools
import math
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

    ``nodes`` is the node count of the accepted estimate over the whole
    loop, each edge at its last level; ``evaluated`` is the resolvents
    spent over all passes.  On the circle of ``sqrt_near_one`` the two
    agree, as each pass keeps the previous one's nodes.  ``delta`` is the
    stored norm of the last summed change and ``refinements`` the passes
    after the first.
    """

    __slots__ = ("nodes", "delta", "refinements", "evaluated")

    def describe(self) -> dict:
        return {
            "nodes": self.nodes,
            "delta": self.delta,
            "refinements": self.refinements,
            "evaluated": self.evaluated,
        }


_PANEL_ORDER = 16


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1] by Golub-Welsch: the
    nodes are the eigenvalues of the Jacobi matrix of the Legendre
    recurrence, the weights twice the squared first components of its
    eigenvectors (Golub & Welsch, Math. Comp. 23, 1969).  As in numpy's
    ``leggauss``, the rule is then made symmetric about 0 and its weights
    scaled to sum 2."""
    k = np.arange(1.0, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    x, v = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    w = 2.0 * v[0] ** 2
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    return x, w * (2.0 / w.sum())


@functools.lru_cache(maxsize=None)
def _panel_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for n points on [-1, 1]: a single Gauss-Legendre
    rule up to the panel order, composite equal panels of that order
    beyond it.  Composite panels keep the cost linear in n, where raising
    the polynomial order would cost the rule its cubic eigensolve.  Node
    counts are powers of two up to QUAD_MAX_NODES, so the cache is small."""
    if n <= _PANEL_ORDER:
        return _gauss_legendre(n)
    panels, rem = divmod(n, _PANEL_ORDER)
    if rem:
        raise ParameterError("composite node count must be a multiple of the panel order")
    x, w = _gauss_legendre(_PANEL_ORDER)
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
    QUAD_START_NODES; with no points, at the fewest.  The bound is the
    edge's own, so ``_integrate`` also refines each edge on its own."""
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


def _sheet_angles(zs: np.ndarray, cut_angle: float) -> np.ndarray:
    """The argument of each point on the sheet [cut_angle - 2pi, cut_angle),
    continuous off the cut ray."""
    return cut_angle - 2.0 * math.pi + (np.angle(zs) - cut_angle) % (2.0 * math.pi)


def _check_cut(polygon: JordanPolygon, cut: PolygonalArc) -> None:
    """The loop must miss the cut ray.  In the frame where the ray is the
    real axis's nonnegative half, no vertex may lie on it and no edge may
    cross the axis, from one strict side to the other, at a point
    (x y1 - y x1) / (y1 - y) >= 0."""
    w = np.array(polygon.vertices) * cut.ray_direction.conjugate()
    x, y, x1, y1 = w.real, w.imag, np.roll(w.real, -1), np.roll(w.imag, -1)
    crosses = (np.sign(y) * np.sign(y1) < 0) & (np.sign(x * y1 - y * x1) * np.sign(y1 - y) >= 0)
    if np.any(((y == 0.0) & (x >= 0.0)) | crosses):
        raise DegenerateGeometry("integration loop crosses the branch cut")


# an edge maps its level k (0 first) to the nodes it evaluates at that
# level, their dz coefficients, the share of its previous sum it carries
# over (0 when it starts over) and its node count at that level
_Edge = Callable[[int], tuple[np.ndarray, np.ndarray, float, int]]


def _polygon_edges(polygon: JordanPolygon, points: Sequence[complex]) -> list[_Edge]:
    """Composite Gauss-Legendre on each edge of the loop, in traversal
    order: at level k an edge holds start * 2**k nodes, the start from the
    spectrum ``points`` (``_edge_starts``), and each level starts over."""

    def edge(a: complex, b: complex, start: int) -> _Edge:
        mid, half = 0.5 * (a + b), 0.5 * (b - a)

        def level(k: int) -> tuple[np.ndarray, np.ndarray, float, int]:
            x, w = _panel_rule(start << k)
            return mid + half * x, w * half, 0.0, start << k

        return level

    edges = polygon.edges()
    return [edge(a, b, s) for (a, b), s in zip(edges, _edge_starts(edges, points).tolist())]


def _circle_edge(k: int) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Periodic trapezoid rule with n = 32 * 2**k nodes on |z| = 1/2, one
    closed edge; a refining level holds only the odd nodes, the previous
    level's midpoints, and carries half of the previous sum."""
    n = _NEAR_ONE_START_NODES << k
    j = np.arange(1, n, 2) if k else np.arange(n)
    zs = _NEAR_ONE_RADIUS * np.exp(2j * math.pi * j / n)
    return zs, (2j * math.pi / n) * zs, 0.5 if k else 0.0, n


def _unconverged(norms: list[float]) -> list[int]:
    """The edges the next pass refines: those whose last gap has a stored
    norm of at least QUAD_TOL / E, for E edges.  Once none has, the summed
    gap is below QUAD_TOL by the triangle inequality; should rounding
    leave it at or above, every edge is refined."""
    bar = QUAD_TOL / len(norms)
    return [e for e, g in enumerate(norms) if g >= bar] or list(range(len(norms)))


def _integrate(
    scalar_fn: Callable[[np.ndarray], np.ndarray],
    a: Element,
    edges: list[_Edge],
    audit_sink: list[QuadratureAudit] | None,
) -> Element:
    """(1/2pi i) * integral of scalar_fn(z) (z - a)^(-1) dz over the loop
    of ``edges``, each edge refined on its own; the convergence record
    goes to ``audit_sink``.

    Pass 0 puts every edge at level 0 and pass 1 refines them all.  After
    that a pass refines only the edges that ``_unconverged`` names, and
    the estimate is accepted once the stored norm of the summed gaps,
    each edge's change at its last refinement, is below QUAD_TOL.  A
    refined edge brings its new gap, one left alone keeps its last, so
    with every edge refined this is the whole sum's change.  Each pass
    evaluates the pointwise ``scalar_fn`` on the nodes of the edges it
    refines and makes one call of the algebra's resolvent kernel, built
    once for ``a``, with one run per refined edge."""
    alg: BanachAlgebra = a.algebra
    kernel = alg.resolvent_kernel(a)
    count = len(edges)
    levels = [0] * count  # the level each edge evaluates next
    rules: list = [None] * count  # each edge's last (nodes, coeffs, carry, node count)
    sums: list = [None] * count  # each edge's estimate
    gaps: list = [None] * count  # each edge's change at its last refinement
    norms = [math.inf] * count  # their stored norms
    refine = list(range(count))
    total: Element | None = None
    evaluated = 0
    for k in itertools.count():
        for e in refine:
            rules[e] = edges[e](levels[e])
            levels[e] += 1
        zs = np.concatenate([rules[e][0] for e in refine])
        gv = np.asarray(scalar_fn(zs), dtype=complex)
        weights = gv * np.concatenate([rules[e][1] for e in refine]) / (2j * math.pi)
        starts = list(itertools.accumulate((len(rules[e][0]) for e in refine[:-1]), initial=0))
        previous = {}
        for e, run in zip(refine, kernel(zs, weights, starts)):
            carry = rules[e][2]
            previous[e] = sums[e]
            sums[e] = carry * sums[e] + run if carry else run
        evaluated += len(zs)
        before, total = total, alg.sum(sums)
        if k:
            # convergence concerns the stored data, as tails do not shrink with the
            # nodes; a NaN gap, which no node count mends, ends it and fails every check
            stale = [gaps[e] for e in range(count) if e not in previous]
            gap = total - before
            if stale:
                gap = gap + alg.sum(stale)
            delta = alg.norm_parts(gap)[1]
            if not delta >= QUAD_TOL:
                if audit_sink is not None:
                    nodes = sum(r[3] for r in rules)
                    audit_sink.append(QuadratureAudit(nodes, delta, k, evaluated))
                return total
            if count > 1:  # one edge is refined until the sum settles
                for e, old in previous.items():
                    gaps[e] = sums[e] - old
                    norms[e] = alg.norm_parts(gaps[e])[1]
                refine = _unconverged(norms)
        densest = max(rules[e][3] for e in refine)
        if 2 * densest > QUAD_MAX_NODES:
            raise QuadratureNotConverged(
                f"contour integral did not stabilise below {QUAD_TOL} "
                f"at {densest} nodes on its densest edge"
            )


def _vectorise(g: Callable) -> Callable[[np.ndarray], np.ndarray]:
    def run(zs: np.ndarray) -> np.ndarray:
        vals = np.asarray(g(zs), dtype=complex)
        if vals.shape != zs.shape:
            raise ParameterError(f"g gave values of shape {vals.shape} on nodes of shape {zs.shape}")
        return vals

    return run


def _check_enclosure(rep: SpectrumReport, cd: ContourData, *, require_inside: bool) -> None:
    """Every spectrum point must keep eps/2 clear of the contour and,
    with ``require_inside``, lie inside it.  All points are tested at
    once; where one fails, the first failure in point order is raised."""
    polygon, margin = cd.polygon, 0.5 * cd.eps
    if require_inside and polygon.encloses(rep.points, margin):
        return
    if not require_inside and polygon.distance_to_points(rep.points) >= margin:
        return
    for z in rep.points:
        if polygon.distance_to_point(z) < margin:
            raise SpectrumOnContour(f"spectrum point {z:.6g} lies within eps/2 of the contour")
        if require_inside and polygon.winding_number(z) != 1:
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
    return _integrate(_vectorise(g), a, _polygon_edges(cd.polygon, rep.points), audit_sink)


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
    return _integrate(_vectorise(g), a, _polygon_edges(cd.polygon, rep.points), audit_sink)


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
    return _integrate(np.ones_like, a, _polygon_edges(cd.polygon, rep.points), audit_sink)


def sqrt_cut(
    x: Element,
    cut: PolygonalArc,
    cd: ContourData,
    sheet: int | None = None,
    audit_sink: list[QuadratureAudit] | None = None,
) -> Element:
    """Square root of ``x`` with the branch cut placed along ``cut``.

    The branch of sqrt is exp(log/2) with the argument in [alpha - 2pi,
    alpha) for the cut ray's angle alpha; sheet -1 negates it globally.
    Cut and sheet come from ``cd``; the arguments are checked against it
    (``cut`` is the cut where ``cd`` records none, ``sheet`` may be
    omitted).
    """
    if cd.cut is not None and cd.cut != cut:
        raise ParameterError(
            f"cut {cut.describe()} differs from the contour's cut {cd.cut.describe()}"
        )
    if sheet not in (None, cd.sheet):
        raise ParameterError(f"sheet {sheet} differs from the contour's sheet {cd.sheet}")
    rep = x.spectrum()
    clearance = cut.distance_to_points(rep.points)
    if clearance <= cd.eps:
        raise SpectrumMeetsCut(
            f"spectrum clearance {clearance:.3g} from the cut is within eps={cd.eps:.3g}"
        )
    _check_enclosure(rep, cd, require_inside=True)
    _check_cut(cd.polygon, cut)
    alpha = cut.angle

    def branch_sqrt(zs: np.ndarray) -> np.ndarray:
        return cd.sheet * np.sqrt(np.abs(zs)) * np.exp(0.5j * _sheet_angles(zs, alpha))

    return _integrate(branch_sqrt, x, _polygon_edges(cd.polygon, rep.points), audit_sink)


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
    result = _integrate(lambda zs: np.sqrt(1.0 - zs), y, [_circle_edge], audit_sink)
    return 0.5 * result - 0.5 * alg.one()
