"""Lifting of idempotent families through homomorphism families.

Five algorithms, all sharing one discipline: every contour, margin, and
branch choice is frozen from the base point lambda = 0 and reused on the
whole grid, with per-lambda validity flags recording where the frozen
enclosures still hold.  The local path corrects a section a(lambda) by a
square root with a branch cut along an escape ray; the self-adjoint path
replaces it by a Riesz projection over a mirror-symmetric loop; the
orthogonal-family path runs a Kaplansky-style induction where each new
idempotent is built orthogonal to the sum of its predecessors.

A lift takes only its sections: pi is ``sec.pi`` and the target family
is ``sec.target``.  Every path returns a LiftTrace whose points carry the
lifted idempotent under "p" (``trace.point(lam).p``).  One routine,
``_point``, makes every point of a lift or of ``family_orthogonality``
from a per-lambda kernel, and alone decides which failures make a point
invalid and which element a defect reports; a family from lift_family
runs its step's kernel through it off the grid, and raises
EnclosureFailed where its step's point is invalid.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from typing import Callable, Iterable, Sequence

from .algebra import Element, SpectrumReport
from .contours import build_escape_arc, build_gamma_pair, square_polygon
from .errors import (
    AmbiguousSign,
    EnclosureFailed,
    HalfInSpectrum,
    NoInvolution,
    NotInvertible,
    NotStarCompatible,
    ParameterError,
    QuadratureNotConverged,
    SectionInvalid,
    SpectrumMeetsCut,
    SpectrumNotEnclosed,
    SpectrumOnContour,
)
from .families import ElementFamily, HomFamily, Section, constant_family, symmetrize
from .funcalc import (
    ContourData,
    QuadratureAudit,
    riesz_projection,
    spectral_component_apply,
    sqrt_cut,
    sqrt_near_one,
)
from .frozen import Frozen

__all__ = [
    "TOL_IDEM",
    "TOL_LIFT",
    "LiftPoint",
    "LiftTrace",
    "lift_trivial",
    "choose_sign",
    "lift_local",
    "lift_local_sa",
    "lift_ortho_step",
    "lift_family",
    "family_orthogonality",
]

TOL_IDEM = 1e-9
TOL_LIFT = 1e-8

_EXACT = 1e-12  # slack for spectra that our algebra kinds report exactly

# The smallness bound of the orthogonal step: sigma(z) must lie in its
# disc.  A smaller bound only refuses more, and 1/2 refuses nothing that
# the step's sigma(a) condition admits: by spectral mapping sigma(z) =
# {w^2 - w : w in sigma(a)} then lies in the disc of radius 4/9.
_EPS0 = 0.5

# the errors of a per-lambda kernel that make its point invalid: the
# frozen enclosures fail there, or (apart from the base point) a kernel
# refuses an inverse or a quadrature
_ENCLOSURE_ERRORS = (SpectrumMeetsCut, SpectrumOnContour, SpectrumNotEnclosed)
_POINT_ERRORS = (NotInvertible, QuadratureNotConverged)


class _Invalid(EnclosureFailed):
    """A kernel's point is invalid for ``reason``: "enclosure" where the
    frozen enclosures fail, "predecessor" where a lifted family it reads
    has no value (a lifted family raises this there)."""

    def __init__(self, reason: str, message: str = ""):
        super().__init__(message or reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# traces


class LiftPoint(Frozen):
    """One grid point of a lift.

    ``allowances`` carries, per defect, the tail slack of the defect
    element (nonzero only over truncated-series algebras): the certified
    statement is defect - allowance <= tolerance.  An invalid point keeps
    no allowance, and its one defect, infinite, names why it failed.
    """

    __slots__ = ("lam", "valid", "defects", "elements", "allowances")
    _defaults = {"defects": None, "elements": None, "allowances": None}

    def __post_init__(self) -> None:  # each record its own empty dict
        for name in [f for f in ("defects", "elements", "allowances") if getattr(self, f) is None]:
            object.__setattr__(self, name, {})

    @property
    def p(self) -> Element | None:
        return self.elements.get("p")

    def certified(self, key: str) -> float:
        return _certified(self.defects[key], self.allowances.get(key, 0.0))


def _certified(defect: float, allowance: float) -> float:
    """max(0, defect - allowance); NaN, which fails every check, where
    either is not finite and so certifies nothing."""
    if not (math.isfinite(defect) and math.isfinite(allowance)):
        return math.nan
    return max(0.0, defect - allowance)


def _rank(pair: tuple[float, float]) -> tuple[bool, float]:
    """A (defect, allowance) pair by certified value, one that certifies nothing above all."""
    return math.isnan(_certified(*pair)), _certified(*pair)


def _worst(vals: Iterable[float]) -> float:
    """The largest of ``vals``; NaN when there is none or any is NaN, in
    any order (``max`` alone keeps a NaN only where it comes first).  Every
    check value that is the worst of several is taken by this one rule."""
    vals = list(vals)
    if not vals or any(math.isnan(v) for v in vals):
        return math.nan
    return max(vals)


class LiftTrace(Frozen):
    """The grid points of one lift plus what it froze at lambda = 0: the
    contours of the local paths (the local lift's carries its cut and
    branch sheet), the smallness bound ``eps0`` of an orthogonal step."""

    __slots__ = ("points", "audits", "contours", "eps0", "label")
    _defaults = {"contours": (), "eps0": None, "label": ""}

    def point(self, lam: complex) -> LiftPoint:
        for pt in self.points:
            if pt.lam == lam:
                return pt
        raise KeyError(f"no record at lambda = {lam}")

    def worst(self, key: str) -> float:
        return _worst(pt.defects[key] for pt in self.points if pt.valid and key in pt.defects)

    def worst_certified(self, key: str) -> float:
        return _worst(pt.certified(key) for pt in self.points if pt.valid and key in pt.defects)

    def valid_points(self) -> tuple[LiftPoint, ...]:
        return tuple(pt for pt in self.points if pt.valid)


def _point(lam: complex, kernel: Callable, checks: Callable | None) -> LiftPoint:
    """The point at lam of a path whose per-lambda ``kernel`` returns the
    named elements, a lifted idempotent under "p".

    The point is invalid where the kernel raises _Invalid (its reason),
    an enclosure error ("enclosure"), or a NotInvertible or
    QuadratureNotConverged (the error's code); at the base point, where
    nothing could be frozen, those two end the lift instead.  A valid
    point carries the elements and, unless ``checks`` is None, a defect per
    name of ``checks(lam, elements)``: of the element or list of candidate
    elements it names, the one with the largest certified value max(0,
    ||d|| - allowance), whose allowance is the part of ||d|| that is
    carried tail (||d|| less its stored norm); an empty list is a defect
    of 0.  pi only sees the stored part of p, so p's tail is extra slack
    on a lift defect."""
    try:
        elements = kernel(lam)
    except _Invalid as exc:
        return LiftPoint(lam, False, {exc.reason: math.inf})
    except _ENCLOSURE_ERRORS:
        return LiftPoint(lam, False, {"enclosure": math.inf})
    except _POINT_ERRORS as exc:
        if lam == 0:
            raise
        return LiftPoint(lam, False, {exc.code: math.inf})
    if checks is None:
        return LiftPoint(lam, True, elements=elements)
    defects, allow = {}, {}
    for key, found in checks(lam, elements).items():
        parts = (d.algebra.norm_parts(d) for d in ([found] if isinstance(found, Element) else found))
        pairs = [(raw, raw - stored) for raw, stored in parts]
        defects[key], allow[key] = max(pairs, key=_rank, default=(0.0, 0.0))
    if "lift" in allow:
        p = elements["p"]
        allow["lift"] += p.algebra.tail_bound(p)
    return LiftPoint(lam, True, defects, elements, allow)


# ---------------------------------------------------------------------------
# trivial path


def lift_trivial(pi: HomFamily, q: ElementFamily, grid: Sequence[complex]) -> LiftTrace | None:
    """Constant lift of ``q`` through ``pi`` when the base spectrum pins
    it: sigma(q(0)) inside {0} lifts to 0, inside {1} lifts to 1.  Each
    grid point is made by ``_point``, with the idempotency and lift
    defects of the constant; a target that is not pinned returns None, so
    the caller falls through to the main path."""
    grid_pts = _grid_tuple(grid)
    pts = q(0).spectrum().points
    if all(abs(z) <= _EXACT for z in pts):
        p = pi.source.zero()
    elif all(abs(z - 1) <= _EXACT for z in pts):
        p = pi.source.one()
    else:
        return None

    def checks(lam: complex, els: dict[str, Element]):
        return {"idempotency": p * p - p, "lift": pi.apply(lam, p) - q(lam)}

    points = tuple(_point(lam, lambda lam: {"p": p}, checks) for lam in grid_pts)
    return LiftTrace(points, (), label="trivial")


# ---------------------------------------------------------------------------
# sign selection


def choose_sign(candidates: tuple[Element, Element], pi: HomFamily) -> int:
    """Pick the branch sign whose candidate lands in the kernel at the
    base point.  The other candidate must visibly miss (its image is -1
    up to tolerance), otherwise the choice is ambiguous."""
    plus, minus = candidates
    res_plus = pi.apply(0.0, plus).norm()
    res_minus = pi.apply(0.0, minus).norm()
    ok_plus = res_plus <= TOL_LIFT
    ok_minus = res_minus <= TOL_LIFT
    if ok_plus == ok_minus:
        raise AmbiguousSign(
            f"kernel residuals {res_plus:.3g} and {res_minus:.3g} do not single out a sign"
        )
    if ok_plus and res_minus < 1.0 - TOL_LIFT:
        raise AmbiguousSign(
            f"rejected candidate has residual {res_minus:.3g}, expected about 1"
        )
    if ok_minus and res_plus < 1.0 - TOL_LIFT:
        raise AmbiguousSign(
            f"rejected candidate has residual {res_plus:.3g}, expected about 1"
        )
    return 1 if ok_plus else -1


# ---------------------------------------------------------------------------
# local path


def _local_data(a: Element) -> tuple[Element, Element, Element]:
    """r = a - a^2, r0 = -r (1-4r)^{-1}, y = 1 - 4 r0."""
    one = a.algebra.one()
    r = a - a * a
    inv = (one - 4.0 * r).inverse()
    r0 = -1.0 * (r * inv)
    y = one - 4.0 * r0
    return r, r0, y


def _grid_tuple(grid: Sequence[complex]) -> tuple[complex, ...]:
    """``grid`` as complex points; an empty grid or a non-finite point is a
    ``ParameterError``, raised before a lift does any work."""
    pts = tuple(complex(g) for g in grid)
    if not pts or not all(map(cmath.isfinite, pts)):
        raise ParameterError(f"lambda grid must be nonempty and finite, got {pts}")
    return pts


def lift_local(sec: Section, grid: Sequence[complex]) -> LiftTrace:
    """Idempotent lift of ``sec.target`` through ``sec.pi`` along an
    escape-ray branch-cut square root.

    Freezes, at lambda = 0: the cut ray P avoiding sigma(1 - 4 r0(0)),
    the margin eps = dist(P, spectrum)/3, the integration loop around P,
    and the branch sheet (the one whose correction lands in the kernel),
    all held by the one ContourData of the trace.  Each grid point
    recomputes x = -1/2 + (1/2) sqrt(1 - 4 r0(lambda)), z = (2a - 1)x and
    p = a + z; a point is invalid where sqrt_cut finds the spectrum
    within eps of the cut, within eps/2 of the loop, or outside it.
    """
    grid_pts = _grid_tuple(grid)
    pi, q = sec.pi, sec.target
    a0 = sec(0.0)
    if sec.defect(0.0) > TOL_LIFT:
        raise SectionInvalid("section does not lift the target at the base point")
    sp_a0 = a0.spectrum()
    if any(abs(z - 0.5) <= 1e-9 for z in sp_a0.points):
        raise HalfInSpectrum("1/2 lies in the spectrum of the section at 0")

    try:
        _, r0_0, y0 = _local_data(a0)
    except NotInvertible as exc:
        raise HalfInSpectrum(f"1 - 4r(0) is not invertible: {exc}") from exc
    rep0 = y0.spectrum()
    if any(abs(z) <= 1e-9 for z in rep0.points):
        raise EnclosureFailed("0 in the spectrum of 1 - 4 r0(0); no cut ray exists")

    P = build_escape_arc(rep0)
    eps = P.distance_to_points(rep0.points) / 3.0
    polygon = build_gamma_pair(P, eps, rep0.radius)
    cd = ContourData(polygon, eps=eps, branch="cut", cut=P, label="local-lift")

    one = pi.source.one()
    audits: list[QuadratureAudit] = []
    s0 = sqrt_cut(y0, P, cd, audit_sink=audits)
    x_plus = -0.5 * one + 0.5 * s0
    x_minus = -0.5 * one - 0.5 * s0
    cd = cd.replace(sheet=choose_sign((x_plus, x_minus), pi))

    def kernel(lam: complex) -> dict[str, Element]:
        a = sec(lam)
        r, r0, y = _local_data(a)
        x = -0.5 * one + 0.5 * sqrt_cut(y, P, cd, audit_sink=audits)
        z = (2.0 * a - one) * x
        return {"a": a, "r": r, "r0": r0, "x": x, "z": z, "p": a + z}

    def checks(lam: complex, els: dict[str, Element]):
        a, r, r0, x, z, p = (els[k] for k in ("a", "r", "r0", "x", "z", "p"))
        return {
            "idempotency": p * p - p,
            "lift": pi.apply(lam, p) - q(lam),
            "commutation": z * a - a * z,
            "eq2": z * z + (2.0 * a - one) * z - r,
            "eq5": x * x + x + r0,
        }

    points = tuple(_point(lam, kernel, checks) for lam in grid_pts)
    return LiftTrace(points, tuple(audits), (cd,), label="local")


# ---------------------------------------------------------------------------
# self-adjoint path


def lift_local_sa(sec: Section, grid: Sequence[complex]) -> LiftTrace:
    """Self-adjoint lift of ``sec.target`` through ``sec.pi`` on a real
    grid via the Riesz projection of the symmetrized section over a
    mirror-symmetric loop around 1.

    Also evaluates the two auxiliary resolvent integrals a0, a1 over the
    loops around 0 and around 1 and records the factorisation residual
    ||(a - p) - (a^2 - a)(a1 - a0)||, which witnesses that the projection
    differs from the section by a kernel element.
    """
    grid_pts = _grid_tuple(grid)
    if any(abs(l.imag) > 1e-12 for l in grid_pts):
        raise ParameterError("self-adjoint lifting runs on real grids")
    pi, q = sec.pi, sec.target
    alg = pi.source
    if not alg.has_involution:
        raise NoInvolution(f"{alg.kind} has no involution")
    if not pi.star_on_real:
        raise NotStarCompatible("homomorphism family is not a *-family on real lambda")

    sym = symmetrize(sec)
    if sym.defect(0.0) > TOL_LIFT:
        raise SectionInvalid("symmetrized section does not lift the target at 0")

    gamma0 = square_polygon(0j, 1.0 / 3.0)
    gamma1 = square_polygon(1 + 0j, 1.0 / 3.0)
    cd0 = ContourData(gamma0, eps=1.0 / 3.0, label="sa-around-0")
    cd1 = ContourData(gamma1, eps=1.0 / 3.0, label="sa-around-1")

    def covered(rep: SpectrumReport) -> bool:
        # with margin 1/6, gamma0 covers only Re z < 1/6 and gamma1 only Re z > 5/6
        left = [z for z in rep.points if z.real < 0.5]
        right = [z for z in rep.points if not z.real < 0.5]
        return gamma0.encloses(left, margin=1 / 6) and gamma1.encloses(right, margin=1 / 6)

    if not covered(sym(0.0).spectrum()):
        raise EnclosureFailed(
            "spectrum of the symmetrized section at 0 is not split by the two loops"
        )

    audits: list[QuadratureAudit] = []

    def kernel(lam: complex) -> dict[str, Element]:
        a = sym(lam)
        if not covered(a.spectrum()):
            raise _Invalid("enclosure")
        p = riesz_projection(a, cd1, audit_sink=audits)
        aux0 = spectral_component_apply(lambda z: 1.0 / (1.0 - z), a, cd0, audit_sink=audits)
        aux1 = spectral_component_apply(lambda z: 1.0 / z, a, cd1, audit_sink=audits)
        return {"a": a, "p": p, "a0": aux0, "a1": aux1}

    def checks(lam: complex, els: dict[str, Element]):
        a, p, aux0, aux1 = (els[k] for k in ("a", "p", "a0", "a1"))
        return {
            "idempotency": p * p - p,
            "lift": pi.apply(lam, p) - q(lam),
            "commutation": p * a - a * p,
            "self-adjointness": p - p.adjoint(),
            "factorisation": (a - p) - (a * a - a) * (aux1 - aux0),
        }

    points = tuple(_point(lam, kernel, checks) for lam in grid_pts)
    return LiftTrace(points, tuple(audits), (cd0, cd1), label="self-adjoint")


# ---------------------------------------------------------------------------
# orthogonal step


def _ortho_enclosures(
    a: Element, z: Element
) -> tuple[Element, Element, Element] | None:
    """The frozen smallness conditions: sigma(z) in the _EPS0 disc,
    sigma(a) within 1/3 of {0, 1}, and sigma(y) in the 1/3 disc, with
    y = 4z(2a-1)^-2.  Returns m = 2a-1, m^-2 and y where they hold, None
    where they fail."""
    sp_z = z.spectrum()
    if any(abs(w) >= _EPS0 for w in sp_z.points):
        return None
    sp_a = a.spectrum()
    if any(min(abs(w), abs(1 - w)) >= 1.0 / 3.0 for w in sp_a.points):
        return None
    m = 2.0 * a - a.algebra.one()
    try:
        m2inv = (m * m).inverse()
    except NotInvertible:
        return None
    y = 4.0 * (z * m2inv)
    return (m, m2inv, y) if all(abs(w) < 1.0 / 3.0 for w in y.spectrum().points) else None


def _cut_down(e: Element, b: Element) -> tuple[Element, Element, Element]:
    """The complement c = 1 - e, a = c b c and z = a^2 - a."""
    c = e.algebra.one() - e
    a = c * b * c
    return c, a, a * a - a


def _ortho_point(
    e_fam: ElementFamily,
    sec_v: Section,
    lam: complex,
    audit_sink: list[QuadratureAudit] | None = None,
) -> dict[str, Element]:
    """The kernel of the orthogonal step: the elements of the idempotent
    f = a + (1-e) w (2a-1) (stored under "p") at lam.  Raises _Invalid
    where the frozen enclosures fail; reading e raises it where a lifted
    predecessor has no value."""
    e = e_fam(lam)
    c, a, z = _cut_down(e, sec_v(lam))
    found = _ortho_enclosures(a, z)
    if found is None:
        raise _Invalid("enclosure")
    m, m2inv, y = found
    w = sqrt_near_one(y, audit_sink=audit_sink)
    x = c * w
    r = x * m
    return {"a": a, "z": z, "w": w, "x": x, "r": r, "p": a + r, "e": e, "m": m, "m2inv": m2inv}


def lift_ortho_step(
    e_fam: ElementFamily,
    u_fam: ElementFamily,
    sec_v: Section,
    grid: Sequence[complex],
) -> LiftTrace:
    """One induction step: build an idempotent family f lifting
    v = ``sec_v.target`` through pi = ``sec_v.pi`` and orthogonal to the
    already-lifted e (pi e = u, u v = v u = 0).

    b is the supplied section of v; a = (1-e) b (1-e) is cut down to the
    complement of e, z = a^2 - a measures how far a is from idempotent,
    and the correction r = (1-e) w (2a-1) with w solving
    w^2 + w + z(2a-1)^{-2} = 0 restores idempotency without leaving the
    complement.  The smallness bound eps0 is 1/2 (see _EPS0); its
    conditions must hold at the base point.  A grid point is invalid
    where those conditions fail or e cannot be evaluated (a
    predecessor's enclosures failed there).
    """
    grid_pts = _grid_tuple(grid)
    pi, v_fam = sec_v.pi, sec_v.target
    e0, u0, v0 = e_fam(0.0), u_fam(0.0), v_fam(0.0)
    if (pi.apply(0.0, e0) - u0).norm() > TOL_LIFT:
        raise SectionInvalid("lifted predecessor does not map to its target")
    for name, val in (
        ("u", (u0 * u0 - u0).norm()),
        ("v", (v0 * v0 - v0).norm()),
        ("uv", (u0 * v0).norm()),
        ("vu", (v0 * u0).norm()),
    ):
        if val > TOL_LIFT + pi.target.tail_bound(u0) + pi.target.tail_bound(v0):
            raise SectionInvalid(f"target families fail the {name} requirement: {val:.3g}")
    if sec_v.defect(0.0) > TOL_LIFT:
        raise SectionInvalid("section does not lift v at the base point")

    _, a_base, z_base = _cut_down(e0, sec_v(0.0))
    if _ortho_enclosures(a_base, z_base) is None:
        raise EnclosureFailed(
            f"the base point fails the smallness conditions at eps0 = {_EPS0}"
        )

    audits: list[QuadratureAudit] = []

    def checks(lam: complex, els: dict[str, Element]):
        e, z, w, r, m, f = (els[k] for k in ("e", "z", "w", "r", "m", "p"))
        group = [els[k] for k in ("a", "z", "w", "x", "r", "p")]
        return {
            "idempotency": f * f - f,
            "lift": pi.apply(lam, f) - v_fam(lam),
            "ef": e * f,
            "fe": f * e,
            "eq17": w * w + w + z * els["m2inv"],
            "quadratic": r * r + m * r + z,
            "commutation": [g * h - h * g for g, h in itertools.combinations(group, 2)],
        }

    kernel = functools.partial(_ortho_point, e_fam, sec_v, audit_sink=audits)
    points = tuple(_point(lam, kernel, checks) for lam in grid_pts)
    return LiftTrace(points, tuple(audits), eps0=_EPS0, label="orthogonal")


# ---------------------------------------------------------------------------
# family induction


def _sum_family(x: ElementFamily, y: ElementFamily) -> ElementFamily:
    """lambda -> x(lambda) + y(lambda), on the smaller of the two radii."""
    return ElementFamily(x.algebra, lambda lam: x(lam) + y(lam), radius=min(x.radius, y.radius))


def _lifted_family(k: int, e_fam: ElementFamily, sec: Section, trace: LiftTrace) -> ElementFamily:
    """The lift of step k: its trace's idempotents on the grid, and
    elsewhere the step's kernel through ``_point``, whose point is not
    kept (within ``memoised_evaluations`` the family memo keeps its value).
    Raises EnclosureFailed (an _Invalid that a later step reads as
    "predecessor") where the point is invalid."""
    kernel = functools.partial(_ortho_point, e_fam, sec)
    on_grid = {pt.lam: pt for pt in trace.points}

    def run(lam: complex) -> Element:
        pt = on_grid[lam] if lam in on_grid else _point(lam, kernel, None)
        if not pt.valid:
            reasons = ", ".join(pt.defects)
            raise _Invalid("predecessor", f"family {k}: no lift at lambda = {lam} ({reasons})")
        return pt.p

    return ElementFamily(sec.pi.source, run, radius=min(sec.target.radius, sec.radius))


def lift_family(
    secs: Sequence[Section],
    grid: Sequence[complex],
    sa: bool = False,
) -> tuple[list[ElementFamily], list[LiftTrace]]:
    """Lift finitely many pairwise orthogonal idempotent families, the
    targets of ``secs``, to pairwise orthogonal idempotent lifts, one
    induction step per family.  Every section must lift through the same
    pi, else ParameterError.

    Step k takes e = p_1 + ... + p_{k-1} (already lifted), u = q_1 + ...
    + q_{k-1} and v = q_k, where e and u are kept as running sums:
    e_k = e_{k-1} + p_{k-1}.  With ``sa`` the sections are symmetrized
    first, which keeps every output self-adjoint on real grids.  Returns
    the lifted families and the per-step traces.  A lifted family returns
    its step's idempotents on the grid and runs the step's kernel
    elsewhere, through the same ``_point``; it raises EnclosureFailed
    wherever the step's point is invalid: its frozen enclosures (or a
    predecessor's) fail, or its kernel raised a per-lambda error.
    """
    if not secs:
        return [], []
    pi = secs[0].pi
    if any(sec.pi != pi for sec in secs):
        raise ParameterError("the sections lift through different homomorphism families")
    e_fam, u_fam = constant_family(pi.source.zero()), constant_family(pi.target.zero())

    lifted: list[ElementFamily] = []
    traces: list[LiftTrace] = []
    for k, sec in enumerate(secs):
        if sa:
            sec = symmetrize(sec)
        try:
            trace = lift_ortho_step(e_fam, u_fam, sec, grid)
        except (SectionInvalid, EnclosureFailed) as exc:
            exc.args = (f"family {k}: {exc.args[0]}" if exc.args else f"family {k}",)
            raise
        traces.append(trace)
        lifted.append(_lifted_family(k, e_fam, sec, trace))
        e_fam = _sum_family(e_fam, lifted[-1])
        u_fam = _sum_family(u_fam, sec.target)
    return lifted, traces


def family_orthogonality(
    fams: Sequence[ElementFamily], grid: Sequence[complex], sa: bool = False
) -> LiftTrace:
    """The joint defects of the families of ``lift_family`` on ``grid``:
    pairwise products, partial sums and, with ``sa``, self-adjointness.
    A point is invalid, for "predecessor", where a family has no value."""

    def kernel(lam: complex) -> dict[str, Element]:
        return {f"p{k}": f(lam) for k, f in enumerate(fams)}

    def checks(lam: complex, els: dict[str, Element]):
        vals = list(els.values())
        return {
            "pairwise-orthogonality": [vi * vj for vi, vj in itertools.permutations(vals, 2)],
            "partial-sum-idempotency": [s * s - s for s in itertools.accumulate(vals)],
            **({"self-adjointness": [v - v.adjoint() for v in vals]} if sa else {}),
        }

    points = tuple(_point(lam, kernel, checks) for lam in _grid_tuple(grid))
    return LiftTrace(points, (), label="orthogonality")
