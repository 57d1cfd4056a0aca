"""Lifting of idempotent families through homomorphism families.

Five algorithms, all sharing one discipline: every contour, margin, and
branch choice is frozen from the base point lambda = 0 and reused on the
whole grid, with per-lambda validity flags recording where the frozen
enclosures still hold.  The local path corrects a section a(lambda) by a
square root with a branch cut along an escape ray; the self-adjoint path
replaces it by a Riesz projection over a mirror-symmetric loop; the
orthogonal-family path runs a Kaplansky-style induction where each new
idempotent is built orthogonal to the sum of its predecessors, one
per-lambda kernel serving both the step and the lifted family.

Every path returns a LiftTrace whose points carry the lifted idempotent
under "p" (``trace.point(lam).p``).  A family from lift_family raises
EnclosureFailed at a lambda where its step's frozen enclosures fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .algebra import BanachAlgebra, Element, SpectrumReport
from .contours import (
    PolygonalArc,
    build_escape_arc,
    build_gamma_pair,
    square_polygon,
)
from .errors import (
    AmbiguousSign,
    EnclosureFailed,
    HalfInSpectrum,
    NoInvolution,
    NotInvertible,
    NotStarCompatible,
    ParameterError,
    SectionInvalid,
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

__all__ = [
    "TOL_IDEM",
    "TOL_COMM",
    "TOL_LIFT",
    "TOL_ORTH",
    "LiftPoint",
    "LiftTrace",
    "lift_trivial",
    "choose_sign",
    "lift_local",
    "lift_local_sa",
    "lift_ortho_step",
    "lift_family",
]

TOL_IDEM = 1e-9
TOL_COMM = 1e-9
TOL_LIFT = 1e-8
TOL_ORTH = 1e-8

_EXACT = 1e-12  # slack for spectra that our algebra kinds report exactly


# ---------------------------------------------------------------------------
# traces


@dataclass(frozen=True)
class LiftPoint:
    """One grid point of a lift.

    ``allowances`` carries, per defect, the tail slack of the defect
    element (nonzero only over truncated-series algebras): the certified
    statement is defect - allowance <= tolerance.
    """

    lam: complex
    valid: bool
    defects: dict[str, float] = field(default_factory=dict)
    elements: dict[str, Element] = field(default_factory=dict)
    allowances: dict[str, float] = field(default_factory=dict)

    @property
    def p(self) -> Element | None:
        return self.elements.get("p")

    def certified(self, key: str) -> float:
        return max(0.0, self.defects[key] - self.allowances.get(key, 0.0))


@dataclass(frozen=True)
class LiftTrace:
    """The grid points of one lift plus what it froze at lambda = 0: the
    contours and branch sheet of the local paths, the smallness bound
    ``eps0`` of an orthogonal step."""

    points: tuple[LiftPoint, ...]
    audits: tuple[QuadratureAudit, ...]
    contours: tuple[ContourData, ...] = ()
    sheet: int = 0
    eps0: float | None = None
    label: str = ""

    def point(self, lam: complex) -> LiftPoint:
        for pt in self.points:
            if pt.lam == lam:
                return pt
        raise KeyError(f"no record at lambda = {lam}")

    def worst(self, key: str) -> float:
        vals = [pt.defects[key] for pt in self.points if pt.valid and key in pt.defects]
        return max(vals) if vals else math.nan

    def worst_certified(self, key: str) -> float:
        vals = [pt.certified(key) for pt in self.points if pt.valid and key in pt.defects]
        return max(vals) if vals else math.nan

    def valid_points(self) -> tuple[LiftPoint, ...]:
        return tuple(pt for pt in self.points if pt.valid)


# ---------------------------------------------------------------------------
# trivial path


def lift_trivial(
    q: ElementFamily, into: BanachAlgebra | None = None
) -> ElementFamily | None:
    """Constant lift when the base spectrum pins the family: sigma(q(0))
    inside {0} lifts to 0, inside {1} lifts to 1, anything else returns
    None so the caller falls through to the main path."""
    alg = into if into is not None else q.algebra
    rep = q(0).spectrum()
    pts = rep.points
    if all(abs(z) <= _EXACT for z in pts):
        return constant_family(alg.zero(), radius=q.radius)
    if all(abs(z - 1) <= _EXACT for z in pts):
        return constant_family(alg.one(), radius=q.radius)
    return None


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
    pts = tuple(complex(g) for g in grid)
    if not pts:
        raise ParameterError("empty lambda grid")
    return pts


def lift_local(
    pi: HomFamily,
    q: ElementFamily,
    sec: Section,
    grid: Sequence[complex],
) -> LiftTrace:
    """Idempotent lift along an escape-ray branch-cut square root.

    Freezes, at lambda = 0: the cut ray P avoiding sigma(1 - 4 r0(0)),
    the margin eps = dist(P, spectrum)/3, the integration loop around P,
    and the branch sheet (the one whose correction lands in the kernel).
    Each grid point recomputes x = -1/2 + (1/2) sqrt(1 - 4 r0(lambda)),
    z = (2a - 1)x and p = a + z, flagging validity by the frozen
    enclosures.
    """
    grid_pts = _grid_tuple(grid)
    a0 = sec(0.0)
    if (pi.apply(0.0, a0) - q(0.0)).norm() > TOL_LIFT:
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
    s0 = sqrt_cut(y0, P, cd, sheet=1, audit_sink=audits)
    x_plus = -0.5 * one + 0.5 * s0
    x_minus = -0.5 * one - 0.5 * s0
    sheet = choose_sign((x_plus, x_minus), pi)

    points: list[LiftPoint] = []
    for lam in grid_pts:
        a = sec(lam)
        try:
            r, r0, y = _local_data(a)
        except NotInvertible:
            points.append(LiftPoint(lam, False, {"invertibility": math.inf}))
            continue
        rep = y.spectrum()
        clear_of_cut = P.distance_to_points(rep.points) > eps
        enclosed = polygon.encloses(rep.points, margin=0.5 * eps)
        if not (clear_of_cut and enclosed):
            points.append(LiftPoint(lam, False, {"enclosure": math.inf}))
            continue
        x = -0.5 * one + 0.5 * sqrt_cut(y, P, cd, sheet=sheet, audit_sink=audits)
        z = (2.0 * a - one) * x
        p = a + z
        gaps = {
            "idempotency": p * p - p,
            "lift": pi.apply(lam, p) - q(lam),
            "commutation": z * a - a * z,
            "eq2": z * z + (2.0 * a - one) * z - r,
            "eq5": x * x + x + r0,
        }
        allow = {k: d.algebra.tail_bound(d) for k, d in gaps.items()}
        # pi only sees the stored part of p, so its tail is extra slack
        allow["lift"] += pi.source.tail_bound(p)
        points.append(
            LiftPoint(
                lam,
                True,
                {k: d.norm() for k, d in gaps.items()},
                {"a": a, "r": r, "r0": r0, "x": x, "z": z, "p": p},
                allow,
            )
        )
    return LiftTrace(tuple(points), tuple(audits), (cd,), sheet, label="local")


# ---------------------------------------------------------------------------
# self-adjoint path


def lift_local_sa(
    pi: HomFamily,
    q: ElementFamily,
    sec: Section,
    grid: Sequence[complex],
) -> LiftTrace:
    """Self-adjoint lift on a real grid via the Riesz projection of the
    symmetrized section over a mirror-symmetric loop around 1.

    Also evaluates the two auxiliary resolvent integrals a0, a1 over the
    loops around 0 and around 1 and records the factorisation residual
    ||(a - p) - (a^2 - a)(a1 - a0)||, which witnesses that the projection
    differs from the section by a kernel element.
    """
    grid_pts = _grid_tuple(grid)
    if any(abs(l.imag) > 1e-12 for l in grid_pts):
        raise ParameterError("self-adjoint lifting runs on real grids")
    alg = pi.source
    if not alg.has_involution:
        raise NoInvolution(f"{alg.kind} has no involution")
    if not pi.star_on_real:
        raise NotStarCompatible("homomorphism family is not a *-family on real lambda")

    sym = symmetrize(sec)
    a0_elt = sym(0.0)
    if (pi.apply(0.0, a0_elt) - q(0.0)).norm() > TOL_LIFT:
        raise SectionInvalid("symmetrized section does not lift the target at 0")

    gamma0 = square_polygon(0j, 1.0 / 3.0)
    gamma1 = square_polygon(1 + 0j, 1.0 / 3.0)
    cd0 = ContourData(gamma0, eps=1.0 / 3.0, label="sa-around-0")
    cd1 = ContourData(gamma1, eps=1.0 / 3.0, label="sa-around-1")
    if not gamma1.mirror_symmetric():
        raise EnclosureFailed("loop around 1 lost its mirror symmetry")

    def covered(rep: SpectrumReport) -> bool:
        for z in rep.points:
            in0 = gamma0.winding_number(z) == 1 and gamma0.distance_to_point(z) >= 1 / 6
            in1 = gamma1.winding_number(z) == 1 and gamma1.distance_to_point(z) >= 1 / 6
            if not (in0 or in1):
                return False
        return True

    if not covered(a0_elt.spectrum()):
        raise EnclosureFailed(
            "spectrum of the symmetrized section at 0 is not split by the two loops"
        )

    one = alg.one()
    audits: list[QuadratureAudit] = []
    points: list[LiftPoint] = []
    for lam in grid_pts:
        a = sym(lam)
        if not covered(a.spectrum()):
            points.append(LiftPoint(lam, False, {"enclosure": math.inf}))
            continue
        p = riesz_projection(a, cd1, audit_sink=audits)
        aux0 = spectral_component_apply(lambda z: 1.0 / (1.0 - z), a, cd0, audit_sink=audits)
        aux1 = spectral_component_apply(lambda z: 1.0 / z, a, cd1, audit_sink=audits)
        gaps = {
            "idempotency": p * p - p,
            "lift": pi.apply(lam, p) - q(lam),
            "commutation": p * a - a * p,
            "self-adjointness": p - p.adjoint(),
            "factorisation": (a - p) - (a * a - a) * (aux1 - aux0),
        }
        allow = {k: d.algebra.tail_bound(d) for k, d in gaps.items()}
        allow["lift"] += alg.tail_bound(p)
        points.append(
            LiftPoint(
                lam,
                True,
                {k: d.norm() for k, d in gaps.items()},
                {"a": a, "p": p, "a0": aux0, "a1": aux1},
                allow,
            )
        )
    return LiftTrace(tuple(points), tuple(audits), (cd0, cd1), label="self-adjoint")


# ---------------------------------------------------------------------------
# orthogonal step


def _ortho_enclosures(a: Element, z: Element, eps0: float) -> Element | None:
    """The frozen smallness conditions: sigma(z) in the eps0 disc,
    sigma(a) within 1/3 of {0, 1}, and sigma(4z(2a-1)^-2) in the 1/3 disc.
    Returns (2a-1)^-2 where they hold, None where they fail."""
    sp_z = z.spectrum()
    if any(abs(w) >= eps0 for w in sp_z.points):
        return None
    sp_a = a.spectrum()
    if any(min(abs(w), abs(1 - w)) >= 1.0 / 3.0 for w in sp_a.points):
        return None
    m = 2.0 * a - a.algebra.one()
    try:
        m2inv = (m * m).inverse()
    except NotInvertible:
        return None
    sp_y = (4.0 * (z * m2inv)).spectrum()
    return m2inv if all(abs(w) < 1.0 / 3.0 for w in sp_y.points) else None


def _cut_down(e: Element, b: Element) -> tuple[Element, Element, Element]:
    """The complement c = 1 - e, a = c b c and z = a^2 - a."""
    c = e.algebra.one() - e
    a = c * b * c
    return c, a, a * a - a


def _ortho_point(
    e_fam: ElementFamily,
    sec_v: Section,
    eps0: float,
    lam: complex,
    audit_sink: list[QuadratureAudit] | None = None,
) -> dict[str, Element] | None:
    """The per-lambda body of the orthogonal step: the elements of the
    idempotent f = a + (1-e) w (2a-1) (stored under "p") at lam, or None
    where the frozen enclosures fail there.  A predecessor failing at lam
    raises its EnclosureFailed."""
    e = e_fam(lam)
    c, a, z = _cut_down(e, sec_v(lam))
    m2inv = _ortho_enclosures(a, z, eps0)
    if m2inv is None:
        return None
    m = 2.0 * a - e.algebra.one()
    w = sqrt_near_one(4.0 * (z * m2inv), audit_sink=audit_sink)
    x = c * w
    r = x * m
    return {"a": a, "z": z, "w": w, "x": x, "r": r, "p": a + r, "e": e, "m2inv": m2inv}


def lift_ortho_step(
    pi: HomFamily,
    e_fam: ElementFamily,
    u_fam: ElementFamily,
    v_fam: ElementFamily,
    sec_v: Section,
    grid: Sequence[complex],
) -> LiftTrace:
    """One induction step: build an idempotent family f lifting v and
    orthogonal to the already-lifted e (pi e = u, u v = v u = 0).

    b is the supplied section of v; a = (1-e) b (1-e) is cut down to the
    complement of e, z = a^2 - a measures how far a is from idempotent,
    and the correction r = (1-e) w (2a-1) with w solving
    w^2 + w + z(2a-1)^{-2} = 0 restores idempotency without leaving the
    complement.  eps0 is the largest dyadic 2^-k whose smallness
    conditions hold at the base point.  A grid point is invalid where
    those conditions fail or e cannot be evaluated (a predecessor's
    enclosures failed there).
    """
    grid_pts = _grid_tuple(grid)
    alg = pi.source
    one = alg.one()

    e0, u0, v0 = e_fam(0.0), u_fam(0.0), v_fam(0.0)
    if (pi.apply(0.0, e0) - u0).norm() > TOL_LIFT:
        raise SectionInvalid("lifted predecessor does not map to its target")
    for name, val in (
        ("u", (u0 * u0 - u0).norm()),
        ("v", (v0 * v0 - v0).norm()),
        ("uv", (u0 * v0).norm()),
        ("vu", (v0 * u0).norm()),
    ):
        if val > TOL_ORTH + pi.target.tail_bound(u0) + pi.target.tail_bound(v0):
            raise SectionInvalid(f"target families fail the {name} requirement: {val:.3g}")
    if (sec_v.defect(0.0)) > TOL_LIFT:
        raise SectionInvalid("section does not lift v at the base point")

    _, a_base, z_base = _cut_down(e0, sec_v(0.0))
    eps0 = 0.0
    for k in range(1, 41):
        cand = 2.0**-k
        if _ortho_enclosures(a_base, z_base, cand) is not None:
            eps0 = cand
            break
    if eps0 == 0.0:
        raise EnclosureFailed(
            "no dyadic smallness bound admits the base point enclosures"
        )

    audits: list[QuadratureAudit] = []
    points: list[LiftPoint] = []
    for lam in grid_pts:
        try:
            els = _ortho_point(e_fam, sec_v, eps0, lam, audits)
        except EnclosureFailed:
            points.append(LiftPoint(lam, False, {"predecessor": math.inf}))
            continue
        if els is None:
            points.append(LiftPoint(lam, False, {"enclosure": math.inf}))
            continue
        e, a, z, w, r, f = (els[k] for k in ("e", "a", "z", "w", "r", "p"))
        m = 2.0 * a - one
        group = {k: els[k] for k in ("a", "z", "w", "x", "r", "p")}
        commutators = [
            g1 * g2 - g2 * g1
            for n1, g1 in group.items()
            for n2, g2 in group.items()
            if n1 < n2
        ]
        worst_comm = max(commutators, key=lambda d: d.norm())
        gaps = {
            "idempotency": f * f - f,
            "ef": e * f,
            "fe": f * e,
            "lift": pi.apply(lam, f) - v_fam(lam),
            "eq17": w * w + w + z * els["m2inv"],
            "quadratic": r * r + m * r + z,
            "commutation": worst_comm,
        }
        allow = {k: d.algebra.tail_bound(d) for k, d in gaps.items()}
        allow["lift"] += alg.tail_bound(f)
        points.append(
            LiftPoint(lam, True, {k: d.norm() for k, d in gaps.items()}, els, allow)
        )
    return LiftTrace(tuple(points), tuple(audits), eps0=eps0, label="orthogonal")


# ---------------------------------------------------------------------------
# family induction


def lift_family(
    pi: HomFamily,
    qs: Sequence[ElementFamily],
    secs: Sequence[Section],
    grid: Sequence[complex],
    sa: bool = False,
    cap: int = 64,
) -> tuple[list[ElementFamily], list[LiftTrace]]:
    """Lift finitely many pairwise orthogonal idempotent families to
    pairwise orthogonal idempotent lifts, one induction step per family.

    Step k takes e = p_1 + ... + p_{k-1} (already lifted, memoized),
    u = q_1 + ... + q_{k-1} and v = q_k.  With ``sa`` the sections are
    symmetrized first, which keeps every output self-adjoint on real
    grids.  Returns the lifted families and the per-step traces.  A
    lifted family returns its step's idempotents on the grid and runs
    the step's kernel elsewhere; it raises EnclosureFailed wherever the
    step's frozen enclosures (or a predecessor's) fail.
    """
    if len(qs) != len(secs):
        raise ParameterError("need exactly one section per target family")
    if len(qs) > cap:
        raise ParameterError(f"family list exceeds the configured cap {cap}")
    alg = pi.source
    balg = pi.target

    lifted: list[ElementFamily] = []
    traces: list[LiftTrace] = []
    for k, (qk, seck) in enumerate(zip(qs, secs)):
        if sa:
            seck = symmetrize(seck)
        prev = list(lifted)

        def e_eval(lam: complex, _prev=prev) -> Element:
            total = alg.zero()
            for fam in _prev:
                total = total + fam(lam)
            return total

        def u_eval(lam: complex, _k=k) -> Element:
            total = balg.zero()
            for fam in qs[:_k]:
                total = total + fam(lam)
            return total

        e_fam = ElementFamily(alg, e_eval, radius=min((f.radius for f in prev), default=math.inf))
        u_fam = ElementFamily(balg, u_eval, radius=min((f.radius for f in qs[:k]), default=math.inf))
        try:
            trace = lift_ortho_step(pi, e_fam, u_fam, qk, seck, grid)
        except (SectionInvalid, EnclosureFailed) as exc:
            exc.args = (f"family {k}: {exc.args[0]}" if exc.args else f"family {k}",)
            raise
        traces.append(trace)

        # None marks a lambda where the step's enclosures fail
        cache: dict[complex, Element | None] = {pt.lam: pt.p for pt in trace.points}

        def f_eval(lam: complex, _k=k, _e=e_fam, _sec=seck, _eps0=trace.eps0, _cache=cache) -> Element:
            lam = complex(lam)
            if lam not in _cache:
                els = _ortho_point(_e, _sec, _eps0, lam)
                _cache[lam] = None if els is None else els["p"]
            p = _cache[lam]
            if p is None:
                raise EnclosureFailed(f"family {_k}: frozen enclosures fail at lambda = {lam}")
            return p

        lifted.append(
            ElementFamily(alg, f_eval, radius=min(qk.radius, seck.radius))
        )
    return lifted, traces
