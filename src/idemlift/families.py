"""Analytic families of elements and homomorphisms, evaluated pointwise.

Families are plain evaluator closures with a declared validity radius,
never stored power series: analyticity of everything built from them is
inherited structurally (compositions of analytic maps with contour data
frozen at the base point).  Sections are right inverses of a
homomorphism family along a target family, supplied per construction
rather than by abstract existence arguments.

Inside ``memoised_evaluations`` (which ``run_verification`` opens for
the length of one run) each family and section is evaluated at most
once per lambda: elements are immutable, so a repeated call returns the
stored value.  Outside it nothing is stored.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from typing import Iterator

from .algebra import BanachAlgebra, Element, alg_exp
from .errors import (
    NoInvolution,
    NotIdempotentInput,
    NotStarCompatible,
    OutOfRadius,
    ParameterError,
)
from .frozen import Frozen

__all__ = [
    "ElementFamily",
    "HomFamily",
    "Section",
    "constant_family",
    "hom_apply",
    "make_section",
    "symmetrize",
    "exp_conjugation_family",
    "kernel_residual",
    "memoised_evaluations",
]

# (id of a family or section, lambda) -> (that family or section, its
# value); holding the owner keeps its id from being reused while stored
_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar("idemlift_memo", default=None)


@contextlib.contextmanager
def memoised_evaluations() -> Iterator[None]:
    """Evaluate each ElementFamily and Section at most once per lambda
    inside the block; every stored value goes when the block ends."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _check_radius(lam: complex, radius: float, what: str) -> None:
    if not abs(lam) < radius:  # a NaN lambda lies in no disc
        raise OutOfRadius(f"|lambda| = {abs(lam):.6g} is outside the {what} radius {radius:.6g}")


def _evaluate(owner: "ElementFamily | Section", lam: complex, algebra: BanachAlgebra) -> Element:
    """``owner.evaluator`` at lam, checked to lie in ``algebra``; looked
    up first inside ``memoised_evaluations``."""
    lam = complex(lam)
    memo = _MEMO.get()
    if memo is not None:
        hit = memo.get((id(owner), lam))
        if hit is not None:
            return hit[1]
    out = owner.evaluator(lam)
    algebra._own(out)
    if memo is not None:
        memo[id(owner), lam] = (owner, out)
    return out


def _check_positive_radius(record: "ElementFamily | HomFamily | Section") -> None:
    """The ``__post_init__`` of every family record: its validity radius
    must be positive.  ``not radius > 0`` also refuses NaN, which would
    switch the radius check off."""
    if not record.radius > 0:
        raise ParameterError("validity radius must be positive")


class ElementFamily(Frozen):
    """Analytic map lambda -> element of a fixed algebra, around 0."""

    __slots__ = ("algebra", "evaluator", "radius")
    _defaults = {"radius": math.inf}

    __post_init__ = _check_positive_radius

    def __call__(self, lam: complex) -> Element:
        _check_radius(lam, self.radius, "family")
        return _evaluate(self, lam, self.algebra)


class HomFamily(Frozen):
    """Analytic family of algebra homomorphisms pi(lambda): A -> B.

    ``embed`` (optional) is a pointwise right inverse, which
    ``make_section`` uses: pi(lambda)(embed(lambda, y)) = y for y in B.
    ``star_on_real`` declares pi(lambda) a *-homomorphism for real
    lambda, which the self-adjoint lifting paths require.

    Each pi(lambda) is expected to be norm-nonincreasing.  The lifting
    routines turn tail bounds on source elements into allowances on
    downstairs defects, and that accounting is an over-estimate only
    for contractive maps.
    """

    __slots__ = ("source", "target", "evaluator", "embed", "radius", "star_on_real", "label")
    _defaults = {"embed": None, "radius": math.inf, "star_on_real": False, "label": ""}

    __post_init__ = _check_positive_radius

    def apply(self, lam: complex, x: Element) -> Element:
        _check_radius(lam, self.radius, "homomorphism")
        self.source._own(x)
        out = self.evaluator(complex(lam), x)
        self.target._own(out)
        return out


class Section(Frozen):
    """Analytic right inverse: pi(lambda)(section(lambda)) = target(lambda)
    for |lambda| < ``radius``, which must be positive, as for every family."""

    __slots__ = ("pi", "target", "evaluator", "radius", "label")
    _defaults = {"radius": math.inf, "label": ""}

    __post_init__ = _check_positive_radius

    def __call__(self, lam: complex) -> Element:
        _check_radius(lam, self.radius, "section")
        return _evaluate(self, lam, self.pi.source)

    def defect(self, lam: complex) -> float:
        """Lifting defect ||pi(lam) section(lam) - target(lam)||."""
        return (self.pi.apply(lam, self(lam)) - self.target(lam)).norm()


def constant_family(x: Element, radius: float = math.inf) -> ElementFamily:
    return ElementFamily(x.algebra, lambda lam: x, radius=radius)


def hom_apply(pi: HomFamily, x: ElementFamily, lam: complex) -> Element:
    """pi(lambda)(x(lambda)) with both validity radii enforced."""
    _check_radius(lam, min(pi.radius, x.radius), "family")
    return pi.apply(lam, x(lam))


def make_section(pi: HomFamily, target: ElementFamily) -> Section:
    """Build a section by re-embedding the target value at each lambda
    through ``pi.embed``.

    An evaluation homomorphism on a series algebra embeds the value as a
    constant series; a split algebra (dual numbers, block triangles,
    unitizations, products thereof) injects it into the complement of
    the kernel.  Either way sigma(section(0)) = sigma(target(0)), so the
    spectral requirements on sections hold automatically.  Raises
    ParameterError when ``pi`` has no embedding.
    """
    if pi.embed is None:
        raise ParameterError(f"{pi.label or 'this'} family has no embedding")
    emb = pi.embed

    def run(lam: complex) -> Element:
        return emb(lam, target(lam))

    return Section(
        pi=pi,
        target=target,
        evaluator=run,
        radius=min(pi.radius, target.radius),
        label="embedded section",
    )


def symmetrize(sec: Section) -> Section:
    """Self-adjoint version (a + a*)/2 of a section, for real lambda.

    The result still lifts the target on the real axis when pi is a
    *-homomorphism family there and the target is self-adjoint.
    """
    alg = sec.pi.source
    if not alg.has_involution:
        raise NoInvolution(f"{alg.kind} has no involution to symmetrize with")
    if not sec.pi.star_on_real:
        raise NotStarCompatible("homomorphism family is not a *-family on real lambda")

    def run(lam: complex) -> Element:
        a = sec(lam)
        return 0.5 * (a + a.adjoint())

    return Section(
        pi=sec.pi,
        target=sec.target,
        evaluator=run,
        radius=sec.radius,
        label=(sec.label + " symmetrized").strip(),
    )


def exp_conjugation_family(e: Element, x: Element) -> ElementFamily:
    """The entire family of idempotents lambda -> exp(-lambda x) e exp(lambda x)."""
    if (e * e - e).norm() > 1e-12:
        raise NotIdempotentInput("conjugation seed is not idempotent")

    def run(lam: complex) -> Element:
        if lam == 0:
            return e
        return alg_exp(-lam * x) * e * alg_exp(lam * x)

    return ElementFamily(e.algebra, run)


def kernel_residual(pi: HomFamily, x: Element, lam: complex) -> float:
    """||pi(lambda) x||: zero iff x is in the kernel (up to tails)."""
    return pi.apply(lam, x).norm()
