"""Worked-example scenarios and finite-dimensional testbeds.

Each builder wires a concrete source algebra, target algebra,
homomorphism family, target idempotent families, and sections into a
Scenario record; run_verification executes the lifting paths the
scenario declares, together with its hypothesis checklist and probes,
and returns a JSON-ready report.

A builder takes only a seed, which draws any random section noise.  Its
algebras and sizes are fixed and stated in its docstring, so a report's
scenario id and seed say exactly what it verified.

The registry distinguishes two target sets because the local and family
paths want different data: a single (target, section) pair drives the
local and self-adjoint paths, a list of pairwise orthogonal families
drives the induction, and spectrally pinned targets short-circuit
through the trivial path.
"""

from __future__ import annotations

import itertools
import math
import numbers
import time
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .algebra import (
    BlockTriangularAlgebra,
    ConvolutionAlgebra,
    DualAlgebra,
    Element,
    MatrixAlgebra,
    ProductAlgebra,
    UnitizationAlgebra,
    WienerAlgebra,
)
from .errors import IdemliftError, ParameterError, UnknownScenario
from .families import (
    ElementFamily,
    HomFamily,
    Section,
    exp_conjugation_family,
    memoised_evaluations,
)
from .frozen import Frozen
from .lifting import (
    TOL_IDEM,
    TOL_LIFT,
    LiftTrace,
    _grid_tuple,
    _worst,
    family_orthogonality,
    lift_family,
    lift_local,
    lift_local_sa,
    lift_trivial,
)
from .report import build_report, check_record, run_record, trace_rows

__all__ = [
    "Scenario",
    "build_example1",
    "build_example2",
    "build_example3",
    "build_dual_testbed",
    "build_block_testbed",
    "remark3_probe",
    "build_scenario",
    "list_scenarios",
    "run_verification",
    "worst_row_check",
]

ORACLE_TOL = 1e-7
_SIGN_STEPS = 50  # Newton steps of the sign-function oracle before it gives up
_SIGN_ETA = 1e-15  # the roundoff level its stop test aims at


class Scenario(Frozen):
    """A fully wired verification scenario.  Its algebras are π's
    (``pi.source`` and ``pi.target``), and the targets of its lifts are
    read off their sections (``local_section.target`` and the targets of
    ``family_sections``).

    ``theorem_paths`` must be a tuple of ``int`` path numbers, each a row
    of ``_PATHS`` whose input the scenario has (path 1 needs
    ``local_section`` or ``trivial_targets``, path 2 ``local_section``,
    paths 3-6 ``family_sections``), and no two may write records of one
    name (3 and 5, 4 and 6), else ``ParameterError``."""

    __slots__ = (
        "id", "pi", "grid", "theorem_paths", "expected", "local_section",
        "trivial_targets", "family_sections", "probes", "oracle_family",
    )
    _defaults = {"expected": "lift-succeeds", "local_section": None, "trivial_targets": (),
                 "family_sections": (), "probes": (), "oracle_family": None}

    def __post_init__(self) -> None:
        paths = self.theorem_paths
        # exactly ints: True and 1.0 equal 1, and would be written as true and 1.0
        if type(paths) is not tuple or any(type(path) is not int for path in paths):
            raise ParameterError(f"theorem_paths must be a tuple of int path numbers, got {paths!r}")
        named: dict[str, int] = {}
        for path in paths:
            if path not in _PATHS:
                raise ParameterError(f"unknown theorem path {path!r}; valid paths: {sorted(_PATHS)}")
            name, _, inputs, _ = _PATHS[path]
            if name in named:
                raise ParameterError(f"theorem paths {named[name]} and {path} both write {name!r} records")
            named[name] = path
            if not any(getattr(self, field) for field in inputs):
                raise ParameterError(f"theorem path {path} needs {' or '.join(inputs)}")


def _default_grid() -> tuple[float, ...]:
    return tuple(np.linspace(-0.5, 0.5, 21))


def _dense_projection(rep: np.ndarray, center: complex, radius: float) -> np.ndarray:
    """Spectral projector of a dense matrix onto its eigenvalues in the
    disc |z - center| < radius, from the matrix sign function (Higham,
    *Functions of Matrices*, SIAM 2008, ch. 5).

    The Cayley step S = (A - c - r)^-1 (A - c + r) maps the disc to the
    left half-plane; Newton's S <- (S + S^-1)/2 converges quadratically
    to sign(S), and P = (I - sign S)/2.  No quadrature is involved, so
    the oracle shares no method with the contour code it checks.  The
    iteration stops once its last change squared is below roundoff
    relative to S (Higham's test, ch. 5).  Raises LinAlgError where the
    Cayley step or an iterate is singular, or where _SIGN_STEPS steps do
    not converge (an eigenvalue on or next to the circle).
    """
    eye = np.eye(rep.shape[0])
    shifted = rep - center * eye
    s = np.linalg.solve(shifted - radius * eye, shifted + radius * eye)
    for _ in range(_SIGN_STEPS):
        s_inv = np.linalg.inv(s)
        s_next = 0.5 * (s + s_inv)
        change = np.linalg.norm(s_next - s, 1)
        s = s_next
        if change**2 <= _SIGN_ETA * np.linalg.norm(s, 1) / np.linalg.norm(s_inv, 1):
            return 0.5 * (eye - s)
    raise np.linalg.LinAlgError(f"sign iteration did not converge in {_SIGN_STEPS} steps")


def _oracle_check(name: str, pairs: Iterable[tuple[np.ndarray, np.ndarray]]) -> dict:
    """The worst distance between each lifted p and the dense spectral
    projector of its section value a onto the spectrum near 1, over the
    matrix ``pairs`` (a, p); NaN, a failed check, where there is no pair.
    Where the sign iteration finds no projector, a failed check whose note
    names why."""
    try:
        worst = _worst(
            float(np.linalg.norm(p_mat - _dense_projection(a_mat, 1.0, 0.45), 2)) for a_mat, p_mat in pairs
        )
    except np.linalg.LinAlgError as exc:
        return check_record(name, math.nan, ORACLE_TOL, note=f"oracle failed: {exc}")
    return check_record(name, worst, ORACLE_TOL)


def _spectral_gap(x: Element, center: complex = 0.0) -> float:
    """How far the spectrum of ``x`` reaches from ``center``."""
    return _worst(abs(z - center) for z in x.spectrum().points)


def _stored(x: Element) -> float:
    """The norm the stored data of ``x`` shows, its certified tail set aside."""
    return x.algebra.norm_parts(x)[1]


# ---------------------------------------------------------------------------
# dual-number testbed


def build_dual_testbed(seed: int = 0) -> Scenario:
    """A = M_4 adjoined a square-zero infinitesimal, B = M_4, pi constant.

    q(lambda) = exp(lambda K) P exp(-lambda K) rotates the seed
    projection P = diag(1, 0, 1, 0) by the one-parameter unitary group
    of the skew generator K with K[0, 1] = 1 and K[2, 3] = 2; the three
    family targets rotate the first three diagonal units the same way.
    So the targets are self-adjoint idempotent families on real lambda
    and all four theorem paths have honest work to do.  Sections carry
    deliberately messy infinitesimal parts drawn from the seed.  The
    kernel is nilpotent, so all defects should sit at quadrature
    accuracy.
    """
    n = 4
    K = np.zeros((n, n), dtype=complex)
    K[0, 1], K[1, 0], K[2, 3], K[3, 2] = 1.0, -1.0, 2.0, -2.0
    base = MatrixAlgebra(n)
    dual = DualAlgebra(base)
    pi = HomFamily(
        dual,
        base,
        lambda lam, x: dual.base_part(x),
        embed=lambda lam, b: dual.from_parts(b, base.zero()),
        star_on_real=True,
        label="forget-infinitesimal",
    )

    def rotated(diagonal: Sequence[float]) -> ElementFamily:
        return exp_conjugation_family(base.wrap(np.diag(diagonal)), base.wrap(-K))

    q = rotated([1.0, 0.0, 1.0, 0.0])
    rng = np.random.default_rng(seed)
    noise = base.random_element(rng)
    sec = Section(
        pi,
        q,
        lambda lam: dual.from_parts(q(lam), (0.3 + 0.2 * lam) * noise),
        label="messy-infinitesimal",
    )

    fam_targets = tuple(rotated(np.eye(n)[i]) for i in range(3))
    fam_noises = [base.random_element(rng) for _ in fam_targets]
    fam_secs = tuple(
        Section(
            pi,
            tgt,
            lambda lam, _t=tgt, _n=nz: dual.from_parts(_t(lam), (0.2 + 0.1 * lam) * _n),
        )
        for tgt, nz in zip(fam_targets, fam_noises)
    )

    def kernel_probe(rng_: np.random.Generator) -> list[dict]:
        kernel = [dual.from_parts(base.zero(), base.random_element(rng_)) for _ in range(5)]
        worst = _worst(v for k in kernel for v in ((k * k).norm(), _spectral_gap(k)))
        return [check_record("square-zero-kernel", worst, 0.0)]

    def sa_probe(rng_: np.random.Generator) -> list[dict]:
        worst = _worst((q(lam) - q(lam).adjoint()).norm() for lam in (-0.5, 0.25, 0.5))
        return [check_record("rotated-target-self-adjoint", worst, 1e-12)]

    return Scenario(
        id="dual-testbed",
        pi=pi,
        grid=_default_grid(),
        theorem_paths=(1, 2, 3, 4),
        local_section=sec,
        family_sections=fam_secs,
        probes=(("square-zero-kernel", kernel_probe), ("self-adjoint-targets", sa_probe)),
    )


# ---------------------------------------------------------------------------
# block-triangular testbed


def build_block_testbed(seed: int = 0) -> Scenario:
    """Block upper-triangular 4x4 source, with 2x2 diagonal blocks, over
    the product M_2 x M_2 of its diagonal blocks.

    The homomorphism family reads the diagonal blocks after conjugating
    by exp(lambda N) with a square-zero N inside the top block, so pi is
    genuinely non-constant while exp(lambda N) = 1 + lambda N stays
    exact.  A corner twist would be invisible here: commutators with a
    strictly upper corner land back in the corner, which the diagonal
    projection kills.  The algebra has no involution, so only the local
    and family paths run.  Sections add corner noise drawn from the seed.
    """
    k = m = 2
    block = BlockTriangularAlgebra(k, m)
    prod = ProductAlgebra((MatrixAlgebra(k), MatrixAlgebra(m)))
    size = block.size
    twist = np.zeros((size, size), dtype=complex)
    twist[0, 1] = 1.0

    def conj_in(lam: complex, mat: np.ndarray) -> np.ndarray:
        fwd = np.eye(size) + lam * twist
        bwd = np.eye(size) - lam * twist
        return fwd @ mat @ bwd

    def run(lam: complex, x: Element) -> Element:
        mat = conj_in(lam, block.matrix_representation(x))
        return prod.from_components(
            prod.factors[0].wrap(mat[:k, :k]), prod.factors[1].wrap(mat[k:, k:])
        )

    def emb(lam: complex, y: Element) -> Element:
        top = prod.factors[0].matrix_representation(prod.component(y, 0))
        bot = prod.factors[1].matrix_representation(prod.component(y, 1))
        mat = np.zeros((size, size), dtype=complex)
        mat[:k, :k] = top
        mat[k:, k:] = bot
        return block.wrap(conj_in(-lam, mat))

    pi = HomFamily(block, prod, run, embed=emb, label="twisted-diagonal")

    top_idem = np.zeros((k, k), dtype=complex)
    top_idem[0, 0] = 1.0
    bot_idem = np.zeros((m, m), dtype=complex)
    bot_idem[0, 0] = 1.0

    q_top = ElementFamily(
        prod,
        lambda lam: prod.from_components(
            prod.factors[0].wrap(top_idem), prod.factors[1].zero()
        ),
    )
    q_bot = ElementFamily(
        prod,
        lambda lam: prod.from_components(
            prod.factors[0].zero(), prod.factors[1].wrap(bot_idem)
        ),
    )

    rng = np.random.default_rng(seed)
    corners = [rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m)) for _ in range(2)]

    def make_sec(tgt: ElementFamily, corner: np.ndarray) -> Section:
        def evaluate(lam: complex) -> Element:
            base_elt = emb(lam, tgt(lam))
            noise = np.zeros((size, size), dtype=complex)
            noise[:k, k:] = (0.4 + 0.2 * lam) * corner
            return base_elt + block.wrap(conj_in(-lam, noise))

        return Section(pi, tgt, evaluate, label="corner-noise")

    sec_top = make_sec(q_top, corners[0])
    sec_bot = make_sec(q_bot, corners[1])

    def kernel_probe(rng_: np.random.Generator) -> list[dict]:
        def corner_element() -> Element:
            corner = np.zeros((size, size), dtype=complex)
            corner[:k, k:] = rng_.standard_normal((k, m))
            return block.wrap(corner)

        kernel = [corner_element() for _ in range(5)]
        worst = _worst(v for elt in kernel for v in ((elt * elt).norm(), _spectral_gap(elt)))
        return [check_record("square-zero-kernel", worst, 0.0)]

    def twist_probe(rng_: np.random.Generator) -> list[dict]:
        # pi(0.4) and pi(0) must genuinely differ on a top-block element,
        # while corner elements stay in the kernel for every lambda
        lower = np.zeros((size, size), dtype=complex)
        lower[1, 0] = 1.0
        moved = (pi.apply(0.4, block.wrap(lower)) - pi.apply(0.0, block.wrap(lower))).norm()
        corner = np.zeros((size, size), dtype=complex)
        corner[0, k] = 1.0
        killed = _worst(pi.apply(lam, block.wrap(corner)).norm() for lam in (-0.5, 0.0, 0.4))
        return [
            check_record(
                "family-genuinely-moves",
                moved,
                0.1,
                lower_bound=True,
                note="pi(0.4) and pi(0) differ visibly on a top-block unit",
            ),
            check_record("corner-stays-in-kernel", killed, 0.0),
        ]

    return Scenario(
        id="block-testbed",
        pi=pi,
        grid=_default_grid(),
        theorem_paths=(1, 5),
        local_section=sec_top,
        family_sections=(sec_top, sec_bot),
        probes=(("square-zero-kernel", kernel_probe), ("non-constant-family", twist_probe)),
    )


# ---------------------------------------------------------------------------
# worked example 1: series evaluated on the disc


def _evaluation_hom(degree: int) -> tuple[MatrixAlgebra, WienerAlgebra, HomFamily]:
    """Scalar power series truncated at ``degree``, and the family of
    evaluations at lambda in the unit disc, which constants re-embed.
    Evaluation at a real lambda is a *-homomorphism."""
    scalars = MatrixAlgebra(1)
    series = WienerAlgebra(scalars, degree)
    pi = HomFamily(
        series,
        scalars,
        lambda lam, f: series.evaluate(f, lam),
        embed=lambda lam, b: series.from_coeffs([b]),
        radius=1.0,
        star_on_real=True,
        label="evaluate-at-lambda",
    )
    return scalars, series, pi


def build_example1(seed: int = 0) -> Scenario:
    """Evaluation of scalar power series, truncated at degree 12, at
    points of the disc.

    The kernel of an evaluation homomorphism is full of elements with
    large spectra, so only spectrally pinned targets are lifted (the
    trivial path); the scenario's main content is the probe pair: the
    operator norm of every pi(lambda) equals 1, and the involution is
    isometric on the scalar base.  Nothing here is drawn at random, so
    the seed is unused.
    """
    scalars, series, pi = _evaluation_hom(12)

    q_one = ElementFamily(scalars, lambda lam: scalars.one(), radius=1.0)
    q_zero = ElementFamily(scalars, lambda lam: scalars.zero(), radius=1.0)

    def norm_probe(rng_: np.random.Generator) -> list[dict]:
        basis = series.probe_basis()

        def op_norm(lam: complex) -> float:
            return _worst(pi.apply(lam, b).norm() / b.norm() for b in basis)

        worst = _worst(abs(op_norm(lam) - 1.0) for lam in (0.0, 0.3, -0.62, 0.5j, 0.7 + 0.2j, -0.9))
        return [check_record("norm-constancy", worst, 1e-10)]

    def involution_probe(rng_: np.random.Generator) -> list[dict]:
        bound = series.involution_bound
        samples = [series.random_element(rng_) for _ in range(50)]
        worst_ratio = _worst(f.adjoint().norm() / f.norm() for f in samples)
        const = series.from_scalar_coeffs([1.7 - 0.4j])
        const_gap = abs(const.adjoint().norm() - bound * const.norm())
        return [
            check_record("involution-ratio-bounded", worst_ratio, bound + 1e-12),
            check_record("involution-bound-attained-on-constants", const_gap, 1e-12),
        ]

    def evaluation_probe(rng_: np.random.Generator) -> list[dict]:
        f = series.from_scalar_coeffs([1.0, 1.0])
        got = pi.apply(0.5, f)
        gap = (got - scalars.wrap([[1.5]])).norm()
        return [check_record("evaluation-sample", gap, 0.0)]

    return Scenario(
        id="example1",
        pi=pi,
        grid=_default_grid(),
        theorem_paths=(1,),
        trivial_targets=(q_one, q_zero),
        probes=(
            ("norm-constancy", norm_probe),
            ("involution", involution_probe),
            ("evaluation-sample", evaluation_probe),
        ),
    )


# ---------------------------------------------------------------------------
# worked example 2: unitized convolution algebras


def _unitized_evaluation(n_grid: int, degree: int) -> tuple:
    """Series of degree at most ``degree`` over the ``n_grid``-point
    convolution algebra, evaluated at lambda, between the unitizations.

    Returns the convolution algebra, the series algebra, the two
    unitizations ``up`` and ``down``, the evaluation ``run(lam, x)`` from
    ``up`` to ``down``, its right inverse ``emb(lam, y)`` by constant
    series, and ``kernel_noise(h, lam)``: the series h minus the
    constant series with h's value at lambda, which lies in
    ker run(lam) exactly.
    """
    conv = ConvolutionAlgebra(n_grid)
    series = WienerAlgebra(conv, degree)
    up = UnitizationAlgebra(series)
    down = UnitizationAlgebra(conv)

    def run(lam: complex, x: Element) -> Element:
        f = up.radical_part(x)
        return down.from_parts(series.evaluate(f, lam), up.scalar_part(x))

    def emb(lam: complex, y: Element) -> Element:
        return up.from_parts(series.from_coeffs([down.radical_part(y)]), down.scalar_part(y))

    def kernel_noise(h: Element, lam: complex) -> Element:
        val = series.evaluate(h, lam)
        return up.from_parts(h - series.from_coeffs([val]), 0.0)

    return conv, series, up, down, run, emb, kernel_noise


def _noise_series(conv: ConvolutionAlgebra, series: WienerAlgebra, rng) -> Element:
    # keep the noise comfortably inside the certified-inverse regime: tail
    # bounds grow geometrically in the Neumann ratio, so a loud section
    # would still lift but with worthless (huge) allowances
    return series.from_coeffs([conv.random_element(rng, 0.04) for _ in range(series.degree)])


def build_example2(seed: int = 0) -> Scenario:
    """Series of degree at most 6 over the radical 32-point convolution
    algebra, evaluated at lambda, between the unitizations.

    Every element of the convolution algebra is nilpotent, so the
    unitized algebras have one-point spectra and the kernel hypothesis
    holds exactly; the only idempotents downstairs are 0 and 1, which
    makes the family induction run on a deliberately non-idempotent
    section of the constant target 1, whose kernel noise is drawn from
    the seed.  Its defects are certified modulo the carried tail bounds.
    """
    conv, series, up, down, run, emb, kernel_noise = _unitized_evaluation(32, 6)
    n_grid = conv.n_grid
    pi = HomFamily(up, down, run, embed=emb, star_on_real=True, label="evaluate-unitized")

    q_one = ElementFamily(down, lambda lam: down.one())
    q_zero = ElementFamily(down, lambda lam: down.zero())

    h = _noise_series(conv, series, np.random.default_rng(seed))
    sec_one = Section(
        pi, q_one, lambda lam: up.one() + (0.25 + 0.1 * lam) * kernel_noise(h, lam)
    )

    def spectrum_probe(rng_: np.random.Generator) -> list[dict]:
        # each spectrum is the one point of its scalar part: how far it
        # reaches from that point, and how many more points it has
        samples = [x for _ in range(10) for x in (down.random_element(rng_), up.random_element(rng_))]
        spectra = [(x.algebra.scalar_part(x), x.spectrum().points) for x in samples]
        worst = _worst(v for c, pts in spectra for v in (_worst(abs(z - c) for z in pts), float(len(pts) - 1)))
        return [check_record("one-point-spectra", worst, 0.0)]

    def nilpotency_probe(rng_: np.random.Generator) -> list[dict]:
        def top_power(f: Element) -> Element:
            power = f
            for _ in range(n_grid - 1):
                power = power * f
            return power

        samples = [conv.random_element(rng_, 2.0) for _ in range(3)]
        worst = _worst(top_power(f).norm() for f in samples)
        return [check_record("nilpotency-at-grid-size", worst, 0.0)]

    def decay_probe(rng_: np.random.Generator) -> list[dict]:
        ones = conv.sample(lambda t: 1.0)
        base_norm = ones.norm()
        slack = 1.0 + 10.0 / n_grid
        ratios = []
        power = ones
        for n_fold in range(2, 7):
            power = power * ones
            ratios.append(power.norm() / (base_norm**n_fold / math.factorial(n_fold) * slack))
        return [check_record("factorial-decay", _worst(ratios), 1.0)]

    return Scenario(
        id="example2",
        pi=pi,
        grid=_default_grid(),
        theorem_paths=(1, 3),
        trivial_targets=(q_one, q_zero),
        family_sections=(sec_one,),
        probes=(
            ("one-point-spectra", spectrum_probe),
            ("nilpotency", nilpotency_probe),
            ("factorial-decay", decay_probe),
        ),
    )


# ---------------------------------------------------------------------------
# worked example 3: product with a matrix block


def build_example3(seed: int = 0) -> Scenario:
    """Unitized series algebra times the full matrix block M_3: series of
    degree at most 4 over the 16-point convolution algebra, evaluated at
    lambda in the first component.

    The homomorphism family evaluates the series component and leaves
    the matrix component alone, so its kernel sits entirely inside the
    radical of the first factor and kernel spectra are one-point; the
    second target family is a genuinely non-constant conjugation orbit
    in the matrix block, which pi carries verbatim.  The sections' kernel
    noise is drawn from the seed.
    """
    conv, series, up, down, ev_run, ev_emb, ev_noise = _unitized_evaluation(16, 4)
    n1 = 3
    mats = MatrixAlgebra(n1)
    source = ProductAlgebra((up, mats))
    target = ProductAlgebra((down, mats))

    def run(lam: complex, x: Element) -> Element:
        return target.from_components(ev_run(lam, source.component(x, 0)), source.component(x, 1))

    def emb(lam: complex, y: Element) -> Element:
        return source.from_components(ev_emb(lam, target.component(y, 0)), target.component(y, 1))

    pi = HomFamily(source, target, run, embed=emb, label="evaluate-first-component")

    e1 = np.zeros((n1, n1), dtype=complex)
    e1[0, 0] = 1.0
    x1 = np.zeros((n1, n1), dtype=complex)
    for i in range(n1 - 1):
        x1[i, i + 1] = 1.0
    orbit = exp_conjugation_family(mats.wrap(e1), mats.wrap(x1))

    q_unit = ElementFamily(
        target, lambda lam: target.from_components(down.one(), mats.zero())
    )
    q_orbit = ElementFamily(
        target, lambda lam: target.from_components(down.zero(), orbit(lam))
    )

    rng = np.random.default_rng(seed)
    hs = [_noise_series(conv, series, rng) for _ in range(2)]

    def kernel_noise(which: int, lam: complex) -> Element:
        return source.from_components(ev_noise(hs[which], lam), mats.zero())

    sec_unit = Section(
        pi,
        q_unit,
        lambda lam: source.from_components(up.one(), mats.zero())
        + (0.2 + 0.1 * lam) * kernel_noise(0, lam),
    )
    sec_orbit = Section(
        pi,
        q_orbit,
        lambda lam: source.from_components(up.zero(), orbit(lam))
        + (0.15 + 0.05 * lam) * kernel_noise(1, lam),
    )

    def oracle_family(fams, traces) -> list[dict]:
        # the matrix component of the second lift must match the dense
        # spectral projector of the matrix component of its section input
        pairs = (
            (
                mats.matrix_representation(source.component(pt.elements["a"], 1)),
                mats.matrix_representation(source.component(pt.p, 1)),
            )
            for pt in traces[1].valid_points()
        )
        return [_oracle_check("matrix-component-oracle", pairs)]

    def kernel_probe(rng_: np.random.Generator) -> list[dict]:
        samples = [source.random_element(rng_) for _ in range(5)]
        worst = _worst(_spectral_gap(x - pi.embed(0.0, pi.apply(0.0, x))) for x in samples)
        return [check_record("kernel-spectra-collapse", worst, 0.0)]

    def orbit_probe(rng_: np.random.Generator) -> list[dict]:
        moved = (orbit(0.5) - orbit(0.0)).norm()
        idem = _worst((orbit(l) * orbit(l) - orbit(l)).norm() for l in (-0.5, 0.5))
        return [
            check_record("orbit-moves", moved, 0.1, lower_bound=True),
            check_record("orbit-idempotent", idem, 1e-12),
        ]

    return Scenario(
        id="example3",
        pi=pi,
        grid=_default_grid(),
        theorem_paths=(5,),
        family_sections=(sec_unit, sec_orbit),
        probes=(("kernel-spectra", kernel_probe), ("conjugation-orbit", orbit_probe)),
        oracle_family=oracle_family,
    )


# ---------------------------------------------------------------------------
# remark probe: the single-point kernel hypothesis does not propagate


def remark3_probe(seed: int = 0) -> Scenario:
    """Evaluation of scalar power series, truncated at degree 8, at
    lambda in 0, 0.3 and -0.5.

    No lifting is attempted: the probes document that the one-point
    spectrum hypothesis on the kernel holds only at the base point.
    Nothing here is drawn at random, so the seed is unused.
    """
    _, series, pi = _evaluation_hom(8)
    gen = series.generator()

    def escape_probe(rng_: np.random.Generator) -> list[dict]:
        checks = []
        for lam in (0.0, 0.3, -0.5):
            gap = _spectral_gap(pi.apply(lam, gen), lam)
            checks.append(
                check_record(f"image-spectrum-at-{lam}", gap, 0.0,
                             note="spectrum of the image of the coordinate series is exactly {lambda}")
            )
        return checks

    def kernel_escape_probe(rng_: np.random.Generator) -> list[dict]:
        # z - 0.3 annihilates under pi(0.3) yet has a fat spectrum in the
        # series algebra: the one-point kernel condition fails away from 0
        g = gen - 0.3 * series.from_scalar_coeffs([1.0])
        resid = pi.apply(0.3, g).norm()
        radius = _spectral_gap(g)
        return [
            check_record("kernel-membership", resid, 1e-12),
            check_record(
                "kernel-spectrum-escapes",
                radius,
                0.5,
                lower_bound=True,
                note="a kernel element of pi(0.3) keeps a spectrum of radius about 1",
            ),
        ]

    return Scenario(
        id="remark3-probe",
        pi=pi,
        grid=(0.0, 0.3, -0.5),
        theorem_paths=(),
        expected="hypothesis-violated-probe",
        probes=(
            ("spectral-escape", escape_probe),
            ("kernel-escape", kernel_escape_probe),
        ),
    )


# ---------------------------------------------------------------------------
# registry


_BUILDERS: dict[str, Callable[[int], Scenario]] = {
    "example1": build_example1,
    "example2": build_example2,
    "example3": build_example3,
    "dual-testbed": build_dual_testbed,
    "block-testbed": build_block_testbed,
    "remark3-probe": remark3_probe,
}


def list_scenarios() -> list[str]:
    return sorted(_BUILDERS)


def _check_seed(seed: int) -> None:
    """Refuse a negative seed, which ``np.random.default_rng`` refuses
    with an untyped ``ValueError`` or, offset, would take silently."""
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")


def build_scenario(scenario_id: str, seed: int = 0) -> Scenario:
    try:
        builder = _BUILDERS[scenario_id]
    except KeyError:
        raise UnknownScenario(
            f"unknown scenario {scenario_id!r}; valid ids: {', '.join(list_scenarios())}"
        ) from None
    _check_seed(seed)
    return builder(seed)


# ---------------------------------------------------------------------------
# verification driver


def _tolerances(overrides: dict[str, float] | None) -> dict[str, float]:
    """The default tolerances with ``overrides`` applied.  An unknown key,
    or a value that is not a finite nonnegative real number (a bool is
    not one), is a ``ParameterError``: an infinite or NaN tolerance would
    switch its checks off, a negative one fail them all, and a misspelt
    key would be ignored while the report lists the defaults as judged."""
    tol = {"tol_idem": TOL_IDEM, "tol_lift": TOL_LIFT}
    for key, value in (overrides or {}).items():
        if key not in tol:
            raise ParameterError(f"unknown tolerance {key!r}; valid keys: {', '.join(tol)}")
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not (real and math.isfinite(value) and value >= 0):
            raise ParameterError(f"tolerance {key} must be finite and nonnegative, got {value!r}")
        tol[key] = value
    return tol


# The check of each defect a lift writes, one row per defect key: the
# check's name and the key of its tolerance.  Lift and orthogonality are
# judged by tol_lift, everything else by tol_idem.
_DEFECTS: dict[str, tuple[str, str]] = {
    "idempotency": ("idempotency", "tol_idem"),
    "lift": ("lift", "tol_lift"),
    "commutation": ("commutation", "tol_idem"),
    "eq2": ("eq2-residual", "tol_idem"),
    "eq5": ("eq5-residual", "tol_idem"),
    "self-adjointness": ("self-adjointness", "tol_idem"),
    "factorisation": ("factorisation", "tol_idem"),
    "ef": ("orthogonal-to-predecessors-left", "tol_lift"),
    "fe": ("orthogonal-to-predecessors-right", "tol_lift"),
    "eq17": ("eq17-residual", "tol_idem"),
    "quadratic": ("quadratic-residual", "tol_idem"),
    "pairwise-orthogonality": ("pairwise-orthogonality", "tol_lift"),
    "partial-sum-idempotency": ("partial-sum-idempotency", "tol_lift"),
}


_ROW_CHECKS = frozenset(name for name, _ in _DEFECTS.values())


def worst_row_check(record: dict) -> float:
    """The worst value of the checks a report record's rows are judged by,
    a stored null read as NaN; NaN when it has none.  A grid-cover count
    or an oracle's distance is not one of them."""
    return _worst(
        math.nan if c["value"] is None else c["value"]
        for c in record["checks"]
        if c["name"] in _ROW_CHECKS
    )


def _lift_record(
    name: str,
    path: int,
    trace: LiftTrace,
    grid: Sequence[complex],
    tol: dict[str, float],
    extra_checks: Sequence[dict] = (),
    notes: str = "",
) -> dict:
    """The report record of one lift: a row per grid point, then its checks.

    Each defect key that the valid rows hold, in the order the path
    computes them, is judged once, by its row of ``_DEFECTS`` (a key with
    no row raises KeyError), on the worst certified value max(0, defect -
    allowance) over those rows.  A ``lift`` record, and any record with an
    invalid row, then counts the invalid rows against 0
    (``validity-covers-grid``); so a record with no valid row is judged by
    that count alone, and fails.  ``extra_checks`` come last."""
    valid = trace.valid_points()
    checks = [
        check_record(_DEFECTS[key][0], trace.worst_certified(key), tol[_DEFECTS[key][1]])
        for key in dict.fromkeys(key for pt in valid for key in pt.defects)
    ]
    kind = "trivial" if trace.label == "trivial" else "lift"
    if kind == "lift" or len(valid) < len(grid):
        checks.append(check_record("validity-covers-grid", float(len(grid) - len(valid)), 0.0))
    return run_record(
        name,
        path,
        kind,
        grid=grid,
        rows=trace_rows(trace.points),
        checks=[*checks, *extra_checks],
        audits=trace.audits,
        notes=notes,
    )


def _timed(
    timings: dict[str, float], label: str, name: str, path: int | None, kind: str, build: Callable
) -> list[dict]:
    """The records of ``build``, or an error record if it raises, timed into ``timings[label]``."""
    start = time.perf_counter()
    try:
        records = build()
    except IdemliftError as exc:
        records = [run_record(name, path, kind, error=f"{type(exc).__name__}: {exc}")]
    timings[label] = timings.get(label, 0.0) + time.perf_counter() - start
    return records


def _hypothesis_checks(
    scn: Scenario, grid: Sequence[complex], tol: dict[str, float], seed: int
) -> Iterator[dict]:
    """The hypothesis records of ``scn``, in checklist order.  Each value
    is the worst, by ``_worst``, of the stored norms or spectral radii it
    reads."""
    pi = scn.pi
    rng = np.random.default_rng(seed + 101)

    if pi.embed is not None:
        backs = (pi.apply(0.0, pi.embed(0.0, b)) - b for b in pi.target.probe_basis())
        yield check_record("surjectivity-at-base", _worst(map(_stored, backs)), 1e-9)

        kernel_required = scn.local_section is not None or bool(scn.family_sections)  # a section is lifted
        lam_set = [0.0] if not kernel_required else sorted(
            {0.0, float(np.real(grid[0])), float(np.real(grid[-1]))}
        )
        samples = [(lam, pi.source.random_element(rng)) for lam in lam_set for _ in range(3)]
        yield check_record(
            "kernel-spectral-condition",
            _worst(_spectral_gap(x - pi.embed(lam, pi.apply(lam, x))) for lam, x in samples),
            1e-9,
            required=kernel_required,
            note="spectral radius of sampled kernel elements",
        )

    # the targets are read off the sections, which lift them
    lifted = [sec.target for sec in (scn.local_section, *scn.family_sections) if sec is not None]
    family_targets = [sec.target for sec in scn.family_sections]
    inputs = [*scn.trivial_targets, *lifted]
    if inputs:
        worst = _worst(_stored(q(0.0) * q(0.0) - q(0.0)) for q in inputs)
        yield check_record("input-idempotency", worst, tol["tol_idem"])

    if len(family_targets) > 1:
        pairs = itertools.permutations(family_targets, 2)
        worst = _worst(_stored(qi(0.0) * qj(0.0)) for qi, qj in pairs)
        yield check_record("input-orthogonality", worst, tol["tol_lift"])

    if any(_PATHS[p][3] for p in scn.theorem_paths):  # a self-adjoint path
        reals = [l for l in (grid[0], 0.0, grid[-1]) if abs(complex(l).imag) < 1e-12]
        worst = _worst((q(lam) - q(lam).adjoint()).norm() for q in lifted for lam in reals)
        yield check_record("input-self-adjointness", worst, 1e-12)


def _trivial_record(scn: Scenario, q: ElementFamily, grid, tol, name: str) -> dict:
    trace = lift_trivial(scn.pi, q, grid)
    if trace is None:
        return run_record(name, 1, "trivial", error="target spectrum is not pinned to 0 or 1")
    return _lift_record(name, 1, trace, grid, tol)


def _local_runs(scn: Scenario, grid, tol, name: str, path: int) -> list[dict]:
    trivial = lift_trivial(scn.pi, scn.local_section.target, grid)
    if trivial is not None:
        note = "spectrally pinned target; trivial shortcut taken"
        return [_lift_record(name, path, trivial, grid, tol, notes=note)]
    trace = lift_local(scn.local_section, grid)
    # the oracle: each valid p must be the dense spectral projector of its
    # section value a onto the spectrum near 1
    rep = lambda x: x.algebra.matrix_representation(x)
    pairs = ((rep(pt.elements["a"]), rep(pt.p)) for pt in trace.valid_points())
    oracle = [_oracle_check("dense-projection-oracle", pairs)]
    return [_lift_record(name, path, trace, grid, tol, oracle, notes=f"sheet {trace.contours[0].sheet}")]


def _sa_runs(scn: Scenario, grid, tol, name: str, path: int) -> list[dict]:
    return [_lift_record(name, path, lift_local_sa(scn.local_section, grid), grid, tol)]


def _family_runs(scn: Scenario, grid, tol, name: str, path: int) -> list[dict]:
    sa = _PATHS[path][3]
    fams, traces = lift_family(scn.family_sections, grid, sa=sa)
    out = [
        _lift_record(
            f"{name}-step-{k}", path, trace, grid, tol, notes=f"frozen smallness bound {trace.eps0}"
        )
        for k, trace in enumerate(traces)
    ]
    joint = family_orthogonality(fams, grid, sa)
    oracle = scn.oracle_family(fams, traces) if scn.oracle_family is not None else ()
    out.append(_lift_record(f"{name}-orthogonality", path, joint, grid, tol, oracle))
    return out


# The theorem paths by number: the name of a path's records and timing, its
# runner, the Scenario fields it runs on (the runner lifts the first; trivial
# targets are lifted whatever the paths), and whether it is self-adjoint.
# Paths 3 and 5 run the family induction, 4 and 6 its self-adjoint form.
_PATHS: dict[int, tuple[str, Callable[..., list[dict]], tuple[str, ...], bool]] = {
    1: ("local", _local_runs, ("local_section", "trivial_targets"), False),
    2: ("self-adjoint", _sa_runs, ("local_section",), True),
    3: ("family", _family_runs, ("family_sections",), False),
    4: ("family-sa", _family_runs, ("family_sections",), True),
    5: ("family", _family_runs, ("family_sections",), False),
    6: ("family-sa", _family_runs, ("family_sections",), True),
}


def run_verification(
    scn: Scenario,
    grid: Sequence[complex] | None = None,
    tolerances: dict[str, float] | None = None,
    seed: int = 0,
) -> dict:
    """Execute every declared theorem path plus probes; return the report.

    The trivial targets, each path by its row of ``_PATHS``, then the
    probes run; a block that raises an ``IdemliftError`` gives one error
    record.  Each family and section is evaluated at most once per lambda
    within the call, and nothing of that memo outlives it.  A negative
    ``seed``, a grid that is empty or has a non-finite point, and a
    ``tolerances`` key other than ``tol_idem`` and ``tol_lift`` or a value
    that is not finite and nonnegative are each a ``ParameterError``,
    raised before any check runs."""
    _check_seed(seed)
    grid = _grid_tuple(scn.grid if grid is None else grid)
    tol = _tolerances(tolerances)

    with memoised_evaluations():  # family values are computed once per run
        timings: dict[str, float] = {}
        t0 = time.perf_counter()
        hypotheses: list[dict] = []
        try:  # the records before a check that raises, then one that names the error
            for rec in _hypothesis_checks(scn, grid, tol, seed):
                hypotheses.append(rec)
        except IdemliftError as exc:
            note = f"{type(exc).__name__}: {exc}"
            hypotheses.append(check_record("hypothesis-error", math.nan, 0.0, note=note))
        timings["hypotheses"] = time.perf_counter() - t0

        runs: list[dict] = []
        for idx, q in enumerate(scn.trivial_targets):
            name = f"trivial-{idx}"
            build = lambda: [_trivial_record(scn, q, grid, tol, name)]
            runs += _timed(timings, "trivial", name, 1, "trivial", build)
        for path in scn.theorem_paths:
            name, lift, inputs, _ = _PATHS[path]
            if getattr(scn, inputs[0]):
                build = lambda: lift(scn, grid, tol, name, path)
                runs += _timed(timings, name, name, path, "lift", build)

        probe_records: list[dict] = []
        for idx, (name, fn) in enumerate(scn.probes):
            rng = np.random.default_rng(seed + 1000 + idx)
            build = lambda: [run_record(name, None, "probe", checks=fn(rng))]
            probe_records += _timed(timings, f"probe:{name}", name, None, "probe", build)

    return build_report(
        scn.id,
        expected=scn.expected,
        theorem_paths=scn.theorem_paths,
        grid=grid,
        tolerances=tol,
        hypotheses=hypotheses,
        runs=runs,
        probes=probe_records,
        seed=seed,
        timings=timings,
    )
