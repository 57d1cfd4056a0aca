"""Worked-example scenarios and finite-dimensional testbeds.

Each builder wires a concrete source algebra, target algebra,
homomorphism family, target idempotent families, and sections into a
Scenario record; run_verification executes the lifting paths the
scenario declares, together with its hypothesis checklist and probes,
and returns a JSON-ready report.

The registry distinguishes two target sets because the local and family
paths want different data: a single (target, section) pair drives the
local and self-adjoint paths, a list of pairwise orthogonal families
drives the induction, and spectrally pinned targets short-circuit
through the trivial path.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    BanachAlgebra,
    ConvolutionAlgebra,
    DualAlgebra,
    Element,
    MatrixAlgebra,
    ProductAlgebra,
    UnitizationAlgebra,
    WienerAlgebra,
    alg_exp,
)
from .errors import IdemliftError, InvalidGenerator, UnknownScenario
from .families import ElementFamily, HomFamily, Section, exp_conjugation_family
from .lifting import (
    TOL_COMM,
    TOL_IDEM,
    TOL_LIFT,
    TOL_ORTH,
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
]

ORACLE_TOL = 1e-7


@dataclass(frozen=True)
class Scenario:
    """A fully wired verification scenario."""

    id: str
    source: BanachAlgebra
    target: BanachAlgebra
    pi: HomFamily
    grid: tuple[complex, ...]
    theorem_paths: tuple[int, ...]
    expected: str = "lift-succeeds"
    local_target: ElementFamily | None = None
    local_section: Section | None = None
    trivial_targets: tuple[ElementFamily, ...] = ()
    family_targets: tuple[ElementFamily, ...] = ()
    family_sections: tuple[Section, ...] = ()
    probes: tuple[tuple[str, Callable], ...] = ()
    oracle_local: Callable | None = None
    oracle_family: Callable | None = None
    kernel_required: bool = True
    notes: str = ""


def _default_grid() -> tuple[float, ...]:
    return tuple(np.linspace(-0.5, 0.5, 21))


def _dense_projection(rep: np.ndarray, center: complex, radius: float, n: int = 1024) -> np.ndarray:
    """Spectral projector of a dense matrix by a trapezoid resolvent
    integral; independent of the polygon quadrature under test."""
    dim = rep.shape[0]
    ring = np.exp(2j * np.pi * np.arange(n) / n)
    eye = np.eye(dim, dtype=complex)
    acc = np.zeros((dim, dim), dtype=complex)
    for w in ring:
        acc += w * np.linalg.solve((center + radius * w) * eye - rep, eye)
    return (radius / n) * acc


# ---------------------------------------------------------------------------
# dual-number testbed


def build_dual_testbed(
    n: int = 4,
    K: np.ndarray | None = None,
    P0: np.ndarray | None = None,
    seed: int = 0,
) -> Scenario:
    """A = M_n adjoined a square-zero infinitesimal, B = M_n, pi constant.

    q(lambda) rotates a seed projection by the one-parameter unitary
    group of the skew generator K, so the targets are self-adjoint
    idempotent families on real lambda and all six theorem paths have
    honest work to do.  Sections carry deliberately messy infinitesimal
    parts drawn from the seed.
    """
    if K is None:
        K = np.zeros((n, n), dtype=complex)
        for i in range(0, n - 1, 2):
            K[i, i + 1] = float(i // 2 + 1)
            K[i + 1, i] = -float(i // 2 + 1)
    K = np.asarray(K, dtype=complex)
    if P0 is None:
        P0 = np.diag([1.0 if i % 2 == 0 else 0.0 for i in range(n)]).astype(complex)
    P0 = np.asarray(P0, dtype=complex)
    if np.linalg.norm(K + K.conj().T, 2) > 1e-12:
        raise InvalidGenerator("rotation generator must be skew-adjoint")
    if np.linalg.norm(P0 @ P0 - P0, 2) > 1e-12 or np.linalg.norm(P0 - P0.conj().T, 2) > 1e-12:
        raise InvalidGenerator("seed must be a self-adjoint projection")

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

    def rotated(lam: complex, seed_mat: np.ndarray) -> Element:
        turn = alg_exp(base.wrap(lam * K))
        back = alg_exp(base.wrap(-lam * K))
        return turn * base.wrap(seed_mat) * back

    q = ElementFamily(base, lambda lam: rotated(lam, P0))
    rng = np.random.default_rng(seed)
    noise = base.random_element(rng)
    sec = Section(
        pi,
        q,
        lambda lam: dual.from_parts(q(lam), (0.3 + 0.2 * lam) * noise),
        label="messy-infinitesimal",
    )

    rank1 = [np.zeros((n, n), dtype=complex) for _ in range(3)]
    for i, m in enumerate(rank1):
        m[i, i] = 1.0
    fam_targets = tuple(
        ElementFamily(base, lambda lam, _m=m: rotated(lam, _m)) for m in rank1
    )
    fam_noises = [base.random_element(rng) for _ in rank1]
    fam_secs = tuple(
        Section(
            pi,
            tgt,
            lambda lam, _t=tgt, _n=nz: dual.from_parts(_t(lam), (0.2 + 0.1 * lam) * _n),
        )
        for tgt, nz in zip(fam_targets, fam_noises)
    )

    def oracle_local(trace) -> list[dict]:
        worst = 0.0
        for pt in trace.valid_points():
            rep = dual.matrix_representation(pt.elements["a"])
            want = _dense_projection(rep, 1.0, 0.45)
            got = dual.matrix_representation(pt.elements["p"])
            worst = max(worst, float(np.linalg.norm(got - want, 2)))
        return [check_record("dense-projection-oracle", worst, ORACLE_TOL)]

    def kernel_probe(rng_: np.random.Generator) -> list[dict]:
        worst = 0.0
        for _ in range(5):
            k = dual.from_parts(base.zero(), base.random_element(rng_))
            sq = k * k
            worst = max(worst, sq.norm(), max(abs(z) for z in k.spectrum().points))
        return [check_record("square-zero-kernel", worst, 0.0)]

    def sa_probe(rng_: np.random.Generator) -> list[dict]:
        worst = 0.0
        for lam in (-0.5, 0.25, 0.5):
            d = q(lam) - q(lam).adjoint()
            worst = max(worst, d.norm())
        return [check_record("rotated-target-self-adjoint", worst, 1e-12)]

    return Scenario(
        id="dual-testbed",
        source=dual,
        target=base,
        pi=pi,
        grid=_default_grid(),
        theorem_paths=(1, 2, 3, 4),
        local_target=q,
        local_section=sec,
        family_targets=fam_targets,
        family_sections=fam_secs,
        probes=(("square-zero-kernel", kernel_probe), ("self-adjoint-targets", sa_probe)),
        oracle_local=oracle_local,
        notes="constant surjection with nilpotent kernel; all defects should sit at quadrature accuracy",
    )


# ---------------------------------------------------------------------------
# block-triangular testbed


def build_block_testbed(k: int = 2, m: int = 2, seed: int = 0) -> Scenario:
    """Block upper-triangular source over a product of matrix algebras.

    The homomorphism family reads the diagonal blocks after conjugating
    by exp(lambda N) with a square-zero N inside the top block, so pi is
    genuinely non-constant while exp(lambda N) = 1 + lambda N stays
    exact.  A corner twist would be invisible here: commutators with a
    strictly upper corner land back in the corner, which the diagonal
    projection kills.
    """
    from .algebra import BlockTriangularAlgebra

    if k < 2:
        raise InvalidGenerator("top block must be at least 2x2 to host the twist")
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

    def oracle_local(trace) -> list[dict]:
        worst = 0.0
        for pt in trace.valid_points():
            rep = block.matrix_representation(pt.elements["a"])
            want = _dense_projection(rep, 1.0, 0.45)
            got = block.matrix_representation(pt.elements["p"])
            worst = max(worst, float(np.linalg.norm(got - want, 2)))
        return [check_record("dense-projection-oracle", worst, ORACLE_TOL)]

    def kernel_probe(rng_: np.random.Generator) -> list[dict]:
        worst = 0.0
        for _ in range(5):
            corner = np.zeros((size, size), dtype=complex)
            corner[:k, k:] = rng_.standard_normal((k, m))
            elt = block.wrap(corner)
            worst = max(worst, (elt * elt).norm(), max(abs(z) for z in elt.spectrum().points))
        return [check_record("square-zero-kernel", worst, 0.0)]

    def twist_probe(rng_: np.random.Generator) -> list[dict]:
        # pi(0.4) and pi(0) must genuinely differ on a top-block element,
        # while corner elements stay in the kernel for every lambda
        lower = np.zeros((size, size), dtype=complex)
        lower[1, 0] = 1.0
        moved = (pi.apply(0.4, block.wrap(lower)) - pi.apply(0.0, block.wrap(lower))).norm()
        corner = np.zeros((size, size), dtype=complex)
        corner[0, k] = 1.0
        killed = max(pi.apply(lam, block.wrap(corner)).norm() for lam in (-0.5, 0.0, 0.4))
        return [
            check_record(
                "family-genuinely-moves",
                moved,
                0.0,
                passed=moved > 0.1,
                note="pi(0.4) and pi(0) differ visibly on a top-block unit",
            ),
            check_record("corner-stays-in-kernel", killed, 0.0),
        ]

    return Scenario(
        id="block-testbed",
        source=block,
        target=prod,
        pi=pi,
        grid=_default_grid(),
        theorem_paths=(1, 5),
        local_target=q_top,
        local_section=sec_top,
        family_targets=(q_top, q_bot),
        family_sections=(sec_top, sec_bot),
        probes=(("square-zero-kernel", kernel_probe), ("non-constant-family", twist_probe)),
        oracle_local=oracle_local,
        notes="non-constant homomorphism family via nilpotent twist; no involution available",
    )


# ---------------------------------------------------------------------------
# worked example 1: series evaluated on the disc


def build_example1(degree: int = 12, seed: int = 0) -> Scenario:
    """Evaluation of truncated scalar power series at points of the disc.

    The kernel of an evaluation homomorphism is full of elements with
    large spectra, so only spectrally pinned targets are lifted (the
    trivial path); the scenario's main content is the probe pair: the
    operator norm of every pi(lambda) equals 1, and the involution is
    isometric on the scalar base.
    """
    scalars = MatrixAlgebra(1)
    series = WienerAlgebra(scalars, degree)
    pi = HomFamily(
        series,
        scalars,
        lambda lam, f: series.evaluate(f, lam),
        embed=lambda lam, b: series.from_coeffs([b]),
        radius=1.0,
        star_on_real=True,
        tag="evaluation-hom",
        label="evaluate-at-lambda",
    )

    q_one = ElementFamily(scalars, lambda lam: scalars.one(), radius=1.0)
    q_zero = ElementFamily(scalars, lambda lam: scalars.zero(), radius=1.0)

    def norm_probe(rng_: np.random.Generator) -> list[dict]:
        worst = 0.0
        basis = series.probe_basis()
        for lam in (0.0, 0.3, -0.62, 0.5j, 0.7 + 0.2j, -0.9):
            op = max(pi.apply(lam, b).norm() / b.norm() for b in basis)
            worst = max(worst, abs(op - 1.0))
        return [check_record("norm-constancy", worst, 1e-10)]

    def involution_probe(rng_: np.random.Generator) -> list[dict]:
        bound = series.involution_bound
        worst_ratio = 0.0
        for _ in range(50):
            f = series.random_element(rng_)
            worst_ratio = max(worst_ratio, f.adjoint().norm() / f.norm())
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
        source=series,
        target=scalars,
        pi=pi,
        grid=_default_grid(),
        theorem_paths=(1,),
        trivial_targets=(q_one, q_zero),
        probes=(
            ("norm-constancy", norm_probe),
            ("involution", involution_probe),
            ("evaluation-sample", evaluation_probe),
        ),
        kernel_required=False,
        notes="kernel elements of evaluation homomorphisms have non-trivial spectra; only trivial lifts are attempted",
    )


# ---------------------------------------------------------------------------
# worked example 2: unitized convolution algebras


def build_example2(n_grid: int = 32, degree: int = 6, seed: int = 0) -> Scenario:
    """Series over the radical convolution algebra, against its unitization.

    Every element of the convolution algebra is nilpotent, so the
    unitized algebras have one-point spectra and the kernel hypothesis
    holds exactly; the only idempotents downstairs are 0 and 1, which
    makes the family induction run on a deliberately non-idempotent
    section of the constant target 1.
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

    pi = HomFamily(up, down, run, embed=emb, star_on_real=True, label="evaluate-unitized")

    q_one = ElementFamily(down, lambda lam: down.one())
    q_zero = ElementFamily(down, lambda lam: down.zero())

    # keep the noise comfortably inside the certified-inverse regime: tail
    # bounds grow geometrically in the Neumann ratio, so a loud section
    # would still lift but with worthless (huge) allowances
    rng = np.random.default_rng(seed)
    h = series.from_coeffs([conv.random_element(rng, 0.04) for _ in range(degree)])

    def kernel_noise(lam: complex) -> Element:
        # h minus the constant series with h's value at lambda: lands in
        # ker pi(lambda) exactly
        val = series.evaluate(h, lam)
        return up.from_parts(h - series.from_coeffs([val]), 0.0)

    sec_one = Section(
        pi, q_one, lambda lam: up.one() + (0.25 + 0.1 * lam) * kernel_noise(lam)
    )

    def spectrum_probe(rng_: np.random.Generator) -> list[dict]:
        worst = 0.0
        for _ in range(10):
            x = down.random_element(rng_)
            pts = x.spectrum().points
            c = down.scalar_part(x)
            worst = max(worst, max(abs(p - c) for p in pts), float(len(pts) - 1))
            y = up.random_element(rng_)
            pts_up = y.spectrum().points
            cu = up.scalar_part(y)
            worst = max(worst, max(abs(p - cu) for p in pts_up), float(len(pts_up) - 1))
        return [check_record("one-point-spectra", worst, 0.0)]

    def nilpotency_probe(rng_: np.random.Generator) -> list[dict]:
        worst = 0.0
        for _ in range(3):
            f = conv.random_element(rng_, 2.0)
            power = f
            for _ in range(n_grid - 1):
                power = power * f
            worst = max(worst, power.norm())
        return [check_record("nilpotency-at-grid-size", worst, 0.0)]

    def decay_probe(rng_: np.random.Generator) -> list[dict]:
        ones = conv.sample(lambda t: 1.0)
        base_norm = ones.norm()
        slack = 1.0 + 10.0 / n_grid
        worst = 0.0
        power = ones
        for n_fold in range(2, 7):
            power = power * ones
            bound = base_norm**n_fold / math.factorial(n_fold) * slack
            worst = max(worst, power.norm() / bound)
        return [check_record("factorial-decay", worst, 1.0)]

    return Scenario(
        id="example2",
        source=up,
        target=down,
        pi=pi,
        grid=_default_grid(),
        theorem_paths=(1, 3),
        trivial_targets=(q_one, q_zero),
        family_targets=(q_one,),
        family_sections=(sec_one,),
        probes=(
            ("one-point-spectra", spectrum_probe),
            ("nilpotency", nilpotency_probe),
            ("factorial-decay", decay_probe),
        ),
        notes="single-family induction over a truncated-series algebra; defects are certified modulo carried tail bounds",
    )


# ---------------------------------------------------------------------------
# worked example 3: product with a matrix block


def build_example3(
    n_grid: int = 16, degree: int = 4, n1: int = 3, seed: int = 0
) -> Scenario:
    """Unitized series algebra times a full matrix block.

    The homomorphism family evaluates the series component and leaves
    the matrix component alone, so its kernel sits entirely inside the
    radical of the first factor; the second target family is a genuinely
    non-constant conjugation orbit in the matrix block.
    """
    conv = ConvolutionAlgebra(n_grid)
    series = WienerAlgebra(conv, degree)
    up = UnitizationAlgebra(series)
    down = UnitizationAlgebra(conv)
    mats = MatrixAlgebra(n1)
    source = ProductAlgebra((up, mats))
    target = ProductAlgebra((down, mats))

    def run(lam: complex, x: Element) -> Element:
        u = source.component(x, 0)
        f = up.radical_part(u)
        evaluated = down.from_parts(series.evaluate(f, lam), up.scalar_part(u))
        return target.from_components(evaluated, source.component(x, 1))

    def emb(lam: complex, y: Element) -> Element:
        d = target.component(y, 0)
        lifted = up.from_parts(
            series.from_coeffs([down.radical_part(d)]), down.scalar_part(d)
        )
        return source.from_components(lifted, target.component(y, 1))

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
    hs = [
        series.from_coeffs([conv.random_element(rng, 0.04) for _ in range(degree)])
        for _ in range(2)
    ]

    def kernel_noise(which: int, lam: complex) -> Element:
        h = hs[which]
        val = series.evaluate(h, lam)
        inner = up.from_parts(h - series.from_coeffs([val]), 0.0)
        return source.from_components(inner, mats.zero())

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
        worst = 0.0
        for pt in traces[1].valid_points():
            a_mat = mats.matrix_representation(source.component(pt.elements["a"], 1))
            p_mat = mats.matrix_representation(source.component(pt.p, 1))
            want = _dense_projection(a_mat, 1.0, 0.45)
            worst = max(worst, float(np.linalg.norm(p_mat - want, 2)))
        return [check_record("matrix-component-oracle", worst, ORACLE_TOL)]

    def kernel_probe(rng_: np.random.Generator) -> list[dict]:
        worst = 0.0
        for _ in range(5):
            x = source.random_element(rng_)
            k = x - pi.embed(0.0, pi.apply(0.0, x))
            worst = max(worst, max(abs(z) for z in k.spectrum().points))
        return [check_record("kernel-spectra-collapse", worst, 0.0)]

    def orbit_probe(rng_: np.random.Generator) -> list[dict]:
        moved = (orbit(0.5) - orbit(0.0)).norm()
        idem = max((orbit(l) * orbit(l) - orbit(l)).norm() for l in (-0.5, 0.5))
        return [
            check_record("orbit-moves", moved, 0.0, passed=moved > 0.1),
            check_record("orbit-idempotent", idem, 1e-12),
        ]

    return Scenario(
        id="example3",
        source=source,
        target=target,
        pi=pi,
        grid=_default_grid(),
        theorem_paths=(5,),
        family_targets=(q_unit, q_orbit),
        family_sections=(sec_unit, sec_orbit),
        probes=(("kernel-spectra", kernel_probe), ("conjugation-orbit", orbit_probe)),
        oracle_family=oracle_family,
        notes="kernel spectra are one-point by radicality of the first factor; matrix block is carried verbatim",
    )


# ---------------------------------------------------------------------------
# remark probe: the single-point kernel hypothesis does not propagate


def remark3_probe(degree: int = 8, seed: int = 0) -> Scenario:
    scalars = MatrixAlgebra(1)
    series = WienerAlgebra(scalars, degree)
    pi = HomFamily(
        series,
        scalars,
        lambda lam, f: series.evaluate(f, lam),
        embed=lambda lam, b: series.from_coeffs([b]),
        radius=1.0,
        tag="evaluation-hom",
        label="evaluate-at-lambda",
    )
    gen = series.generator()

    def escape_probe(rng_: np.random.Generator) -> list[dict]:
        checks = []
        for lam in (0.0, 0.3, -0.5):
            pts = pi.apply(lam, gen).spectrum().points
            gap = max(abs(p - lam) for p in pts)
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
        radius = max(abs(p) for p in g.spectrum().points)
        return [
            check_record("kernel-membership", resid, 1e-12),
            check_record(
                "kernel-spectrum-escapes",
                radius,
                0.0,
                passed=radius > 0.5,
                note="a kernel element of pi(0.3) keeps a spectrum of radius about 1",
            ),
        ]

    return Scenario(
        id="remark3-probe",
        source=series,
        target=scalars,
        pi=pi,
        grid=(0.0, 0.3, -0.5),
        theorem_paths=(),
        expected="hypothesis-violated-probe",
        probes=(
            ("spectral-escape", escape_probe),
            ("kernel-escape", kernel_escape_probe),
        ),
        kernel_required=False,
        notes="no lifting attempted; documents that the one-point spectrum hypothesis holds only at the base point",
    )


# ---------------------------------------------------------------------------
# registry


_BUILDERS: dict[str, Callable[[int], Scenario]] = {
    "example1": lambda seed: build_example1(seed=seed),
    "example2": lambda seed: build_example2(seed=seed),
    "example3": lambda seed: build_example3(seed=seed),
    "dual-testbed": lambda seed: build_dual_testbed(seed=seed),
    "block-testbed": lambda seed: build_block_testbed(seed=seed),
    "remark3-probe": lambda seed: remark3_probe(seed=seed),
}


def list_scenarios() -> list[str]:
    return sorted(_BUILDERS)


def build_scenario(scenario_id: str, seed: int = 0) -> Scenario:
    try:
        builder = _BUILDERS[scenario_id]
    except KeyError:
        raise UnknownScenario(
            f"unknown scenario {scenario_id!r}; valid ids: {', '.join(list_scenarios())}"
        ) from None
    return builder(seed)


# ---------------------------------------------------------------------------
# verification driver


def _default_tolerances() -> dict[str, float]:
    return {
        "tol_idem": TOL_IDEM,
        "tol_comm": TOL_COMM,
        "tol_lift": TOL_LIFT,
        "tol_orth": TOL_ORTH,
    }


def _hypothesis_checks(
    scn: Scenario, grid: Sequence[complex], tol: dict[str, float], seed: int
) -> list[dict]:
    checks: list[dict] = []
    pi = scn.pi
    rng = np.random.default_rng(seed + 101)

    if pi.embed is not None:
        worst = 0.0
        for b in scn.target.probe_basis():
            back = pi.apply(0.0, pi.embed(0.0, b)) - b
            worst = max(worst, back.norm() - scn.target.tail_bound(back))
        checks.append(check_record("surjectivity-at-base", worst, 1e-9))

        lam_set = [0.0] if not scn.kernel_required else sorted(
            {0.0, float(np.real(grid[0])), float(np.real(grid[-1]))}
        )
        worst_rad = 0.0
        for lam in lam_set:
            for _ in range(3):
                x = scn.source.random_element(rng)
                k = x - pi.embed(lam, pi.apply(lam, x))
                worst_rad = max(worst_rad, max(abs(z) for z in k.spectrum().points))
        checks.append(
            check_record(
                "kernel-spectral-condition",
                worst_rad,
                1e-9,
                required=scn.kernel_required,
                note="spectral radius of sampled kernel elements",
            )
        )

    inputs = list(scn.trivial_targets)
    if scn.local_target is not None:
        inputs.append(scn.local_target)
    inputs.extend(scn.family_targets)
    if inputs:
        worst = 0.0
        for q in inputs:
            d = q(0.0) * q(0.0) - q(0.0)
            worst = max(worst, d.norm() - scn.target.tail_bound(d))
        checks.append(check_record("input-idempotency", worst, tol["tol_idem"]))

    if len(scn.family_targets) > 1:
        worst = 0.0
        for i, qi in enumerate(scn.family_targets):
            for j, qj in enumerate(scn.family_targets):
                if i == j:
                    continue
                d = qi(0.0) * qj(0.0)
                worst = max(worst, d.norm() - scn.target.tail_bound(d))
        checks.append(check_record("input-orthogonality", worst, tol["tol_orth"]))

    if any(p in (2, 4, 6) for p in scn.theorem_paths):
        worst = 0.0
        reals = [l for l in (grid[0], 0.0, grid[-1]) if abs(complex(l).imag) < 1e-12]
        for q in ([scn.local_target] if scn.local_target else []) + list(scn.family_targets):
            for lam in reals:
                d = q(lam) - q(lam).adjoint()
                worst = max(worst, d.norm())
        checks.append(check_record("input-self-adjointness", worst, 1e-12))
    return checks


def _trivial_runs(scn: Scenario, grid, tol) -> list[dict]:
    out = []
    for idx, q in enumerate(scn.trivial_targets):
        lifted = lift_trivial(q, into=scn.source)
        if lifted is None:
            out.append(
                run_record(
                    f"trivial-{idx}",
                    1,
                    "trivial",
                    error="target spectrum is not pinned to 0 or 1",
                )
            )
            continue
        rows = []
        for lam in grid:
            p = lifted(lam)
            defects = {
                "idempotency": (p * p - p).norm(),
                "lift": (scn.pi.apply(lam, p) - q(lam)).norm(),
            }
            rows.append(
                {
                    "lambda": [complex(lam).real, complex(lam).imag],
                    "valid": True,
                    "defects": defects,
                    "allowances": {k: 0.0 for k in defects},
                }
            )
        checks = [
            check_record("idempotency", max(r["defects"]["idempotency"] for r in rows), tol["tol_idem"]),
            check_record("lift", max(r["defects"]["lift"] for r in rows), tol["tol_lift"]),
        ]
        out.append(
            run_record(
                f"trivial-{idx}", 1, "trivial", grid=grid, rows=rows, checks=checks
            )
        )
    return out


def _local_run(scn: Scenario, grid, tol) -> dict:
    name, path = "local", 1
    shortcut = lift_trivial(scn.local_target, into=scn.source)
    if shortcut is not None:
        return run_record(
            name, path, "trivial", notes="spectrally pinned target; trivial shortcut taken"
        )
    try:
        trace = lift_local(scn.pi, scn.local_target, scn.local_section, grid)
    except IdemliftError as exc:
        return run_record(name, path, "lift", error=f"{type(exc).__name__}: {exc}")
    checks = [
        check_record("idempotency", trace.worst_certified("idempotency"), tol["tol_idem"]),
        check_record("lift", trace.worst_certified("lift"), tol["tol_lift"]),
        check_record("commutation", trace.worst_certified("commutation"), tol["tol_comm"]),
        check_record("eq2-residual", trace.worst_certified("eq2"), tol["tol_idem"]),
        check_record("eq5-residual", trace.worst_certified("eq5"), tol["tol_idem"]),
        check_record(
            "validity-covers-grid",
            float(len(grid) - len(trace.valid_points())),
            0.0,
        ),
    ]
    if scn.oracle_local is not None:
        checks.extend(scn.oracle_local(trace))
    return run_record(
        name,
        path,
        "lift",
        grid=grid,
        rows=trace_rows(trace.points),
        checks=checks,
        audits=trace.audits,
        notes=f"sheet {trace.sheet}",
    )


def _sa_run(scn: Scenario, grid, tol) -> dict:
    name, path = "self-adjoint", 2
    try:
        trace = lift_local_sa(scn.pi, scn.local_target, scn.local_section, grid)
    except IdemliftError as exc:
        return run_record(name, path, "lift", error=f"{type(exc).__name__}: {exc}")
    checks = [
        check_record("idempotency", trace.worst_certified("idempotency"), tol["tol_idem"]),
        check_record("lift", trace.worst_certified("lift"), tol["tol_lift"]),
        check_record("commutation", trace.worst_certified("commutation"), tol["tol_comm"]),
        check_record("self-adjointness", trace.worst_certified("self-adjointness"), tol["tol_idem"]),
        check_record("factorisation", trace.worst_certified("factorisation"), tol["tol_idem"]),
        check_record(
            "validity-covers-grid",
            float(len(grid) - len(trace.valid_points())),
            0.0,
        ),
    ]
    return run_record(
        name,
        path,
        "lift",
        grid=grid,
        rows=trace_rows(trace.points),
        checks=checks,
        audits=trace.audits,
    )


def _family_runs(scn: Scenario, grid, tol, sa: bool, path: int) -> list[dict]:
    base_name = "family-sa" if sa else "family"
    try:
        fams, traces = lift_family(
            scn.pi, scn.family_targets, scn.family_sections, grid, sa=sa
        )
    except IdemliftError as exc:
        return [run_record(base_name, path, "lift", error=f"{type(exc).__name__}: {exc}")]

    out = []
    for k, trace in enumerate(traces):
        checks = [
            check_record("idempotency", trace.worst_certified("idempotency"), tol["tol_idem"]),
            check_record("lift", trace.worst_certified("lift"), tol["tol_lift"]),
            check_record("orthogonal-to-predecessors-left", trace.worst_certified("ef"), tol["tol_orth"]),
            check_record("orthogonal-to-predecessors-right", trace.worst_certified("fe"), tol["tol_orth"]),
            check_record("eq17-residual", trace.worst_certified("eq17"), tol["tol_idem"]),
            check_record("quadratic-residual", trace.worst_certified("quadratic"), tol["tol_idem"]),
            check_record("commutation", trace.worst_certified("commutation"), tol["tol_comm"]),
            check_record(
                "validity-covers-grid",
                float(len(grid) - len(trace.valid_points())),
                0.0,
            ),
        ]
        out.append(
            run_record(
                f"{base_name}-step-{k}",
                path,
                "lift",
                grid=grid,
                rows=trace_rows(trace.points),
                checks=checks,
                audits=trace.audits,
                notes=f"frozen smallness bound {trace.eps0}",
            )
        )

    rows = []
    worst_pair = 0.0
    worst_partial = 0.0
    worst_sa = 0.0
    # a lambda is checked only where every step's enclosures held
    for step_pts in zip(*(trace.points for trace in traces)):
        lam = step_pts[0].lam
        if not all(pt.valid for pt in step_pts):
            rows.append(
                {"lambda": [lam.real, lam.imag], "valid": False, "defects": {}, "allowances": {}}
            )
            continue
        vals = [f(lam) for f in fams]
        pair = 0.0
        for i, vi in enumerate(vals):
            for j, vj in enumerate(vals):
                if i != j:
                    d = vi * vj
                    pair = max(pair, d.norm() - scn.source.tail_bound(d))
        partial = 0.0
        total = None
        for v in vals:
            total = v if total is None else total + v
            d = total * total - total
            partial = max(partial, d.norm() - scn.source.tail_bound(d))
        defects = {"pairwise-orthogonality": pair, "partial-sum-idempotency": partial}
        if sa:
            sadef = max((v - v.adjoint()).norm() for v in vals)
            defects["self-adjointness"] = sadef
            worst_sa = max(worst_sa, sadef)
        worst_pair = max(worst_pair, pair)
        worst_partial = max(worst_partial, partial)
        rows.append(
            {
                "lambda": [lam.real, lam.imag],
                "valid": True,
                "defects": defects,
                "allowances": {k: 0.0 for k in defects},
            }
        )
    checks = [
        check_record("pairwise-orthogonality", worst_pair, tol["tol_orth"]),
        check_record("partial-sum-idempotency", worst_partial, tol["tol_orth"]),
        check_record("validity-covers-grid", float(sum(not row["valid"] for row in rows)), 0.0),
    ]
    if sa:
        checks.append(check_record("self-adjointness", worst_sa, tol["tol_idem"]))
    if scn.oracle_family is not None:
        checks.extend(scn.oracle_family(fams, traces))
    out.append(
        run_record(
            f"{base_name}-orthogonality",
            path,
            "lift",
            grid=grid,
            rows=rows,
            checks=checks,
        )
    )
    return out


def run_verification(
    scn: Scenario,
    grid: Sequence[complex] | None = None,
    tolerances: dict[str, float] | None = None,
    seed: int = 0,
) -> dict:
    """Execute every declared theorem path plus probes; return the report."""
    grid = tuple(scn.grid if grid is None else tuple(complex(g) for g in grid))
    tol = _default_tolerances()
    if tolerances:
        tol.update(tolerances)

    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    hypotheses = _hypothesis_checks(scn, grid, tol, seed)
    timings["hypotheses"] = time.perf_counter() - t0

    runs: list[dict] = []

    def clocked(label: str, thunk: Callable[[], list[dict]]) -> None:
        start = time.perf_counter()
        recs = thunk()
        timings[label] = time.perf_counter() - start
        runs.extend(recs)

    if scn.trivial_targets:
        clocked("trivial", lambda: _trivial_runs(scn, grid, tol))
    for path in scn.theorem_paths:
        if path == 1 and scn.local_target is not None:
            clocked("local", lambda: [_local_run(scn, grid, tol)])
        elif path == 2 and scn.local_target is not None:
            clocked("self-adjoint", lambda: [_sa_run(scn, grid, tol)])
        elif path in (3, 5) and scn.family_targets:
            clocked("family", lambda: _family_runs(scn, grid, tol, False, path))
        elif path in (4, 6) and scn.family_targets:
            clocked("family-sa", lambda: _family_runs(scn, grid, tol, True, path))

    probe_records: list[dict] = []
    for idx, (name, fn) in enumerate(scn.probes):
        start = time.perf_counter()
        rng = np.random.default_rng(seed + 1000 + idx)
        try:
            checks = fn(rng)
            probe_records.append(
                run_record(name, None, "probe", checks=checks)
            )
        except IdemliftError as exc:
            probe_records.append(
                run_record(name, None, "probe", error=f"{type(exc).__name__}: {exc}")
            )
        timings[f"probe:{name}"] = time.perf_counter() - start

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
