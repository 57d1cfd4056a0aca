"""Concrete Banach algebras with computable norms, inverses and spectra.

Seven algebra kinds are implemented:

``matrix``
    Square complex matrices under the operator 2-norm (optionally a weighted
    similarity norm), with conjugate transposition as involution.
``dual``
    Pairs ``b0 + b1*eps`` over a base algebra, where ``eps`` squares to zero.
``block-triangular``
    2x2 block upper triangular matrices; the strictly upper block is a
    square-zero ideal and there is no involution.
``convolution-discrete``
    Continuous functions on the unit interval under the Volterra convolution
    product, discretised by the left-endpoint rule on an ``N``-point grid.
    The multiplication operator of every element is a strictly lower
    triangular ``N x N`` Toeplitz matrix, so ``x**N == 0`` holds exactly.
``wiener-truncated``
    Power series with coefficients in a base algebra and absolutely summable
    coefficient norms, truncated at a fixed degree.  Each element carries a
    nonnegative ``tail`` scalar bounding the norm distance between the stored
    truncation and the element it stands for.
``unitization``
    A unit adjoined to a radical algebra; the norm is the l1 sum and every
    spectrum is the singleton of the adjoined scalar.
``product``
    Finite direct products with the max norm and componentwise operations.

Elements are immutable values tied to their owning algebra; all operations
are pure functions.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .errors import (
    AlgebraMismatch,
    NoInvolution,
    NotInvertible,
    ParameterError,
)

CONDITION_LIMIT = 1e12
RESOLVENT_BLOCK_BYTES = 1 << 16  # one block of MatrixAlgebra.resolvent_integral


# ---------------------------------------------------------------------------
# spectrum reports


@dataclass(frozen=True)
class SpectrumReport:
    """Finite spectrum description: the points and an exactness flag.

    ``exact`` is True when the points enumerate the spectrum up to floating
    point roundoff and False when they merely sample it (wiener kind).
    """

    points: tuple[complex, ...]
    exact: bool

    @property
    def radius(self) -> float:
        if not self.points:
            return 0.0
        return max(abs(p) for p in self.points)

    def array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=complex)


def _as_point_tuple(values: Iterable[complex]) -> tuple[complex, ...]:
    return tuple(sorted((complex(v) for v in values), key=lambda z: (z.real, z.imag)))


def hausdorff_distance(a: Iterable[complex], b: Iterable[complex]) -> float:
    """Hausdorff distance between two finite point sets in the plane."""
    pa = np.asarray(list(a), dtype=complex)
    pb = np.asarray(list(b), dtype=complex)
    if pa.size == 0 and pb.size == 0:
        return 0.0
    if pa.size == 0 or pb.size == 0:
        return np.inf
    gaps = np.abs(pa[:, None] - pb[None, :])
    return float(max(gaps.min(axis=1).max(), gaps.min(axis=0).max()))


# ---------------------------------------------------------------------------
# elements


class Element:
    """Immutable element of a :class:`BanachAlgebra`.

    Arithmetic operators delegate to the owning algebra.  Scalars mix in
    through the unit, so ``2 * a - 1`` means ``2a - 1`` in any unital algebra.
    """

    __slots__ = ("algebra", "payload")

    def __init__(self, algebra: "BanachAlgebra", payload: Any):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, name: str, value: Any):
        raise AttributeError("Element is immutable")

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other: Any) -> "Element":
        if isinstance(other, Element):
            if other.algebra != self.algebra:
                raise AlgebraMismatch(
                    f"elements of {self.algebra.kind} and {other.algebra.kind} "
                    "cannot be combined"
                )
            return other
        if isinstance(other, numbers.Complex):
            return self.algebra.scale(complex(other), self.algebra.one())
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self.algebra.add(self, rhs)

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self.algebra.add(self, self.algebra.neg(rhs))

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self.algebra.add(rhs, self.algebra.neg(self))

    def __mul__(self, other):
        if isinstance(other, numbers.Complex) and not isinstance(other, Element):
            return self.algebra.scale(complex(other), self)
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self.algebra.mul(self, rhs)

    def __rmul__(self, other):
        if isinstance(other, numbers.Complex) and not isinstance(other, Element):
            return self.algebra.scale(complex(other), self)
        lhs = self._coerce(other)
        if lhs is NotImplemented:
            return NotImplemented
        return self.algebra.mul(lhs, self)

    def __truediv__(self, other):
        if isinstance(other, numbers.Complex) and not isinstance(other, Element):
            return self.algebra.scale(1.0 / complex(other), self)
        return NotImplemented

    def __neg__(self):
        return self.algebra.neg(self)

    def __pos__(self):
        return self

    # -- conveniences ---------------------------------------------------

    def norm(self) -> float:
        return self.algebra.norm(self)

    def inverse(self) -> "Element":
        return self.algebra.inverse(self)

    def adjoint(self) -> "Element":
        return self.algebra.adjoint(self)

    def spectrum(self) -> SpectrumReport:
        return self.algebra.spectrum(self)

    def __repr__(self) -> str:
        return f"Element({self.algebra.kind}, {self.payload!r})"


# ---------------------------------------------------------------------------
# algebra base class


class BanachAlgebra:
    """Common interface of the concrete algebra kinds.

    Subclasses implement the payload-level hooks (``_add``, ``_mul``, ...);
    the public methods wrap payloads in :class:`Element` and validate
    ownership.
    """

    kind: str = "abstract"

    # structural flags, overridden where appropriate
    @property
    def is_unital(self) -> bool:
        return True

    @property
    def is_radical(self) -> bool:
        """True when every element is quasinilpotent (spectrum {0})."""
        return False

    @property
    def nilpotency_index(self) -> int | None:
        """m such that any product of m elements vanishes, if one exists."""
        return None

    @property
    def has_involution(self) -> bool:
        return False

    @property
    def involution_bound(self) -> float | None:
        """C with ||x*|| <= C ||x||, or None when there is no involution."""
        return None

    # -- payload hooks ---------------------------------------------------

    def _zero(self):
        raise NotImplementedError

    def _one(self):
        raise NotImplementedError

    def _add(self, p, q):
        raise NotImplementedError

    def _neg(self, p):
        raise NotImplementedError

    def _scale(self, c: complex, p):
        raise NotImplementedError

    def _mul(self, p, q):
        raise NotImplementedError

    def _norm(self, p) -> float:
        raise NotImplementedError

    def _inverse(self, p):
        raise NotImplementedError

    def _adjoint(self, p):
        raise NoInvolution(f"{self.kind} has no involution")

    def _spectrum(self, p) -> SpectrumReport:
        raise NotImplementedError

    def _random(self, rng: np.random.Generator, scale: float):
        raise NotImplementedError

    # -- public API -------------------------------------------------------

    def wrap(self, payload) -> Element:
        return Element(self, payload)

    def _own(self, x: Element):
        if not isinstance(x, Element) or x.algebra != self:
            raise AlgebraMismatch(f"element does not belong to this {self.kind} algebra")
        return x.payload

    def zero(self) -> Element:
        return self.wrap(self._zero())

    def one(self) -> Element:
        if not self.is_unital:
            raise ParameterError(f"{self.kind} algebra has no unit")
        return self.wrap(self._one())

    def add(self, x: Element, y: Element) -> Element:
        return self.wrap(self._add(self._own(x), self._own(y)))

    def neg(self, x: Element) -> Element:
        return self.wrap(self._neg(self._own(x)))

    def scale(self, c: complex, x: Element) -> Element:
        return self.wrap(self._scale(complex(c), self._own(x)))

    def mul(self, x: Element, y: Element) -> Element:
        return self.wrap(self._mul(self._own(x), self._own(y)))

    def norm(self, x: Element) -> float:
        return self._norm(self._own(x))

    def inverse(self, x: Element) -> Element:
        return self.wrap(self._inverse(self._own(x)))

    def adjoint(self, x: Element) -> Element:
        return self.wrap(self._adjoint(self._own(x)))

    def spectrum(self, x: Element) -> SpectrumReport:
        return self._spectrum(self._own(x))

    def random_element(self, rng: np.random.Generator, scale: float = 1.0) -> Element:
        return self.wrap(self._random(rng, float(scale)))

    def resolvent_batch(self, x: Element, zs: Sequence[complex]) -> list[Element]:
        """Resolvents ``(z - x)^-1`` for each ``z``; subclasses may batch."""
        one = self.one()
        return [self.inverse(self.add(self.scale(z, one), self.neg(x))) for z in zs]

    def resolvent_integral(
        self, x: Element, zs: Sequence[complex], weights: Sequence[complex]
    ) -> Element:
        """``sum_k weights[k] * (zs[k] - x)^-1``; subclasses may contract
        the weights before building any element."""
        return self.weighted_sum(self.resolvent_batch(x, zs), weights)

    def _untailed(self, p):
        """``p`` without its carried tail bound (``p`` where there is none)."""
        return p

    def add_tail(self, x: Element, t: float) -> Element | None:
        """Absorb an extra certified remainder ``t`` into the stored tail
        bound of ``x``; None when the algebra has no tail channel."""
        if t <= 0.0:
            return x
        return None

    def weighted_sum(self, elems: Sequence[Element], coeffs: Sequence[complex]) -> Element:
        """``sum_k coeffs[k] * elems[k]`` by pairwise summation in input order."""
        terms = [self._scale(complex(c), self._own(e)) for e, c in zip(elems, coeffs)]
        if not terms:
            return self.zero()
        while len(terms) > 1:
            nxt = [
                self._add(terms[i], terms[i + 1]) if i + 1 < len(terms) else terms[i]
                for i in range(0, len(terms), 2)
            ]
            terms = nxt
        return self.wrap(terms[0])

    def probe_basis(self) -> list[Element]:
        """Finite spanning family used for operator-norm sweeps."""
        raise NotImplementedError

    def matrix_representation(self, x: Element) -> np.ndarray:
        """Faithful matrix representation of ``x`` (stored part for wiener)."""
        raise NotImplementedError(f"{self.kind} has no matrix representation")

    def tail_bound(self, x: Element) -> float:
        """Enclosure-radius slack carried by ``x`` (zero except for wiener)."""
        self._own(x)
        return 0.0

    def describe(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()!r}>"


# ---------------------------------------------------------------------------
# matrix algebra


def _eig_points(mat: np.ndarray) -> tuple[complex, ...]:
    return _as_point_tuple(np.linalg.eigvals(mat))


@dataclass(frozen=True, repr=False)
class MatrixAlgebra(BanachAlgebra):
    """Full matrix algebra M_n with the operator 2-norm.

    ``weight`` (optional positive diagonal) replaces the norm by
    ``||W x W^-1||_2``, which stays submultiplicative and unital but makes
    the conjugate-transpose involution non-isometric: the optimal constant
    is ``(max w / min w)**2`` and is attained on a matrix unit.
    """

    n: int
    weight: tuple[float, ...] | None = None

    kind = "matrix"

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("matrix size must be >= 1")
        if self.weight is not None:
            object.__setattr__(self, "weight", tuple(float(w) for w in self.weight))
            w = np.asarray(self.weight, dtype=float)
            if w.shape != (self.n,) or np.any(w <= 0):
                raise ParameterError("weight must be a positive vector of length n")

    @property
    def has_involution(self) -> bool:
        return True

    @property
    def involution_bound(self) -> float:
        if self.weight is None:
            return 1.0
        w = np.asarray(self.weight)
        return float((w.max() / w.min()) ** 2)

    def _w(self) -> np.ndarray | None:
        return None if self.weight is None else np.asarray(self.weight, dtype=float)

    def _zero(self):
        return np.zeros((self.n, self.n), dtype=complex)

    def _one(self):
        return np.eye(self.n, dtype=complex)

    def _add(self, p, q):
        return p + q

    def _neg(self, p):
        return -p

    def _scale(self, c, p):
        return c * p

    def _mul(self, p, q):
        return p @ q

    def _norm(self, p) -> float:
        w = self._w()
        if w is not None:
            p = (w[:, None] * p) / w[None, :]
        return float(np.linalg.norm(p, 2))

    def _inverse(self, p):
        if not np.all(np.isfinite(p)):
            raise NotInvertible("matrix contains non-finite entries")
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.linalg.cond(p)
        if not np.isfinite(cond) or cond > CONDITION_LIMIT:
            raise NotInvertible(f"condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:.1e}")
        return np.linalg.inv(p)

    def _adjoint(self, p):
        return p.conj().T

    def _spectrum(self, p) -> SpectrumReport:
        return SpectrumReport(_eig_points(p), exact=True)

    def _random(self, rng, scale):
        m = rng.standard_normal((self.n, self.n)) + 1j * rng.standard_normal((self.n, self.n))
        return scale * m / np.sqrt(2.0 * self.n)

    def wrap(self, payload) -> Element:
        mat = np.asarray(payload, dtype=complex)
        if mat.shape != (self.n, self.n):
            raise ParameterError(
                f"expected a {self.n}x{self.n} matrix, got shape {mat.shape}"
            )
        return Element(self, mat)

    def _resolvents(self, p, zs: np.ndarray) -> np.ndarray:
        stack = zs[:, None, None] * np.eye(self.n) - p[None, :, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            conds = np.linalg.cond(stack)
        if np.any(~np.isfinite(conds)) or np.any(conds > CONDITION_LIMIT):
            raise NotInvertible("resolvent point too close to the spectrum")
        return np.linalg.inv(stack)

    def resolvent_batch(self, x: Element, zs: Sequence[complex]) -> list[Element]:
        inv = self._resolvents(self._own(x), np.asarray(list(zs), dtype=complex))
        return [self.wrap(r) for r in inv]

    def resolvent_integral(self, x, zs, weights):
        """In blocks of RESOLVENT_BLOCK_BYTES, so memory does not grow with the
        node count; summed on from the running total, in ``weighted_sum``'s order."""
        p = self._own(x)
        zs, ws = np.asarray(list(zs), dtype=complex), np.asarray(list(weights), dtype=complex)
        step = max(1, RESOLVENT_BLOCK_BYTES // (16 * self.n * self.n))
        total = np.zeros((0, self.n, self.n), dtype=complex)
        for lo in range(0, len(zs), step):
            terms = ws[lo : lo + step, None, None] * self._resolvents(p, zs[lo : lo + step])
            total = np.sum(np.concatenate((total, terms)), axis=0, keepdims=True)
        return self.wrap(total[0] if len(total) else self._zero())

    def weighted_sum(self, elems, coeffs):
        stack = np.stack([self._own(e) for e in elems])
        cs = np.asarray(list(coeffs), dtype=complex)
        return self.wrap(np.sum(cs[:, None, None] * stack, axis=0))

    def probe_basis(self) -> list[Element]:
        out = []
        for i in range(self.n):
            for j in range(self.n):
                m = np.zeros((self.n, self.n), dtype=complex)
                m[i, j] = 1.0
                out.append(self.wrap(m))
        return out

    def matrix_representation(self, x: Element) -> np.ndarray:
        return np.array(self._own(x), dtype=complex)

    def describe(self) -> dict:
        d = {"kind": self.kind, "n": self.n}
        if self.weight is not None:
            d["weight"] = list(self.weight)
        return d


# ---------------------------------------------------------------------------
# dual numbers over a base algebra


@dataclass(frozen=True, repr=False)
class DualAlgebra(BanachAlgebra):
    """Elements ``b0 + b1*eps`` with ``eps**2 = 0`` over a base algebra.

    Norm ``||b0|| + ||b1||``; the spectrum of an element equals the base
    spectrum of its ``b0`` part, and inversion uses
    ``(b0 + b1 eps)^-1 = b0^-1 - b0^-1 b1 b0^-1 eps``.
    """

    base: BanachAlgebra

    kind = "dual"

    def __post_init__(self):
        if not self.base.is_unital:
            raise ParameterError("dual numbers need a unital base algebra")

    @property
    def has_involution(self) -> bool:
        return self.base.has_involution

    @property
    def involution_bound(self) -> float | None:
        return self.base.involution_bound

    def _zero(self):
        return (self.base._zero(), self.base._zero())

    def _one(self):
        return (self.base._one(), self.base._zero())

    def _add(self, p, q):
        return (self.base._add(p[0], q[0]), self.base._add(p[1], q[1]))

    def _neg(self, p):
        return (self.base._neg(p[0]), self.base._neg(p[1]))

    def _scale(self, c, p):
        return (self.base._scale(c, p[0]), self.base._scale(c, p[1]))

    def _mul(self, p, q):
        b = self.base
        return (b._mul(p[0], q[0]), b._add(b._mul(p[0], q[1]), b._mul(p[1], q[0])))

    def _norm(self, p) -> float:
        return self.base._norm(p[0]) + self.base._norm(p[1])

    def _inverse(self, p):
        b = self.base
        i0 = b._inverse(p[0])
        return (i0, b._neg(b._mul(i0, b._mul(p[1], i0))))

    def _adjoint(self, p):
        return (self.base._adjoint(p[0]), self.base._adjoint(p[1]))

    def _spectrum(self, p) -> SpectrumReport:
        return self.base._spectrum(p[0])

    def _random(self, rng, scale):
        return (self.base._random(rng, scale), self.base._random(rng, scale))

    def resolvent_batch(self, x: Element, zs: Sequence[complex]) -> list[Element]:
        p = self._own(x)
        base_res = self.base.resolvent_batch(
            self.base.wrap(p[0]), zs
        )
        out = []
        for r in base_res:
            r0 = self.base._own(r)
            r1 = self.base._mul(r0, self.base._mul(p[1], r0))
            out.append(self.wrap((r0, r1)))
        return out

    def probe_basis(self) -> list[Element]:
        zero = self.base._zero()
        out = []
        for b in self.base.probe_basis():
            bp = self.base._own(b)
            out.append(self.wrap((bp, zero)))
            out.append(self.wrap((zero, bp)))
        return out

    def matrix_representation(self, x: Element) -> np.ndarray:
        p = self._own(x)
        r0 = self.base.matrix_representation(self.base.wrap(p[0]))
        r1 = self.base.matrix_representation(self.base.wrap(p[1]))
        top = np.hstack([r0, r1])
        bot = np.hstack([np.zeros_like(r0), r0])
        return np.vstack([top, bot])

    def base_part(self, x: Element) -> Element:
        return self.base.wrap(self._own(x)[0])

    def eps_part(self, x: Element) -> Element:
        return self.base.wrap(self._own(x)[1])

    def from_parts(self, b0: Element, b1: Element) -> Element:
        return self.wrap((self.base._own(b0), self.base._own(b1)))

    def describe(self) -> dict:
        return {"kind": self.kind, "base": self.base.describe()}


# ---------------------------------------------------------------------------
# block upper triangular algebra


@dataclass(frozen=True, repr=False)
class BlockTriangularAlgebra(BanachAlgebra):
    """2x2 block upper triangular complex matrices, sizes ``(k, m)``.

    The strictly upper block is a square-zero two-sided ideal.  Conjugate
    transposition leaves the subalgebra, so there is no involution.
    """

    k: int
    m: int

    kind = "block-triangular"

    def __post_init__(self):
        if self.k < 1 or self.m < 1:
            raise ParameterError("block sizes must be >= 1")

    @property
    def size(self) -> int:
        return self.k + self.m

    def _check(self, p):
        low = p[self.k :, : self.k]
        if np.any(low != 0):
            raise ParameterError("lower-left block must be exactly zero")
        return p

    def _zero(self):
        return np.zeros((self.size, self.size), dtype=complex)

    def _one(self):
        return np.eye(self.size, dtype=complex)

    def _add(self, p, q):
        return p + q

    def _neg(self, p):
        return -p

    def _scale(self, c, p):
        return c * p

    def _mul(self, p, q):
        out = p @ q
        out[self.k :, : self.k] = 0.0
        return out

    def _norm(self, p) -> float:
        return float(np.linalg.norm(p, 2))

    def _inverse(self, p):
        k = self.k
        x, y, z = p[:k, :k], p[:k, k:], p[k:, k:]
        for blk in (x, z):
            with np.errstate(divide="ignore", invalid="ignore"):
                cond = np.linalg.cond(blk)
            if not np.isfinite(cond) or cond > CONDITION_LIMIT:
                raise NotInvertible("diagonal block is numerically singular")
        xi = np.linalg.inv(x)
        zi = np.linalg.inv(z)
        out = np.zeros_like(p)
        out[:k, :k] = xi
        out[k:, k:] = zi
        out[:k, k:] = -xi @ y @ zi
        return out

    def _spectrum(self, p) -> SpectrumReport:
        k = self.k
        pts = list(np.linalg.eigvals(p[:k, :k])) + list(np.linalg.eigvals(p[k:, k:]))
        return SpectrumReport(_as_point_tuple(pts), exact=True)

    def _random(self, rng, scale):
        n = self.size
        p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        p[self.k :, : self.k] = 0.0
        return scale * p / np.sqrt(2.0 * n)

    def wrap(self, payload) -> Element:
        return Element(self, self._check(np.asarray(payload, dtype=complex)))

    def blocks(self, e: Element) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        p = self._own(e)
        k = self.k
        return p[:k, :k].copy(), p[:k, k:].copy(), p[k:, k:].copy()

    def resolvent_batch(self, x: Element, zs: Sequence[complex]) -> list[Element]:
        p = self._own(x)
        zs = np.asarray(list(zs), dtype=complex)
        stack = zs[:, None, None] * np.eye(self.size) - p[None, :, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            conds = np.linalg.cond(stack)
        if np.any(~np.isfinite(conds)) or np.any(conds > CONDITION_LIMIT):
            raise NotInvertible("resolvent point too close to the spectrum")
        inv = np.linalg.inv(stack)
        inv[:, self.k :, : self.k] = 0.0
        return [self.wrap(inv[j]) for j in range(len(zs))]

    def probe_basis(self) -> list[Element]:
        out = []
        n = self.size
        for i in range(n):
            for j in range(n):
                if i >= self.k and j < self.k:
                    continue
                m = np.zeros((n, n), dtype=complex)
                m[i, j] = 1.0
                out.append(self.wrap(m))
        return out

    def matrix_representation(self, x: Element) -> np.ndarray:
        return np.array(self._own(x), dtype=complex)

    def describe(self) -> dict:
        return {"kind": self.kind, "k": self.k, "m": self.m}


# ---------------------------------------------------------------------------
# discretised Volterra convolution algebra


@dataclass(frozen=True, repr=False)
class ConvolutionAlgebra(BanachAlgebra):
    """Volterra convolution ``(f*g)(t) = int_0^t f(s) g(t-s) ds`` on a grid.

    Functions are stored by their samples at the left endpoints
    ``t_l = l/N`` for ``l = 0..N-2`` and the integral is discretised by the
    left-endpoint rule, so the multiplication operator of ``f`` is the
    strictly lower triangular Toeplitz matrix ``T[i, j] = f_{i-j-1}/N``.
    Consequently any product of ``N`` elements vanishes exactly.  The norm is
    the discrete L1 norm ``sum |f_l| / N``, which is submultiplicative.

    The algebra has no unit and every element is nilpotent, hence radical.
    """

    n_grid: int

    kind = "convolution-discrete"

    def __post_init__(self):
        if self.n_grid < 2:
            raise ParameterError("grid size must be >= 2")

    @property
    def is_unital(self) -> bool:
        return False

    @property
    def is_radical(self) -> bool:
        return True

    @property
    def nilpotency_index(self) -> int | None:
        return self.n_grid

    @property
    def has_involution(self) -> bool:
        return True

    @property
    def involution_bound(self) -> float:
        return 1.0

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.n_grid - 1) / self.n_grid

    def _zero(self):
        return np.zeros(self.n_grid - 1, dtype=complex)

    def _add(self, p, q):
        return p + q

    def _neg(self, p):
        return -p

    def _scale(self, c, p):
        return c * p

    def _mul(self, p, q):
        h = 1.0 / self.n_grid
        full = np.convolve(p, q)
        out = np.zeros(self.n_grid - 1, dtype=complex)
        out[1:] = h * full[: self.n_grid - 2]
        return out

    def _norm(self, p) -> float:
        return float(np.sum(np.abs(p)) / self.n_grid)

    def _inverse(self, p):
        raise NotInvertible("convolution algebra has no unit")

    def _adjoint(self, p):
        return np.conj(p)

    def _spectrum(self, p) -> SpectrumReport:
        return SpectrumReport((0j,), exact=True)

    def _random(self, rng, scale):
        m = self.n_grid - 1
        return scale * (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2.0)

    def sample(self, func: Callable[[float], complex]) -> Element:
        return self.wrap(np.array([func(t) for t in self.grid], dtype=complex))

    def wrap(self, payload) -> Element:
        arr = np.asarray(payload, dtype=complex)
        if arr.shape != (self.n_grid - 1,):
            raise ParameterError(f"need {self.n_grid - 1} samples")
        return Element(self, arr)

    def probe_basis(self) -> list[Element]:
        out = []
        for l in range(self.n_grid - 1):
            v = np.zeros(self.n_grid - 1, dtype=complex)
            v[l] = 1.0
            out.append(self.wrap(v))
        return out

    def matrix_representation(self, x: Element) -> np.ndarray:
        """Strictly lower triangular Toeplitz multiplication operator."""
        p = self._own(x)
        n = self.n_grid
        mat = np.zeros((n, n), dtype=complex)
        for d in range(1, n):
            mat += np.diag(np.full(n - d, p[d - 1] / n), -d)
        return mat

    def describe(self) -> dict:
        return {"kind": self.kind, "N": self.n_grid}


# ---------------------------------------------------------------------------
# truncated power series with summable coefficient norms


@dataclass(frozen=True)
class _WienerPayload:
    coeffs: tuple  # base payloads, length degree + 1
    tail: float


@dataclass(frozen=True, repr=False)
class WienerAlgebra(BanachAlgebra):
    """Degree-``D`` truncations of power series over a base algebra.

    The norm is the l1 sum of base coefficient norms plus the carried
    ``tail``.  The tail of an element is an over-estimate of the norm
    distance between the stored truncation and the series it stands for;
    products propagate it as

        tail(xy) = spill + ||x||_stored * tail(y) + tail(x) * ||y||_stored
                   + tail(x) * tail(y)

    where ``spill`` is the exactly computed coefficient mass of degrees
    ``D+1 .. 2D`` dropped by the truncation.
    """

    base: BanachAlgebra
    degree: int
    spectrum_circles: int = 8
    spectrum_angles: int = 32

    kind = "wiener-truncated"

    def __post_init__(self):
        if self.degree < 0:
            raise ParameterError("truncation degree must be >= 0")

    @property
    def is_unital(self) -> bool:
        return self.base.is_unital

    @property
    def is_radical(self) -> bool:
        return self.base.is_radical

    @property
    def nilpotency_index(self) -> int | None:
        # coefficients of an m-fold product are sums of m-fold base products
        return self.base.nilpotency_index

    @property
    def has_involution(self) -> bool:
        return self.base.has_involution

    @property
    def involution_bound(self) -> float | None:
        return self.base.involution_bound

    def _zero(self):
        z = self.base._zero()
        return _WienerPayload(tuple(z for _ in range(self.degree + 1)), 0.0)

    def _one(self):
        coeffs = [self.base._one()] + [self.base._zero()] * self.degree
        return _WienerPayload(tuple(coeffs), 0.0)

    def _add(self, p, q):
        coeffs = tuple(
            self.base._add(a, b) for a, b in zip(p.coeffs, q.coeffs)
        )
        return _WienerPayload(coeffs, p.tail + q.tail)

    def _neg(self, p):
        return _WienerPayload(tuple(self.base._neg(a) for a in p.coeffs), p.tail)

    def _scale(self, c, p):
        return _WienerPayload(
            tuple(self.base._scale(c, a) for a in p.coeffs), abs(c) * p.tail
        )

    def _stored_norm(self, p) -> float:
        return float(sum(self.base._norm(a) for a in p.coeffs))

    def _mul(self, p, q):
        b = self.base
        d = self.degree
        kept = []
        spill = 0.0
        for k in range(2 * d + 1):
            lo = max(0, k - d)
            hi = min(k, d)
            acc = b._zero()
            for i in range(lo, hi + 1):
                acc = b._add(acc, b._mul(p.coeffs[i], q.coeffs[k - i]))
            if k <= d:
                kept.append(acc)
            else:
                spill += b._norm(acc)
        sx, sy = self._stored_norm(p), self._stored_norm(q)
        tail = spill + sx * q.tail + p.tail * sy + p.tail * q.tail
        return _WienerPayload(tuple(kept), tail)

    def _norm(self, p) -> float:
        return self._stored_norm(p) + p.tail

    def _inverse(self, p):
        b = self.base
        d = self.degree
        try:
            i0 = b._inverse(p.coeffs[0])
        except NotInvertible as exc:
            raise NotInvertible("constant coefficient is not invertible") from exc
        inv = [i0]
        for k in range(1, d + 1):
            acc = b._zero()
            for i in range(1, k + 1):
                acc = b._add(acc, b._mul(p.coeffs[i], inv[k - i]))
            inv.append(b._neg(b._mul(i0, acc)))
        g = _WienerPayload(tuple(inv), 0.0)
        # residual of the true product f*g against 1: truncation spill plus
        # the hidden mass of f acting on g
        spill = 0.0
        for k in range(d + 1, 2 * d + 1):
            lo, hi = k - d, d
            acc = b._zero()
            for i in range(lo, hi + 1):
                acc = b._add(acc, b._mul(p.coeffs[i], inv[k - i]))
            spill += b._norm(acc)
        g_norm = self._stored_norm(g)
        e_norm = spill + p.tail * g_norm
        if e_norm >= 1.0:
            raise NotInvertible(
                f"cannot certify the inverse: residual bound {e_norm:.3e} >= 1"
            )
        tail = g_norm * e_norm / (1.0 - e_norm)
        return _WienerPayload(tuple(inv), tail)

    def _adjoint(self, p):
        c = self.base.involution_bound
        if c is None:
            raise NoInvolution("base algebra has no involution")
        return _WienerPayload(
            tuple(self.base._adjoint(a) for a in p.coeffs), c * p.tail
        )

    def _spectrum(self, p) -> SpectrumReport:
        pts: list[complex] = []
        for j in range(self.spectrum_circles + 1):
            r = j / self.spectrum_circles
            if j == 0:
                zs = [0j]
            else:
                ang = 2.0 * np.pi * np.arange(self.spectrum_angles) / self.spectrum_angles
                zs = list(r * np.exp(1j * ang))
            for z in zs:
                val = self._eval_payload(p, z)
                pts.extend(self.base._spectrum(val).points)
        # collapse duplicates to keep reports small
        uniq: list[complex] = []
        for w in _as_point_tuple(pts):
            if not uniq or abs(w - uniq[-1]) > 1e-13:
                uniq.append(w)
        return SpectrumReport(tuple(uniq), exact=False)

    def _eval_payload(self, p, z: complex):
        b = self.base
        acc = b._zero()
        zk = 1.0 + 0j
        for a in p.coeffs:
            acc = b._add(acc, b._scale(zk, a))
            zk *= z
        return acc

    def _random(self, rng, scale):
        coeffs = tuple(
            self.base._random(rng, scale / (k + 1.0)) for k in range(self.degree + 1)
        )
        return _WienerPayload(coeffs, 0.0)

    # -- series-specific helpers ----------------------------------------

    def from_coeffs(self, coeffs: Sequence[Element], tail: float = 0.0) -> Element:
        pads = [self.base._own(c) for c in coeffs]
        if len(pads) > self.degree + 1:
            raise ParameterError("too many coefficients")
        while len(pads) < self.degree + 1:
            pads.append(self.base._zero())
        if tail < 0:
            raise ParameterError("tail bound must be nonnegative")
        return self.wrap(_WienerPayload(tuple(pads), float(tail)))

    def from_scalar_coeffs(self, coeffs: Sequence[complex], tail: float = 0.0) -> Element:
        if not isinstance(self.base, MatrixAlgebra) or self.base.n != 1:
            raise ParameterError("scalar coefficients need a matrix(1) base")
        elems = [self.base.wrap(np.array([[c]], dtype=complex)) for c in coeffs]
        return self.from_coeffs(elems, tail)

    def coefficient(self, x: Element, k: int) -> Element:
        return self.base.wrap(self._own(x).coeffs[k])

    def generator(self) -> Element:
        """The series ``z`` (unital base required)."""
        if self.degree < 1:
            raise ParameterError("degree must be >= 1 for a generator")
        coeffs = [self.base._zero(), self.base._one()] + [self.base._zero()] * (
            self.degree - 1
        )
        return self.wrap(_WienerPayload(tuple(coeffs), 0.0))

    def evaluate(self, x: Element, z: complex) -> Element:
        """Evaluate the stored series at the point ``z``."""
        return self.base.wrap(self._eval_payload(self._own(x), complex(z)))

    def tail_bound(self, x: Element) -> float:
        return self._own(x).tail

    def _untailed(self, p):
        return _WienerPayload(p.coeffs, 0.0)

    def add_tail(self, x: Element, t: float) -> Element | None:
        if t < 0.0:
            return None
        p = self._own(x)
        return self.wrap(_WienerPayload(p.coeffs, p.tail + float(t)))

    def probe_basis(self) -> list[Element]:
        out = []
        base_basis = self.base.probe_basis()
        for k in range(self.degree + 1):
            for b in base_basis:
                coeffs = [self.base._zero()] * (self.degree + 1)
                coeffs[k] = self.base._own(b)
                out.append(self.wrap(_WienerPayload(tuple(coeffs), 0.0)))
        return out

    def matrix_representation(self, x: Element) -> np.ndarray:
        """Block lower triangular Toeplitz representation of the truncation."""
        p = self._own(x)
        reps = [
            self.base.matrix_representation(self.base.wrap(c)) for c in p.coeffs
        ]
        nb = reps[0].shape[0]
        d = self.degree
        out = np.zeros(((d + 1) * nb, (d + 1) * nb), dtype=complex)
        for i in range(d + 1):
            for j in range(i + 1):
                out[i * nb : (i + 1) * nb, j * nb : (j + 1) * nb] = reps[i - j]
        return out

    def describe(self) -> dict:
        return {"kind": self.kind, "base": self.base.describe(), "degree": self.degree}


# ---------------------------------------------------------------------------
# unitization of a radical algebra


@dataclass(frozen=True, repr=False)
class UnitizationAlgebra(BanachAlgebra):
    """Unit adjoined to a radical base algebra: pairs ``f + c*1``.

    Norm ``||f|| + |c|``.  Because the base is radical, the spectrum of
    ``f + c*1`` is exactly ``{c}`` and the element is invertible iff
    ``c != 0``.
    """

    base: BanachAlgebra

    kind = "unitization"

    def __post_init__(self):
        if not self.base.is_radical:
            raise ParameterError("unitization is supported for radical bases only")
        if self.base.is_unital:
            raise ParameterError("base algebra already has a unit")

    @property
    def has_involution(self) -> bool:
        return self.base.has_involution

    @property
    def involution_bound(self) -> float | None:
        c = self.base.involution_bound
        return None if c is None else max(c, 1.0)

    def _zero(self):
        return (self.base._zero(), 0j)

    def _one(self):
        return (self.base._zero(), 1.0 + 0j)

    def _add(self, p, q):
        return (self.base._add(p[0], q[0]), p[1] + q[1])

    def _neg(self, p):
        return (self.base._neg(p[0]), -p[1])

    def _scale(self, c, p):
        return (self.base._scale(c, p[0]), c * p[1])

    def _mul(self, p, q):
        b = self.base
        f, c = p
        g, d = q
        fg = b._mul(f, g)
        mixed = b._add(b._add(fg, b._scale(c, g)), b._scale(d, f))
        return (mixed, c * d)

    def _norm(self, p) -> float:
        return self.base._norm(p[0]) + abs(p[1])

    def _inverse(self, p):
        f, c = p
        if abs(c) < 1e-300:
            raise NotInvertible("scalar part is zero")
        b = self.base
        u = b._scale(1.0 / c, f)
        cap = self.base.nilpotency_index
        if cap is None:
            cap = 64  # geometric fallback for non-nilpotent radical bases
        # v = sum_{k>=1} (-u)^k, exact once powers of u vanish
        term = b._neg(u)
        v = term
        exact = b._norm(term) == 0.0
        for _ in range(cap - 1):
            if exact:
                break
            term = b._neg(b._mul(u, term))
            if b._norm(term) == 0.0:
                exact = True
                break
            v = b._add(v, term)
        if not exact:
            # tails kept the powers from vanishing; certify the cut series
            r = b._norm(u)
            if r >= 1.0:
                raise NotInvertible(
                    "radical Neumann series cannot be certified at this norm"
                )
            bumped = b.add_tail(b.wrap(v), b._norm(term) * r / (1.0 - r))
            if bumped is None:
                raise NotInvertible(
                    "no tail channel to carry the Neumann remainder"
                )
            v = b._own(bumped)
        return (b._scale(1.0 / c, v), 1.0 / c)

    def resolvent_integral(self, x, zs, weights):
        """Contract the quadrature weights before building any element.

        ``(z - x)^{-1} = sum_n f^n / (z - c)^{n+1}`` for ``x = f + c``, so
        the integral is ``sum_n s_n f^n`` with the scalars
        ``s_n = sum_k w_k (z_k - c)^{-(n+1)}``: the powers of ``f`` are
        computed once and summed once.  The certified tail is the one the
        per-node sum would carry, ``sum_n t_n tail(f^n) + sum_k |w_k| bump_k``
        with ``t_n = sum_k |w_k| |z_k - c|^{-(n+1)}`` and ``bump_k`` the
        cut-off Neumann remainder at node k, certified as in ``_inverse``.
        """
        b = self.base
        f, c = self._own(x)
        ds = np.asarray(zs, dtype=complex) - c
        ws = np.asarray(weights, dtype=complex)
        if np.any(np.abs(ds) < 1e-300):
            raise NotInvertible("resolvent point hits the one-point spectrum")
        cap = self.base.nilpotency_index
        if cap is None:
            cap = 64
        powers = []
        term = f
        exact = False
        for _ in range(cap):
            if b._norm(term) == 0.0:
                exact = True
                break
            powers.append(term)
            term = b._mul(term, f)
        # row n holds (z_k - c)^-(n+1), the weight of f^n at node k
        inv = np.cumprod(np.broadcast_to(1.0 / ds, (len(powers) + 1, len(ds))), axis=0)
        tails = np.array([b.tail_bound(b.wrap(p)) for p in powers])
        tail = float((np.abs(inv[1:]) @ np.abs(ws)) @ tails)
        if not exact:
            r = b._norm(f) / np.abs(ds)
            if np.any(r >= 1.0):
                raise NotInvertible(
                    "radical Neumann series cannot be certified at this norm"
                )
            bump = b._norm(term) / (np.abs(ds) ** (len(powers) + 2) * (1.0 - r))
            tail += float(np.abs(ws) @ bump)
        # round up past the rounding error of these sums of nonnegative
        # terms, so that the certificate does not rest on their order
        tail *= 1.0 + (len(ds) + len(powers) + 4) * 2.0**-50
        stored = [b.wrap(b._untailed(p)) for p in powers]
        rad = b.add_tail(b.weighted_sum(stored, inv[1:] @ ws), tail)
        if rad is None:
            raise NotInvertible("no tail channel to carry the Neumann remainder")
        return self.wrap((b._own(rad), complex(ws @ inv[0])))

    def _adjoint(self, p):
        return (self.base._adjoint(p[0]), np.conj(p[1]))

    def _spectrum(self, p) -> SpectrumReport:
        return SpectrumReport((complex(p[1]),), exact=True)

    def _random(self, rng, scale):
        c = scale * (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2.0)
        return (self.base._random(rng, scale), c)

    def from_parts(self, f: Element, c: complex) -> Element:
        return self.wrap((self.base._own(f), complex(c)))

    def radical_part(self, x: Element) -> Element:
        return self.base.wrap(self._own(x)[0])

    def scalar_part(self, x: Element) -> complex:
        return complex(self._own(x)[1])

    def tail_bound(self, x: Element) -> float:
        return self.base.tail_bound(self.base.wrap(self._own(x)[0]))

    def probe_basis(self) -> list[Element]:
        out = [self.one()]
        for b in self.base.probe_basis():
            out.append(self.wrap((self.base._own(b), 0j)))
        return out

    def matrix_representation(self, x: Element) -> np.ndarray:
        p = self._own(x)
        rep = self.base.matrix_representation(self.base.wrap(p[0]))
        return rep + p[1] * np.eye(rep.shape[0])

    def describe(self) -> dict:
        return {"kind": self.kind, "base": self.base.describe()}


# ---------------------------------------------------------------------------
# finite products


@dataclass(frozen=True, repr=False)
class ProductAlgebra(BanachAlgebra):
    """Finite direct product with componentwise operations and max norm."""

    factors: tuple[BanachAlgebra, ...]

    kind = "product"

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if len(self.factors) < 1:
            raise ParameterError("product needs at least one factor")

    @property
    def is_unital(self) -> bool:
        return all(f.is_unital for f in self.factors)

    @property
    def has_involution(self) -> bool:
        return all(f.has_involution for f in self.factors)

    @property
    def involution_bound(self) -> float | None:
        if not self.has_involution:
            return None
        return max(f.involution_bound for f in self.factors)

    def _zero(self):
        return tuple(f._zero() for f in self.factors)

    def _one(self):
        return tuple(f._one() for f in self.factors)

    def _add(self, p, q):
        return tuple(f._add(a, b) for f, a, b in zip(self.factors, p, q))

    def _neg(self, p):
        return tuple(f._neg(a) for f, a in zip(self.factors, p))

    def _scale(self, c, p):
        return tuple(f._scale(c, a) for f, a in zip(self.factors, p))

    def _mul(self, p, q):
        return tuple(f._mul(a, b) for f, a, b in zip(self.factors, p, q))

    def _norm(self, p) -> float:
        return max(f._norm(a) for f, a in zip(self.factors, p))

    def _inverse(self, p):
        return tuple(f._inverse(a) for f, a in zip(self.factors, p))

    def _adjoint(self, p):
        return tuple(f._adjoint(a) for f, a in zip(self.factors, p))

    def _spectrum(self, p) -> SpectrumReport:
        pts: list[complex] = []
        exact = True
        for f, a in zip(self.factors, p):
            rep = f._spectrum(a)
            pts.extend(rep.points)
            exact = exact and rep.exact
        return SpectrumReport(_as_point_tuple(pts), exact=exact)

    def _random(self, rng, scale):
        return tuple(f._random(rng, scale) for f in self.factors)

    def component(self, x: Element, i: int) -> Element:
        return self.factors[i].wrap(self._own(x)[i])

    def from_components(self, *comps: Element) -> Element:
        if len(comps) != len(self.factors):
            raise ParameterError("component count mismatch")
        return self.wrap(tuple(f._own(c) for f, c in zip(self.factors, comps)))

    def resolvent_integral(self, x, zs, weights):
        parts = zip(self.factors, self._own(x))
        return self.wrap(tuple(f._own(f.resolvent_integral(f.wrap(a), zs, weights)) for f, a in parts))

    def tail_bound(self, x: Element) -> float:
        return max(
            f.tail_bound(f.wrap(a)) for f, a in zip(self.factors, self._own(x))
        )

    def probe_basis(self) -> list[Element]:
        out = []
        for i, f in enumerate(self.factors):
            for b in f.probe_basis():
                comps = [g._zero() for g in self.factors]
                comps[i] = f._own(b)
                out.append(self.wrap(tuple(comps)))
        return out

    def matrix_representation(self, x: Element) -> np.ndarray:
        reps = [
            f.matrix_representation(f.wrap(a))
            for f, a in zip(self.factors, self._own(x))
        ]
        n = sum(r.shape[0] for r in reps)
        out = np.zeros((n, n), dtype=complex)
        at = 0
        for r in reps:
            out[at : at + r.shape[0], at : at + r.shape[0]] = r
            at += r.shape[0]
        return out

    def describe(self) -> dict:
        return {"kind": self.kind, "factors": [f.describe() for f in self.factors]}


# ---------------------------------------------------------------------------
# descriptor-driven construction and functional conveniences


_KINDS = {
    "matrix",
    "dual",
    "block-triangular",
    "convolution-discrete",
    "wiener-truncated",
    "unitization",
    "product",
}


def build_algebra(descriptor: dict) -> BanachAlgebra:
    """Construct an algebra from a plain descriptor dictionary.

    Examples: ``{"kind": "matrix", "n": 4}``,
    ``{"kind": "dual", "base": {"kind": "matrix", "n": 2}}``,
    ``{"kind": "product", "factors": [...]}``.
    """
    if not isinstance(descriptor, dict) or "kind" not in descriptor:
        raise ParameterError("descriptor must be a dict with a 'kind' entry")
    kind = descriptor["kind"]
    if kind not in _KINDS:
        raise ParameterError(f"unknown algebra kind {kind!r}")
    try:
        if kind == "matrix":
            weight = descriptor.get("weight")
            return MatrixAlgebra(
                int(descriptor["n"]),
                None if weight is None else tuple(float(w) for w in weight),
            )
        if kind == "dual":
            return DualAlgebra(build_algebra(descriptor["base"]))
        if kind == "block-triangular":
            return BlockTriangularAlgebra(int(descriptor["k"]), int(descriptor["m"]))
        if kind == "convolution-discrete":
            return ConvolutionAlgebra(int(descriptor["N"]))
        if kind == "wiener-truncated":
            return WienerAlgebra(
                build_algebra(descriptor["base"]), int(descriptor["degree"])
            )
        if kind == "unitization":
            return UnitizationAlgebra(build_algebra(descriptor["base"]))
        factors = tuple(build_algebra(d) for d in descriptor["factors"])
        return ProductAlgebra(factors)
    except KeyError as exc:
        raise ParameterError(f"descriptor for {kind!r} is missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"bad descriptor for {kind!r}: {exc}") from exc


def mul(x: Element, y: Element) -> Element:
    return x * y


def inverse(x: Element) -> Element:
    return x.algebra.inverse(x)


def adjoint(x: Element) -> Element:
    return x.algebra.adjoint(x)


def norm(x: Element) -> float:
    return x.algebra.norm(x)


def spectrum(x: Element) -> SpectrumReport:
    return x.algebra.spectrum(x)


def dist(x: Element, y: Element) -> float:
    """Norm distance between two elements of the same algebra."""
    return (x - y).norm()


def idempotency_defect(x: Element) -> float:
    return (x * x - x).norm()


def commutator_defect(x: Element, y: Element) -> float:
    return (x * y - y * x).norm()


def alg_exp(x: Element, tol: float = 1e-13) -> Element:
    """Exponential by scaling and squaring of a norm-controlled Taylor sum."""
    alg = x.algebra
    nx = x.norm()
    squarings = 0
    while nx > 0.5:
        nx *= 0.5
        squarings += 1
    y = x / (2.0**squarings) if squarings else x
    acc = alg.one()
    term = alg.one()
    k = 1
    while True:
        term = term * y / k
        acc = acc + term
        if term.norm() <= tol * 1e-3 or k > 64:
            break
        k += 1
    for _ in range(squarings):
        acc = acc * acc
    return acc
