"""Concrete Banach algebras with computable norms, inverses and spectra.

Seven algebra kinds are implemented:

``matrix``
    Square complex matrices under the operator 2-norm, with conjugate
    transposition as involution.
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
    Power series with coefficients in a matrix or convolution base algebra
    and absolutely summable coefficient norms, truncated at a fixed degree
    ``D``.  The coefficients are stored as one ``(D+1, *base shape)`` array,
    and each element carries a nonnegative ``tail`` scalar bounding the norm
    distance between the stored truncation and the element it stands for.
    A product is one truncated Cauchy product, one GEMM on a convolution
    base; the coefficient mass it drops (degrees ``D+1 .. 2D``) goes into
    the tail, rounded up.
``unitization``
    A unit adjoined to a radical algebra; the norm is the l1 sum and every
    spectrum is the singleton of the adjoined scalar.  Its inverses and its
    contour sums are one Neumann series with one tail certificate.
``product``
    Finite direct products with the max norm and componentwise operations.

Elements are immutable values tied to their owning algebra; all operations
are pure functions.  An element's operators and its methods (``norm``,
``inverse``, ``adjoint``, ``spectrum``) are the one function API: the only
module-level function is ``alg_exp``.  The array-payload kinds (matrix,
block-triangular, convolution) share one private base, ``_ArrayAlgebra``:
numpy's linear arithmetic, a shape-checked ``wrap`` and, for matrix
payloads, the spectral norm and the payload as its representation.  They
take norms of whole payload stacks with one kernel, ``_norms``.  The series
kind's product takes every coefficient product from one ``_products`` call
of its base.  Contour sums go through ``resolvent_kernel(x)``, built once per
integral, so that what does not depend on the nodes is done once; a call
sums each run of its nodes (a quadrature's edges) apart.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .errors import (
    AlgebraMismatch,
    NoInvolution,
    NotInvertible,
    ParameterError,
)
from .frozen import Frozen

CONDITION_LIMIT = 1e12
RESOLVENT_BLOCK_BYTES = 1 << 16  # one block of MatrixAlgebra.resolvent_kernel
_TINY = np.finfo(np.float64).tiny  # smallest normal float


def _squared_frobenius(mats: np.ndarray) -> np.ndarray:
    """``||A||_F^2`` of each matrix of a contiguous stack."""
    flat = mats.reshape(len(mats), -1).view(np.float64)
    return np.einsum("ij,ij->i", flat, flat)


def _checked_inv(stack: np.ndarray, message: str) -> np.ndarray:
    """Inverse of a matrix, or of each matrix of a stack, refusing every
    one that is not safely invertible with :class:`NotInvertible`.

    Non-finite entries are refused first.  One batched ``np.linalg.inv``
    follows; an exactly singular member is refused, not raised as
    ``LinAlgError``.  Last, a member is refused where the bound
    ``||A||_F ||A^-1||_F`` exceeds ``CONDITION_LIMIT`` or is not finite.
    As ``||.||_2 <= ||.||_F <= sqrt(n) ||.||_2`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 6.2), the bound lies between
    cond_2(A) and n cond_2(A): every matrix with cond_2 above the limit is
    refused, and none with cond_2 below ``CONDITION_LIMIT / n``.  It costs
    two sums of squares where cond_2 costs a batched SVD.  Before a
    refusal, sums of squares that under- or overflowed are taken again with
    each matrix scaled to largest entry 1, so that scale alone refuses
    nothing.
    """
    mats = np.ascontiguousarray(stack).reshape((-1,) + stack.shape[-2:])
    if not np.isfinite(mats).all():
        raise NotInvertible(f"{message}: non-finite entries")
    try:
        inv = np.linalg.inv(mats)
    except np.linalg.LinAlgError as exc:
        raise NotInvertible(f"{message}: exactly singular") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        sq, sq_inv = _squared_frobenius(mats), _squared_frobenius(inv)
        bound = np.sqrt(sq) * np.sqrt(sq_inv)
        if min(sq.min(), sq_inv.min()) >= _TINY and (bound <= CONDITION_LIMIT).all():
            return inv.reshape(stack.shape)
        # refuse only on sums of squares that neither under- nor
        # overflowed: sum again with each matrix scaled to largest entry 1
        s = np.abs(mats).max(axis=(1, 2), keepdims=True)
        bound = np.sqrt(_squared_frobenius(mats / s)) * np.sqrt(_squared_frobenius(inv * s))
    if not (bound <= CONDITION_LIMIT).all():  # NaN compares False
        raise NotInvertible(
            f"{message}: condition bound {bound.max():.3e} exceeds {CONDITION_LIMIT:.1e}"
        )
    return inv.reshape(stack.shape)


def _runs(starts: Sequence[int], count: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` of each run of ``count`` nodes: run ``i`` holds the
    nodes from ``starts[i]`` up to the next start, the last up to the end."""
    starts = [int(s) for s in starts]
    return list(zip(starts, starts[1:] + [count]))


def _resolvents(p: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """``(z - p)^-1`` for each ``z`` of ``zs``: a stack of matrices."""
    stack = zs[:, None, None] * np.eye(p.shape[-1]) - p[None, :, :]
    return _checked_inv(stack, "resolvent point too close to the spectrum")


# ---------------------------------------------------------------------------
# spectrum reports


class SpectrumReport(Frozen):
    """Finite spectrum description: the points and an exactness flag.

    ``exact`` is True when the points enumerate the spectrum up to floating
    point roundoff and False when they merely sample it (wiener kind).
    """

    __slots__ = ("points", "exact")

    @property
    def radius(self) -> float:
        if not self.points:
            return 0.0
        return max(abs(p) for p in self.points)


def _as_point_tuple(values: Iterable[complex]) -> tuple[complex, ...]:
    return tuple(sorted((complex(v) for v in values), key=lambda z: (z.real, z.imag)))


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

    def __delattr__(self, name: str):
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


class BanachAlgebra(Frozen):
    """Common interface of the concrete algebra kinds.

    Subclasses implement the payload-level hooks (``_add``, ``_mul``, ...);
    the public methods wrap payloads in :class:`Element` and validate
    ownership.  Each kind is a :class:`~idemlift.frozen.Frozen` record of
    its parameters: two algebras built alike compare and hash equal.
    """

    __slots__ = ()
    kind: str = "abstract"

    # structural flags, overridden where appropriate
    @property
    def is_unital(self) -> bool:
        return True

    @property
    def is_radical(self) -> bool:
        """True when every element is quasinilpotent (spectrum {0}).  Every
        radical kind here is nilpotent, so this is read off
        ``nilpotency_index``."""
        return self.nilpotency_index is not None

    @property
    def nilpotency_index(self) -> int | None:
        """m such that any product of m elements vanishes, if one exists."""
        return None

    @property
    def has_involution(self) -> bool:
        """Read off ``involution_bound``, which each kind with an
        involution overrides."""
        return self.involution_bound is not None

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
        return self._norm_parts(p)[0]

    def _norm_parts(self, p) -> tuple[float, float]:
        """The norm of ``p`` and the norm of its stored data, carried tails
        set aside: the one norm hook of a kind (array kinds: no tails)."""
        n = float(self._norms(p))
        return n, n

    def _norms(self, stack) -> np.ndarray:
        """The norm of each payload of an array stack (array payloads only)."""
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

    def sum(self, xs: Sequence[Element]) -> Element:
        """``xs[0] + xs[1] + ...``, added left to right as ``+`` adds, with
        one element built: a quadrature's sum over its edges."""
        return self.wrap(functools.reduce(self._add, [self._own(x) for x in xs]))

    def scale(self, c: complex, x: Element) -> Element:
        return self.wrap(self._scale(complex(c), self._own(x)))

    def mul(self, x: Element, y: Element) -> Element:
        return self.wrap(self._mul(self._own(x), self._own(y)))

    def norm(self, x: Element) -> float:
        return self._norm(self._own(x))

    def norm_parts(self, x: Element) -> tuple[float, float]:
        return self._norm_parts(self._own(x))

    def inverse(self, x: Element) -> Element:
        return self.wrap(self._inverse(self._own(x)))

    def adjoint(self, x: Element) -> Element:
        return self.wrap(self._adjoint(self._own(x)))

    def spectrum(self, x: Element) -> SpectrumReport:
        return self._spectrum(self._own(x))

    def random_element(self, rng: np.random.Generator, scale: float = 1.0) -> Element:
        return self.wrap(self._random(rng, float(scale)))

    def resolvent_batch(self, x: Element, zs: Sequence[complex]) -> list[Element]:
        """Resolvents ``(z - x)^-1``, one element per ``z``: the hook of the
        generic resolvent kernel, for the kinds that do not override it."""
        raise ParameterError(f"{self.kind} algebra has no resolvent batch")

    def resolvent_kernel(
        self, x: Element
    ) -> Callable[[Sequence[complex], Sequence[complex], Sequence[int]], list[Element]]:
        """The contour sums of ``x``: a function of ``(zs, weights, starts)``
        that gives one element per run of nodes, ``sum_k weights[k] *
        (zs[k] - x)^-1`` over the nodes from ``starts[i]`` up to the next
        start (the last run up to the end).  ``starts`` begins at 0 and
        rises.  A run's sum does not depend on the other runs of the call.
        What does not depend on the nodes is done here, once, so that a
        quadrature which calls the kernel once per pass does it once per
        integral.

        Generic: each call builds one resolvent batch for all of its nodes,
        weights it and sums each run pairwise in node order.  Kinds that can
        contract the weights before building any element, or that have
        node-independent work, override this."""

        def integral(zs, weights, starts) -> list[Element]:
            batch = self.resolvent_batch(x, zs)
            terms = [self._scale(complex(w), self._own(r)) for r, w in zip(batch, weights)]
            sums = []
            for lo, hi in _runs(starts, len(terms)):
                run = terms[lo:hi] or [self._zero()]
                while len(run) > 1:
                    run = [
                        self._add(run[i], run[i + 1]) if i + 1 < len(run) else run[i]
                        for i in range(0, len(run), 2)
                    ]
                sums.append(self.wrap(run[0]))
            return sums

        return integral

    def resolvent_integral(
        self, x: Element, zs: Sequence[complex], weights: Sequence[complex]
    ) -> Element:
        """``sum_k weights[k] * (zs[k] - x)^-1``: the one-run call of
        ``resolvent_kernel(x)``."""
        return self.resolvent_kernel(x)(zs, weights, [0])[0]

    def _powers(self, f, cap: int) -> tuple[list, bool, float]:
        """The powers ``f, f^2, ...`` before the first of norm 0, at most
        ``cap`` of them: the table of the unitization's resolvent kernel.
        Also whether a power of norm 0 ended them, and if not the norm of
        the next power.  Generic: one ``_mul`` by ``f`` and one norm per
        power."""
        powers, term = [], f
        for _ in range(cap):
            if self._norm(term) == 0.0:
                return powers, True, 0.0
            powers.append(term)
            term = self._mul(term, f)
        return powers, False, self._norm(term)

    def _untailed(self, p):
        """``p`` without its carried tail bound (``p`` where there is none)."""
        return p

    def add_tail(self, x: Element, t: float) -> Element | None:
        """Absorb an extra certified remainder ``t`` into the stored tail
        bound of ``x``; None when the algebra has no tail channel."""
        if t <= 0.0:
            return x
        return None

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


# ---------------------------------------------------------------------------
# matrix algebra


def _spectral_norms(stack: np.ndarray) -> np.ndarray:
    """``||A||_2`` of a matrix, or of each matrix of a stack: the largest
    singular value, which LAPACK returns first.

    Non-finite entries are refused with :class:`ParameterError` before
    LAPACK sees them: on infinite entries it would return NaN (and print
    a DLASCL message), on NaN entries fail to converge.  A failure to
    converge on finite entries is raised as :class:`ParameterError` too.
    """
    if not np.isfinite(stack).all():
        raise ParameterError("spectral norm failed: non-finite entries")
    try:
        return np.linalg.svd(stack, compute_uv=False)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise ParameterError(f"spectral norm failed: {exc}") from exc


def _eigvals(mat: np.ndarray) -> np.ndarray:
    """Eigenvalues of ``mat``; LAPACK's refusal of non-finite entries is
    raised as :class:`ParameterError`."""
    try:
        return np.linalg.eigvals(mat)
    except np.linalg.LinAlgError as exc:
        raise ParameterError(f"eigenvalues failed: {exc}") from exc


class _ArrayAlgebra(BanachAlgebra):
    """The kinds whose payload is one complex array of a fixed ``shape``
    (matrix, block-triangular, convolution): their linear arithmetic is
    numpy's, and ``wrap`` refuses a payload of any other shape.  A matrix
    payload is its own representation and takes the operator 2-norm; the
    convolution kind, whose payload is a vector, overrides both."""

    __slots__ = ()

    def _zero(self):
        return np.zeros(self.shape, dtype=complex)

    def _add(self, p, q):
        return p + q

    def _neg(self, p):
        return -p

    def _scale(self, c, p):
        return c * p

    def wrap(self, payload) -> Element:
        arr = np.asarray(payload, dtype=complex)
        if arr.shape != self.shape:
            raise ParameterError(
                f"{self.kind} payload must have shape {self.shape}, got {arr.shape}"
            )
        return Element(self, arr)

    def _norms(self, stack) -> np.ndarray:
        return _spectral_norms(stack)

    def probe_basis(self) -> list[Element]:
        units = np.eye(math.prod(self.shape), dtype=complex).reshape((-1, *self.shape))
        return [self.wrap(u) for u in units]

    def matrix_representation(self, x: Element) -> np.ndarray:
        return np.array(self._own(x), dtype=complex)


class MatrixAlgebra(_ArrayAlgebra):
    """Full matrix algebra M_n with the operator 2-norm."""

    __slots__ = ("n",)
    kind = "matrix"

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("matrix size must be >= 1")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @property
    def involution_bound(self) -> float:
        return 1.0

    def _one(self):
        return np.eye(self.n, dtype=complex)

    def _mul(self, p, q):
        return p @ q

    def _right_operand(self, q):
        """``q`` as the right factor of ``_products``: the matrices themselves."""
        return q

    def _products(self, a, rq):
        """``a[i] @ rq[j]`` for every ``i`` and ``j``: one broadcast product."""
        return a[:, None] @ rq[None, :]

    def _inverse(self, p):
        return _checked_inv(p, "matrix is numerically singular")

    def _adjoint(self, p):
        return p.conj().swapaxes(-1, -2)

    def _spectrum(self, p) -> SpectrumReport:
        return SpectrumReport(_as_point_tuple(_eigvals(p)), True)

    def _random(self, rng, scale):
        m = rng.standard_normal((self.n, self.n)) + 1j * rng.standard_normal((self.n, self.n))
        return scale * m / np.sqrt(2.0 * self.n)

    def resolvent_batch(self, x: Element, zs: Sequence[complex]) -> list[Element]:
        inv = _resolvents(self._own(x), np.asarray(list(zs), dtype=complex))
        return [self.wrap(r) for r in inv]

    def resolvent_kernel(self, x):
        """Each call inverts in blocks of RESOLVENT_BLOCK_BYTES, so memory
        does not grow with the node count.  numpy sums a stack along its
        first axis term by term, so each run is summed in node order, and
        carried across blocks, whatever the blocks and the other runs are:
        a run's sum equals a one-run call on its nodes.  The whole runs of
        one length in a block are summed at once."""
        p = self._own(x)
        step = max(1, RESOLVENT_BLOCK_BYTES // (16 * self.n * self.n))

        def integral(zs, weights, starts) -> list[Element]:
            zs, ws = np.asarray(zs, dtype=complex), np.asarray(weights, dtype=complex)
            runs = _runs(starts, len(zs))
            sums: list = [None] * len(runs)
            r = 0
            for lo in range(0, len(zs), step):
                hi = min(lo + step, len(zs))
                terms = ws[lo:hi, None, None] * _resolvents(p, zs[lo:hi])
                at = lo
                while at < hi:
                    while runs[r][1] <= at:
                        r += 1
                    a, b = runs[r]
                    if a == at and b <= hi:
                        j, length = r + 1, b - a
                        while j < len(runs) and runs[j][1] <= hi and runs[j][1] - runs[j][0] == length:
                            j += 1
                        end = runs[j - 1][1]
                        group = terms[at - lo : end - lo].reshape(j - r, length, self.n, self.n)
                        sums[r:j] = group.sum(axis=1)
                    else:
                        end = min(b, hi)
                        part = terms[at - lo : end - lo]
                        if sums[r] is not None:
                            part = np.concatenate((sums[r][None], part))
                        sums[r] = part.sum(axis=0)
                    at = end
            # every sum has the payload shape, so wrap's check is skipped
            return [Element(self, self._zero() if t is None else t) for t in sums]

        return integral


# ---------------------------------------------------------------------------
# dual numbers over a base algebra


class DualAlgebra(BanachAlgebra):
    """Elements ``b0 + b1*eps`` with ``eps**2 = 0`` over a base algebra.

    Norm ``||b0|| + ||b1||``; the spectrum of an element equals the base
    spectrum of its ``b0`` part, and inversion uses
    ``(b0 + b1 eps)^-1 = b0^-1 - b0^-1 b1 b0^-1 eps``.
    """

    __slots__ = ("base",)
    kind = "dual"

    def __post_init__(self):
        if not self.base.is_unital:
            raise ParameterError("dual numbers need a unital base algebra")

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

    def _norm_parts(self, p) -> tuple[float, float]:
        (n0, s0), (n1, s1) = self.base._norm_parts(p[0]), self.base._norm_parts(p[1])
        return n0 + n1, s0 + s1

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


# ---------------------------------------------------------------------------
# block upper triangular algebra


class BlockTriangularAlgebra(_ArrayAlgebra):
    """2x2 block upper triangular complex matrices, sizes ``(k, m)``.

    The strictly upper block is a square-zero two-sided ideal.  Conjugate
    transposition leaves the subalgebra, so there is no involution.
    """

    __slots__ = ("k", "m")
    kind = "block-triangular"

    def __post_init__(self):
        if self.k < 1 or self.m < 1:
            raise ParameterError("block sizes must be >= 1")

    @property
    def size(self) -> int:
        return self.k + self.m

    @property
    def shape(self) -> tuple[int, int]:
        return (self.size, self.size)

    def _one(self):
        return np.eye(self.size, dtype=complex)

    def _mul(self, p, q):
        out = p @ q
        out[self.k :, : self.k] = 0.0
        return out

    def _inverse(self, p):
        k = self.k
        x, y, z = p[:k, :k], p[:k, k:], p[k:, k:]
        xi = _checked_inv(x, "diagonal block is numerically singular")
        zi = _checked_inv(z, "diagonal block is numerically singular")
        out = np.zeros_like(p)
        out[:k, :k] = xi
        out[k:, k:] = zi
        out[:k, k:] = -xi @ y @ zi
        return out

    def _spectrum(self, p) -> SpectrumReport:
        k = self.k
        pts = list(_eigvals(p[:k, :k])) + list(_eigvals(p[k:, k:]))
        return SpectrumReport(_as_point_tuple(pts), True)

    def _random(self, rng, scale):
        n = self.size
        p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        p[self.k :, : self.k] = 0.0
        return scale * p / np.sqrt(2.0 * n)

    def wrap(self, payload) -> Element:
        elem = super().wrap(payload)
        if np.any(elem.payload[self.k :, : self.k] != 0):
            raise ParameterError("lower-left block must be exactly zero")
        return elem

    def resolvent_batch(self, x: Element, zs: Sequence[complex]) -> list[Element]:
        inv = _resolvents(self._own(x), np.asarray(list(zs), dtype=complex))
        inv[:, self.k :, : self.k] = 0.0
        return [self.wrap(r) for r in inv]

    def probe_basis(self) -> list[Element]:
        units = np.eye(self.size**2, dtype=complex).reshape(-1, self.size, self.size)
        return [self.wrap(u) for u in units if not u[self.k :, : self.k].any()]


# ---------------------------------------------------------------------------
# discretised Volterra convolution algebra


@functools.lru_cache(maxsize=None)
def _toeplitz_index(m: int) -> np.ndarray:
    """``idx[l, j] = max(l - j, 0)``, read-only: for ``f`` of length
    ``m + 1``, ``f[idx]`` is the lower triangular Toeplitz matrix with
    ``f[0]`` on and ``f[l - j]`` below its diagonal."""
    rows = np.arange(m)
    idx = np.maximum(rows[:, None] - rows[None, :], 0)
    idx.flags.writeable = False
    return idx


class ConvolutionAlgebra(_ArrayAlgebra):
    """Volterra convolution ``(f*g)(t) = int_0^t f(s) g(t-s) ds`` on a grid.

    Functions are stored by their samples at the left endpoints
    ``t_l = l/N`` for ``l = 0..N-2`` and the integral is discretised by the
    left-endpoint rule, so the multiplication operator of ``f`` is the
    strictly lower triangular Toeplitz matrix ``T[i, j] = f_{i-j-1}/N``.
    Consequently any product of ``N`` elements vanishes exactly.  The norm is
    the discrete L1 norm ``sum |f_l| / N``, which is submultiplicative.

    The algebra has no unit and every element is nilpotent, hence radical.
    """

    __slots__ = ("n_grid",)
    kind = "convolution-discrete"

    def __post_init__(self):
        if self.n_grid < 2:
            raise ParameterError("grid size must be >= 2")

    @property
    def is_unital(self) -> bool:
        return False

    @property
    def nilpotency_index(self) -> int | None:
        return self.n_grid

    @property
    def involution_bound(self) -> float:
        return 1.0

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.n_grid - 1) / self.n_grid

    @property
    def shape(self) -> tuple[int]:
        return (self.n_grid - 1,)

    def _right_operand(self, q):
        """The strictly lower triangular Toeplitz matrix of each payload of
        ``q``, without the ``1/N``: the right factor of ``_products``."""
        padded = np.concatenate((np.zeros(q.shape[:-1] + (1,), dtype=complex), q), axis=-1)
        return padded[..., _toeplitz_index(self.n_grid - 1)]

    def _products(self, a, tb):
        """The one product kernel of this kind: ``a[i] * b[j]`` for every
        row ``a[i]`` of ``a`` and every Toeplitz matrix ``tb[j]`` of ``b``
        (``_right_operand``), shape ``(I, J, M)``.

        It is one GEMM (Goto & van de Geijn, ACM TOMS 34(3), 2008): the rows
        of ``a`` times ``b``'s Toeplitz stack reshaped to ``(J*M, M)``, then
        the ``1/N``.  So each product is ``T_b a``; the product commutes,
        but ``T_a b`` rounds differently.
        """
        m = a.shape[-1]
        prods = (a @ tb.reshape(-1, m).T).reshape(len(a), len(tb), m)
        return (1.0 / self.n_grid) * prods

    def _mul(self, p, q):
        """``p * q`` of two payloads: ``_products`` of one row and one
        Toeplitz matrix."""
        return self._products(p[None], self._right_operand(q)[None])[0, 0]

    def _norms(self, stack) -> np.ndarray:
        return np.sum(np.abs(stack), axis=-1) / self.n_grid

    def _inverse(self, p):
        raise NotInvertible("convolution algebra has no unit")

    def _adjoint(self, p):
        return np.conj(p)

    def _spectrum(self, p) -> SpectrumReport:
        return SpectrumReport((0j,), True)

    def _random(self, rng, scale):
        m = self.n_grid - 1
        return scale * (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2.0)

    def sample(self, func: Callable[[float], complex]) -> Element:
        return self.wrap(np.array([func(t) for t in self.grid], dtype=complex))

    def matrix_representation(self, x: Element) -> np.ndarray:
        """Strictly lower triangular Toeplitz multiplication operator."""
        p = self._own(x)
        n = self.n_grid
        mat = np.zeros((n, n), dtype=complex)
        for d in range(1, n):
            mat += np.diag(np.full(n - d, p[d - 1] / n), -d)
        return mat


# ---------------------------------------------------------------------------
# truncated power series with summable coefficient norms


# the spectrum of a series is sampled at 0 and on this many circles of
# this many equispaced points each, out to the unit circle
_SPECTRUM_CIRCLES = 8
_SPECTRUM_ANGLES = 32


class _WienerPayload:
    """A series' coefficients and tail bound; not a record, as an array has no value equality."""

    __slots__ = ("coeffs", "tail")

    def __init__(self, coeffs: np.ndarray, tail: float):
        object.__setattr__(self, "coeffs", coeffs)  # shape (degree + 1, *base payload shape)
        object.__setattr__(self, "tail", tail)

    def __setattr__(self, name: str, value: Any):
        raise AttributeError("_WienerPayload is immutable")

    def __delattr__(self, name: str):
        raise AttributeError("_WienerPayload is immutable")


class WienerAlgebra(BanachAlgebra):
    """Degree-``D`` truncations of power series over a matrix or
    convolution base algebra.

    The coefficients are stored as one ``(D+1, *base shape)`` complex array,
    so every operation is a batched base operation; any other base kind is
    refused.  The norm is the l1 sum of base coefficient norms plus the
    carried ``tail``.  The tail of an element is an over-estimate of the norm
    distance between the stored truncation and the series it stands for;
    products propagate it as

        tail(xy) = spill + ||x||_stored * tail(y) + tail(x) * ||y||_stored
                   + tail(x) * tail(y)

    where ``spill`` is the coefficient mass of degrees ``D+1 .. 2D`` that
    the truncation drops: the summed norms of the discarded block of the
    same Cauchy product, rounded up past the rounding error of that sum.

    All ``(D+1)^2`` coefficient products come from one base ``_products``
    call (``_cauchy``): on a convolution base one GEMM against the right
    operand's Toeplitz stack, so each is formed as ``T_b a``, which rounds
    differently from ``T_a b``.
    """

    __slots__ = ("base", "degree")
    kind = "wiener-truncated"

    def __post_init__(self):
        if not isinstance(self.base, (MatrixAlgebra, ConvolutionAlgebra)):
            raise ParameterError("series coefficients need a matrix or convolution base")
        if self.degree < 0:
            raise ParameterError("truncation degree must be >= 0")

    @property
    def is_unital(self) -> bool:
        return self.base.is_unital

    @property
    def nilpotency_index(self) -> int | None:
        # coefficients of an m-fold product are sums of m-fold base products
        return self.base.nilpotency_index

    @property
    def involution_bound(self) -> float | None:
        return self.base.involution_bound

    def _zero(self):
        shape = (self.degree + 1,) + self.base.shape
        return _WienerPayload(np.zeros(shape, dtype=complex), 0.0)

    def _one(self):
        coeffs = self._zero().coeffs
        coeffs[0] = self.base._one()
        return _WienerPayload(coeffs, 0.0)

    def _add(self, p, q):
        return _WienerPayload(p.coeffs + q.coeffs, p.tail + q.tail)

    def _neg(self, p):
        return _WienerPayload(-p.coeffs, p.tail)

    def _scale(self, c, p):
        return _WienerPayload(c * p.coeffs, abs(c) * p.tail)

    def _stored_norm(self, p) -> float:
        # summed in coefficient order, so the sum does not depend on numpy's
        # pairwise summation, which regroups from eight terms on
        return sum(self.base._norms(p.coeffs).tolist())

    def _cauchy(self, a: np.ndarray, rb: np.ndarray) -> tuple[np.ndarray, float]:
        """Truncated Cauchy product of the coefficient arrays ``a`` and
        ``b``, with ``b`` given as the base's right operand
        ``rb = base._right_operand(b)``: its degrees ``0 .. D``, and the
        spill, the summed norms of its degrees ``D+1 .. 2D``.

        All ``(D+1)^2`` products ``a[i] b[j]`` come from one base
        ``_products`` call: on a convolution base one GEMM of the rows of
        ``a`` against the Toeplitz stack of ``b``, on a matrix base one
        broadcast matrix product.  Degree ``k`` sums its ``a[i] b[k-i]`` in
        increasing ``i``.
        """
        d = self.degree
        prods = self.base._products(a, rb)
        full = np.zeros((2 * d + 1,) + a.shape[1:], dtype=complex)
        for i in range(d + 1):
            full[i : i + d + 1] += prods[i]
        # round up past the rounding error of this sum of d nonnegative
        # norms, as the unitization's resolvent kernel rounds its tail
        spill = float(np.sum(self.base._norms(full[d + 1 :]))) * (1.0 + (d + 4) * 2.0**-50)
        # a copy, so that the product does not keep the dropped half alive
        return full[: d + 1].copy(), spill

    def _product(self, p, sp: float, q, sq: float, rq: np.ndarray) -> _WienerPayload:
        """``p q`` from the factors, their stored norms ``sp`` and ``sq``,
        and the right operand ``rq`` of ``q``'s coefficients, by the tail
        rule of the class docstring."""
        kept, spill = self._cauchy(p.coeffs, rq)
        return _WienerPayload(kept, spill + sp * q.tail + p.tail * sq + p.tail * q.tail)

    def _mul(self, p, q):
        rq = self.base._right_operand(q.coeffs)
        return self._product(p, self._stored_norm(p), q, self._stored_norm(q), rq)

    def _powers(self, f, cap: int) -> tuple[list, bool, float]:
        """The chain against the fixed factor ``f``: its right operand and
        stored norm are formed once, each step is one ``_products`` call,
        and the one stored norm of each new power serves both the zero test
        and the next step's tail rule."""
        rf, sf = self.base._right_operand(f.coeffs), self._stored_norm(f)
        powers, term, s = [], f, sf
        for _ in range(cap):
            if s + term.tail == 0.0:
                return powers, True, 0.0
            powers.append(term)
            term = self._product(term, s, f, sf, rf)
            s = self._stored_norm(term)
        return powers, False, s + term.tail

    def _norm_parts(self, p) -> tuple[float, float]:
        s = self._stored_norm(p)
        return s + p.tail, s

    def _inverse(self, p):
        b = self.base
        f = p.coeffs
        try:
            i0 = b._inverse(f[0])
        except NotInvertible as exc:
            raise NotInvertible("constant coefficient is not invertible") from exc
        inv = np.zeros_like(f)
        inv[0] = i0
        for k in range(1, self.degree + 1):
            inv[k] = -b._mul(i0, np.sum(b._mul(f[1 : k + 1], inv[k - 1 :: -1]), axis=0))
        # residual of the true product f*g against 1: truncation spill plus
        # the hidden mass of f acting on g
        _, spill = self._cauchy(f, b._right_operand(inv))
        g_norm = self._stored_norm(_WienerPayload(inv, 0.0))
        e_norm = spill + p.tail * g_norm
        if e_norm >= 1.0:
            raise NotInvertible(
                f"cannot certify the inverse: residual bound {e_norm:.3e} >= 1"
            )
        tail = g_norm * e_norm / (1.0 - e_norm)
        return _WienerPayload(inv, tail)

    def _adjoint(self, p):
        c = self.base.involution_bound
        if c is None:
            raise NoInvolution("base algebra has no involution")
        return _WienerPayload(self.base._adjoint(p.coeffs), c * p.tail)

    def _spectrum(self, p) -> SpectrumReport:
        if self.base.is_radical:  # every sample has the spectrum {0}
            return SpectrumReport((0j,), False)
        radii = np.arange(1, _SPECTRUM_CIRCLES + 1) / _SPECTRUM_CIRCLES
        ang = 2.0 * np.pi * np.arange(_SPECTRUM_ANGLES) / _SPECTRUM_ANGLES
        zs = [0j, *(radii[:, None] * np.exp(1j * ang)).ravel().tolist()]
        # a matrix base: one eigvals call on the sample stack; duplicates collapse
        uniq: list[complex] = []
        for w in _as_point_tuple(_eigvals(self._eval_payload(p, zs)).ravel()):
            if not uniq or abs(w - uniq[-1]) > 1e-13:
                uniq.append(w)
        return SpectrumReport(tuple(uniq), False)

    def _eval_payload(self, p, zs: Sequence[complex]) -> np.ndarray:
        """The stored series at each point of ``zs``, in one pass over the
        coefficients: a stack of base payloads, one per point.

        Each point sums ``z^k a_k`` in increasing ``k``, with ``z^k`` formed
        one multiplication at a time in Python's complex arithmetic: numpy's
        vectorised complex multiply rounds some products differently, which
        would move evaluated values, and the reports built on them, by an ulp.
        """
        coeffs = p.coeffs
        shape = (len(zs),) + (1,) * (coeffs.ndim - 1)
        acc = np.zeros((len(zs),) + coeffs.shape[1:], dtype=complex)
        zk = [1.0 + 0j] * len(zs)
        for a in coeffs:
            acc = acc + np.reshape(zk, shape) * a
            zk = [w * z for w, z in zip(zk, zs)]
        return acc

    def _random(self, rng, scale):
        coeffs = [self.base._random(rng, scale / (k + 1.0)) for k in range(self.degree + 1)]
        return _WienerPayload(np.array(coeffs, dtype=complex), 0.0)

    # -- series-specific helpers ----------------------------------------

    def from_coeffs(self, coeffs: Sequence[Element], tail: float = 0.0) -> Element:
        pads = [self.base._own(c) for c in coeffs]
        if len(pads) > self.degree + 1:
            raise ParameterError("too many coefficients")
        if tail < 0:
            raise ParameterError("tail bound must be nonnegative")
        arr = self._zero().coeffs
        for k, c in enumerate(pads):
            arr[k] = c
        return self.wrap(_WienerPayload(arr, float(tail)))

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
        return self.from_coeffs([self.base.zero(), self.base.one()])

    def evaluate(self, x: Element, z: complex) -> Element:
        """Evaluate the stored series at the point ``z``."""
        return self.base.wrap(self._eval_payload(self._own(x), [complex(z)])[0])

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
                coeffs = self._zero().coeffs
                coeffs[k] = self.base._own(b)
                out.append(self.wrap(_WienerPayload(coeffs, 0.0)))
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


# ---------------------------------------------------------------------------
# unitization of a radical algebra


class UnitizationAlgebra(BanachAlgebra):
    """Unit adjoined to a radical base algebra: pairs ``f + c*1``.

    Norm ``||f|| + |c|``.  Because the base is radical, the spectrum of
    ``f + c*1`` is exactly ``{c}`` and the element is invertible iff
    ``c != 0``.
    """

    __slots__ = ("base",)
    kind = "unitization"

    def __post_init__(self):
        if not self.base.is_radical:
            raise ParameterError("unitization is supported for radical bases only")
        if self.base.is_unital:
            raise ParameterError("base algebra already has a unit")

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

    def _norm_parts(self, p) -> tuple[float, float]:
        norm, stored = self.base._norm_parts(p[0])
        return norm + abs(p[1]), stored + abs(p[1])

    def _inverse(self, p):
        if abs(p[1]) < 1e-300:
            raise NotInvertible("scalar part is zero")
        # x^-1 = -(0 - x)^-1: the one-node resolvent integral at z = 0
        return self._neg(self._own(self.resolvent_integral(self.wrap(p), [0j], [1.0])))

    def resolvent_kernel(self, x):
        """The one radical Neumann series of this algebra; ``inverse`` is
        its negated one-node sum at z = 0.

        ``(z - x)^{-1} = sum_n f^n / (z - c)^{n+1}`` for ``x = f + c``, so
        the integral is ``sum_n s_n f^n`` with ``s_n = sum_k w_k
        (z_k - c)^{-(n+1)}``: the powers of ``f`` are computed and summed
        once.  The series is exact when a power ``f^{N+1}`` has norm 0;
        otherwise it is cut after ``nilpotency_index`` powers, and every
        node needs ``r_k = ||f|| / |z_k - c| < 1``.  Node k certifies the
        terms ``|w_k| |z_k - c|^{-(n+1)} tail(f^n)``, n = 1..N, plus for a
        cut series ``|w_k| ||f^{N+1}|| |z_k - c|^{-(N+2)} / (1 - r_k)``.

        The table does not depend on the nodes, so the kernel builds it
        once (the base's ``_powers``): the powers, their tails and untailed
        parts, whether the series is exact, and the norms of ``f`` and of
        the remainder ``f^{N+1}``.  Each call then does only the node sums
        of each run, with the same arithmetic as a table built for that run
        alone, and each run carries its own certificate.

        Rounding (Higham, *Accuracy and Stability of Numerical Algorithms*,
        Lemma 3.1 and ch. 4; u = 2^-53, gamma_m = mu/(1 - mu); norms and
        tails are taken as given): ``|z_k - c|`` is within 3 roundings (the
        subtraction, ``hypot``'s ulp), its reciprocal's running powers
        within gamma_{5n+4}, and a term, after ``|w_k|`` and two products,
        within gamma_{5N+13}; the gap ``1 - r_k`` is formed from ``r_k``
        rounded up by ``2^-50 > gamma_4``, and with it and the division a
        remainder is within gamma_{5N+15}.  A node's ``math.fsum`` and its
        round-up product round once each, so ``1 + (N + 4) 2^-50 =
        1 + (8N + 32)u`` covers the 5N + 17 roundings of its certificate.
        Summing K nodes recursively would add up to gamma_{K-1} (ch. 4);
        their ``math.fsum`` rounds once and takes the same N-only round-up
        (one node's certificate is the tail as it stands).  So a tail
        certified in one run or in several agrees up to the additions
        between runs, and the factor's slack keeps it above a node-by-node
        floating sum of one-node certificates, whose rounding is of order
        sqrt(K) u.
        """
        b = self.base
        f, c = self._own(x)
        powers, exact, rest = b._powers(f, b.nilpotency_index)
        n = len(powers)
        tails = np.array([b.tail_bound(b.wrap(q)) for q in powers])[:, None]
        untailed = [b._untailed(q) for q in powers]
        f_norm = b._norm(f)
        up = 1.0 + (n + 4) * 2.0**-50

        def run(zs, ws):
            ds = zs - c
            if np.any(np.abs(ds) < 1e-300):
                raise NotInvertible("resolvent point hits the one-point spectrum")
            # row j holds (z_k - c)^-(j+1), the weight of f^j at node k
            inv = np.cumprod(np.broadcast_to(1.0 / ds, (n + 1, len(ds))), axis=0)
            # row j holds |w_k| |z_k - c|^-(j+1); row n + 1 is the remainder's
            mags = np.abs(ws) * np.cumprod(np.broadcast_to(1.0 / np.abs(ds), (n + 2, len(ds))), axis=0)
            terms = mags[1 : n + 1] * tails
            if not exact:
                r = f_norm / np.abs(ds) * (1.0 + 2.0**-50)
                if np.any(r >= 1.0):
                    raise NotInvertible(
                        "radical Neumann series cannot be certified at this norm"
                    )
                terms = np.vstack((terms, mags[n + 1] * rest / (1.0 - r)))
            nodes = [math.fsum(col) * up for col in terms.T.tolist()]
            tail = nodes[0] if len(nodes) == 1 else math.fsum(nodes) * up
            scaled = [b._scale(complex(s), q) for s, q in zip(inv[1:] @ ws, untailed)]
            stored = functools.reduce(b._add, scaled) if scaled else b._zero()
            rad = b.add_tail(b.wrap(stored), tail)
            if rad is None:
                raise NotInvertible("no tail channel to carry the Neumann remainder")
            return self.wrap((b._own(rad), complex(ws @ inv[0])))

        def integral(zs, weights, starts) -> list[Element]:
            zs, ws = np.asarray(zs, dtype=complex), np.asarray(weights, dtype=complex)
            return [run(zs[lo:hi], ws[lo:hi]) for lo, hi in _runs(starts, len(zs))]

        return integral

    def _adjoint(self, p):
        return (self.base._adjoint(p[0]), np.conj(p[1]))

    def _spectrum(self, p) -> SpectrumReport:
        return SpectrumReport((complex(p[1]),), True)

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


# ---------------------------------------------------------------------------
# finite products


class ProductAlgebra(BanachAlgebra):
    """Finite direct product with componentwise operations and max norm."""

    __slots__ = ("factors",)
    kind = "product"

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if len(self.factors) < 1:
            raise ParameterError("product needs at least one factor")

    @property
    def is_unital(self) -> bool:
        return all(f.is_unital for f in self.factors)

    @property
    def involution_bound(self) -> float | None:
        bounds = [f.involution_bound for f in self.factors]
        return None if None in bounds else max(bounds)

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

    def _norm_parts(self, p) -> tuple[float, float]:
        # per factor: one factor's tail is no slack on another's data
        norms, stored = zip(*(f._norm_parts(a) for f, a in zip(self.factors, p)))
        return max(norms), max(stored)

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
        return SpectrumReport(_as_point_tuple(pts), exact)

    def _random(self, rng, scale):
        return tuple(f._random(rng, scale) for f in self.factors)

    def component(self, x: Element, i: int) -> Element:
        return self.factors[i].wrap(self._own(x)[i])

    def from_components(self, *comps: Element) -> Element:
        if len(comps) != len(self.factors):
            raise ParameterError("component count mismatch")
        return self.wrap(tuple(f._own(c) for f, c in zip(self.factors, comps)))

    def resolvent_kernel(self, x):
        """The factors' kernels, each built once, called componentwise."""
        kernels = [f.resolvent_kernel(f.wrap(a)) for f, a in zip(self.factors, self._own(x))]

        def integral(zs, weights, starts) -> list[Element]:
            parts = [k(zs, weights, starts) for k in kernels]
            return [
                self.wrap(tuple(f._own(e) for f, e in zip(self.factors, run))) for run in zip(*parts)
            ]

        return integral

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


# ---------------------------------------------------------------------------
# the exponential


def alg_exp(x: Element) -> Element:
    """Exponential by scaling and squaring of a norm-controlled Taylor sum.

    The sum stops at the first term of norm at most 1e-13 * 1e-3 (a
    product that rounds to 1.0000000000000001e-16), or after 65 terms.
    """
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
        if term.norm() <= 1e-13 * 1e-3 or k > 64:
            break
        k += 1
    for _ in range(squarings):
        acc = acc * acc
    return acc
