"""The algebra zoo: nilpotent bases, truncated series, certified tails.

The lifting machinery is generic over a BanachAlgebra protocol, and the
interesting test cases are not matrices.  This demo tours the stack used
by the series scenarios:

    ConvolutionAlgebra      Volterra convolutions on a grid; radical,
                            every element nilpotent, no unit
    WienerAlgebra           degree-D truncated power series over a base;
                            the truncation error is carried explicitly
                            as a certified tail bound
    UnitizationAlgebra      a unit adjoined to a radical base; spectra
                            are one-point sets and inverses come from
                            Neumann series with certified remainders

The headline design decision: norms over truncated series algebras are
honest.  Dropping coefficients beyond the truncation degree adds the
dropped mass to a per-element tail, and every operation propagates it.
A defect computed there splits into the stored part (what the data
shows) and the allowance (what the tail permits); only the difference
is ever certified.
"""

import numpy as np

from idemlift import ConvolutionAlgebra, UnitizationAlgebra, WienerAlgebra
from idemlift.errors import NotInvertible

rng = np.random.default_rng(42)

# --- convolution: everything is nilpotent ---------------------------------
conv = ConvolutionAlgebra(32)
f = conv.random_element(rng, scale=1.0)
print("||f|| =", f.norm())

power = f
for k in range(2, 40):
    power = power * f
    if power.norm() == 0.0:
        print(f"f^{k} vanishes exactly (grid nilpotency)")
        break

# no unit, so no spectra of the usual kind; the algebra is radical
print("conv is radical:", conv.is_radical, "| unital:", conv.is_unital)

# --- Wiener: truncation with a paper trail ---------------------------------
wie = WienerAlgebra(conv, degree=4)
coeffs = [conv.random_element(rng, 0.3) for _ in range(5)]
x = wie.from_coeffs(coeffs)
print()
print("series norm:", x.norm(), " tail:", wie.tail_bound(x))

# multiply: degrees 5..8 of the product do not fit and their exact mass
# moves into the tail instead of being silently dropped
y = x * x
print("after squaring: tail =", wie.tail_bound(y))
print("norm includes the tail:", y.norm() >= wie.tail_bound(y))

# evaluation at a scalar is a homomorphism back down to the base
val = wie.evaluate(x, 0.5)
print("evaluate(x, 0.5) lives in:", val.algebra.kind)

# --- unitization: one-point spectra and certified inverses ------------------
up = UnitizationAlgebra(wie)
a = up.from_parts(x, 2.0)          # x + 2*1
print()
print("spectrum of x + 2:", a.spectrum().points)

# invertible iff the scalar part is nonzero; the Neumann series for the
# radical part terminates at the nilpotency index when tails are absent,
# and otherwise its remainder is pushed into the tail channel
b = a.inverse()
gap = b * a - up.one()
print("raw ||a^-1 a - 1|| =", gap.norm(), " (includes propagated tails)")
print("tail allowance    =", up.tail_bound(gap))
print("certified residual =", max(0.0, gap.norm() - up.tail_bound(gap)))

try:
    up.from_parts(x, 0.0).inverse()
except NotInvertible as exc:
    print("x + 0 is not invertible:", exc)

# when the radical norm is too large relative to the scalar, the Neumann
# remainder cannot be certified and the inverse refuses rather than lie
loud = up.from_parts(wie.from_coeffs([conv.random_element(rng, 40.0) for _ in range(5)]), 1.0)
try:
    loud.inverse()
except NotInvertible as exc:
    print("loud radical part:", exc)
