"""Contour calculus on matrices: spectral projections and square roots.

Everything downstream of this library runs through two contour
integrals.  The first is the Riesz projection: integrate the resolvent
around part of the spectrum and you get the idempotent projecting onto
that part.  The second is a branch-cut square root: integrate
sqrt(z) * resolvent around all of the spectrum, with the branch of sqrt
continuous off a cut ray that escapes to infinity between the spectral
components; the loop must not meet that ray.

This demo works in a plain matrix algebra where numpy can check every
claim independently.
"""

import numpy as np

from idemlift import (
    ContourData,
    MatrixAlgebra,
    build_escape_arc,
    build_gamma_pair,
    circle_polygon,
    riesz_projection,
    spectral_component_apply,
    sqrt_cut,
    square_polygon,
)

rng = np.random.default_rng(7)
alg = MatrixAlgebra(6)

# --- a matrix with spectrum split between two discs ---------------------
# Half the eigenvalues near 0, half near 1, conjugated by a random
# similarity so nothing is diagonal.
eigs = np.concatenate([
    0.25 * rng.uniform(0.2, 1.0, 3) * np.exp(2j * np.pi * rng.uniform(0, 1, 3)),
    1.0 + 0.25 * rng.uniform(0.2, 1.0, 3) * np.exp(2j * np.pi * rng.uniform(0, 1, 3)),
])
v = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) + 3 * np.eye(6)
a = alg.wrap(v @ np.diag(eigs) @ np.linalg.inv(v))

print("spectrum:", np.round(np.sort_complex(np.linalg.eigvals(a.payload)), 3))

# --- Riesz projection onto the component near 1 -------------------------
cd = ContourData(circle_polygon(1 + 0j, 0.45), eps=0.1, label="around-1")
p = riesz_projection(a, cd)

print("idempotency defect ||p^2 - p|| =", (p * p - p).norm())
print("commutation defect ||ap - pa|| =", (a * p - p * a).norm())

# numpy cross-check: sum of eigenprojections for eigenvalues near 1
w, vecs = np.linalg.eig(a.payload)
inv = np.linalg.inv(vecs)
oracle = sum(np.outer(vecs[:, i], inv[i]) for i in range(6) if abs(w[i] - 1) < 0.45)
print("distance to eigenprojection oracle:", np.max(np.abs(p.payload - oracle)))

# The same projection through a square contour must agree: the integral
# only depends on which spectral points are enclosed.
p_square = riesz_projection(a, ContourData(square_polygon(1 + 0j, 0.48), eps=0.1))
print("circle vs square contour:", (p - p_square).norm())

# --- branch-cut square root ---------------------------------------------
# For the square root we need a loop around the WHOLE spectrum plus a
# cut ray from inside the spectral gap out to infinity.  build_escape_arc
# picks the ray from the spectrum report; build_gamma_pair thickens it
# into a single Jordan polygon that hugs the ray on both sides.
rep = a.spectrum()
cut = build_escape_arc(rep)
eps = cut.distance_to_points(rep.points) / 3.0
gamma = ContourData(
    build_gamma_pair(cut, eps, rep.radius),
    eps=eps,
    branch="cut",
    cut=cut,
)

s = sqrt_cut(a, cut, gamma)
print("square root residual ||s^2 - a|| =", (s * s - a).norm())

# There are exactly two sheets and they differ by a global sign; the
# sheet is part of the contour data.
s_neg = sqrt_cut(a, cut, gamma.replace(sheet=-1))
print("sheet symmetry ||s + s_neg|| =", (s + s_neg).norm())

# --- scalar sanity check -------------------------------------------------
# On the identity matrix the two sheets must give exactly +1 and -1.
one = alg.one()
rep1 = one.spectrum()
cut1 = build_escape_arc(rep1)
eps1 = cut1.distance_to_points(rep1.points) / 3.0
cd1 = ContourData(build_gamma_pair(cut1, eps1, rep1.radius), eps=eps1, branch="cut", cut=cut1)
print("sqrt(1) on each sheet:",
      sqrt_cut(one, cut1, cd1).payload[0, 0],
      sqrt_cut(one, cut1, cd1.replace(sheet=-1)).payload[0, 0])

# --- applying other functions to a spectral component --------------------
# spectral_component_apply computes g(a) restricted to the enclosed
# component: here exp on the part near 0, which should agree with
# exp(a) compressed by the matching Riesz projection (computed from the
# eigendecomposition, so the check is independent of the quadrature).
g = spectral_component_apply(np.exp, a, ContourData(circle_polygon(0j, 0.45), eps=0.1))
p0 = riesz_projection(a, ContourData(circle_polygon(0j, 0.45), eps=0.1))
oracle_g = vecs @ np.diag(np.exp(w)) @ inv @ p0.payload
print("exp on the component near 0, oracle distance:",
      np.max(np.abs(g.payload - oracle_g)))
