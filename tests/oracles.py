"""Independent reference computations the tests pin results against.

Everything here goes through dense eigendecompositions or closed-form
scalar algebra, deliberately avoiding the contour-integral code paths
under test.
"""

from __future__ import annotations

import math

import numpy as np


def hausdorff_distance(a, b) -> float:
    """Hausdorff distance between two finite point sets in the plane."""
    pa = np.asarray(list(a), dtype=complex)
    pb = np.asarray(list(b), dtype=complex)
    if pa.size == 0 and pb.size == 0:
        return 0.0
    if pa.size == 0 or pb.size == 0:
        return np.inf
    gaps = np.abs(pa[:, None] - pb[None, :])
    return float(max(gaps.min(axis=1).max(), gaps.min(axis=0).max()))


def eigenprojection_near(mat: np.ndarray, center: complex, radius: float) -> np.ndarray:
    """Spectral projector of a diagonalisable matrix onto the eigenvalues
    lying within the given disc."""
    w, v = np.linalg.eig(mat)
    inside = (np.abs(w - center) <= radius).astype(complex)
    return v @ np.diag(inside) @ np.linalg.inv(v)


def contour_projection(
    mat: np.ndarray, center: complex, radius: float, n: int = 2048
) -> np.ndarray:
    """Spectral projector onto the eigenvalues inside the circle, via a
    plain trapezoid-rule resolvent integral with dense solves.  Unlike
    ``eigenprojection_near`` this stays accurate for defective matrices,
    as long as no eigenvalue sits near the circle itself."""
    dim = mat.shape[0]
    theta = 2.0 * np.pi * np.arange(n) / n
    ring = np.exp(1j * theta)
    acc = np.zeros((dim, dim), dtype=complex)
    eye = np.eye(dim, dtype=complex)
    for w in ring:
        z = center + radius * w
        acc += w * np.linalg.solve(z * eye - mat, eye)
    return (radius / n) * acc


def principal_sqrt(mat: np.ndarray) -> np.ndarray:
    """Principal matrix square root via eigendecomposition (spectrum must
    avoid the closed negative real axis)."""
    w, v = np.linalg.eig(mat)
    return v @ np.diag(np.sqrt(w.astype(complex))) @ np.linalg.inv(v)


def half_shift_root(y: complex) -> complex:
    """The root of w**2 + w + y/4 = 0 that vanishes at y = 0."""
    return 0.5 * (-1.0 + np.sqrt(1.0 - complex(y)))


def random_split_spectrum_matrix(
    rng: np.random.Generator, n: int, radius: float = 0.28
) -> np.ndarray:
    """Random diagonalisable matrix whose eigenvalues cluster in discs of
    the given radius around 0 and around 1, both clusters nonempty."""
    k = int(rng.integers(1, n))
    centers = np.array([0.0] * k + [1.0] * (n - k))
    disc = radius * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    eigs = centers + disc
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    v += 2.0 * np.eye(n)  # keep the eigenbasis well conditioned
    return v @ np.diag(eigs) @ np.linalg.inv(v)


def random_sectorial_matrix(
    rng: np.random.Generator, n: int, inner: float = 0.5, outer: float = 4.0
) -> np.ndarray:
    """Random diagonalisable matrix with eigenvalues in the right half
    plane sector |arg z| <= pi/3, moduli in [inner, outer]."""
    mod = rng.uniform(inner, outer, n)
    arg = rng.uniform(-np.pi / 3, np.pi / 3, n)
    eigs = mod * np.exp(1j * arg)
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    v += 2.0 * np.eye(n)
    return v @ np.diag(eigs) @ np.linalg.inv(v)


def polygon_is_simple_pairwise(verts) -> bool:
    """Simplicity of the closed polygon on ``verts`` by ``_segments_cross``
    over every pair of non-adjacent edges, one pair at a time."""
    from idemlift.contours import _segments_cross

    n = len(verts)
    segs = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue  # closing edge is adjacent to the first
            if _segments_cross(*segs[i], *segs[j]):
                return False
    return True


def tracked_angles(zs: np.ndarray, cut_angle: float) -> np.ndarray:
    """Cumulative argument along the node sequence ``zs`` of a loop,
    pinned to the sheet [cut_angle - 2pi, cut_angle) at the first node:
    the sum of the angle steps between neighbouring nodes.

    The tracked angles must agree with the closed-form cut-relative
    angle at every node and close up around the loop; a mismatch means
    the path crossed the cut, and raises ``DegenerateGeometry``.
    """
    from idemlift.errors import DegenerateGeometry

    rel = (np.angle(zs) - cut_angle) % (2.0 * math.pi)
    closed_form = cut_angle - 2.0 * math.pi + rel
    steps = np.angle(zs[1:] / zs[:-1])
    tracked = closed_form[0] + np.concatenate(([0.0], np.cumsum(steps)))
    if np.max(np.abs(tracked - closed_form)) > 1e-6:
        raise DegenerateGeometry("integration loop crosses the branch cut")
    closure = np.angle(zs[0] / zs[-1])
    if abs(tracked[-1] + closure - tracked[0]) > 1e-6:
        raise DegenerateGeometry("branch angle fails to close up around the loop")
    return tracked
