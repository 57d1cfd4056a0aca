"""Inputs and reference answers for the funcalc-stream workload.

The references use dense eigendecompositions only, never the contour
code under test.  Every input is diagonalisable with a well-conditioned
eigenbasis, so the eigendecomposition is accurate to near machine
precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RIESZ_CENTER = 1.0 + 0j
RIESZ_RADIUS = 0.45
RIESZ_EPS = 0.1
NEAR_ONE_RADIUS = 0.3
KINDS = ("riesz", "sqrt_cut", "sqrt_near_one")

# max-entry error allowed against the reference; the contour results
# agree to about 1e-13, so these catch a wrong answer, not rounding
ORACLE_TOL = 1e-8
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class Case:
    kind: str
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    inverse_eigenvectors: np.ndarray


def _eigenbasis(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return v + 2.0 * np.sqrt(n) * np.eye(n)


def _disc(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    return radius * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))


def _eigenvalues(rng: np.random.Generator, kind: str, n: int) -> np.ndarray:
    if kind == "riesz":
        # clusters of radius 0.28 around 0 and 1, both nonempty: every
        # eigenvalue stays at least 0.17 from the circle |z - 1| = 0.45
        k = int(rng.integers(1, n))
        return np.array([0.0] * k + [1.0] * (n - k)) + _disc(rng, n, 0.28)
    if kind == "sqrt_cut":
        # the sector |arg z| <= pi/3 leaves a wide gap for the escape ray
        return rng.uniform(0.5, 4.0, n) * np.exp(1j * rng.uniform(-np.pi / 3, np.pi / 3, n))
    if kind == "sqrt_near_one":
        return _disc(rng, n, NEAR_ONE_RADIUS)
    raise ValueError(f"unknown case kind {kind!r}")


def make_case(rng: np.random.Generator, spectra: np.random.Generator, kind: str, n: int) -> Case:
    """A case with eigenbasis from ``rng`` and spectrum from ``spectra``."""
    v = _eigenbasis(rng, n)
    matrix = v @ np.diag(_eigenvalues(spectra, kind, n)) @ np.linalg.inv(v)
    w, vecs = np.linalg.eig(matrix)
    return Case(kind, matrix, w, vecs, np.linalg.inv(vecs))


def reference(case: Case, cut_angle: float | None = None) -> np.ndarray:
    """The answer the contour code must reproduce, from ``eig``.

    A square root with a cut along the ray at ``cut_angle`` takes the
    argument of each eigenvalue in (cut_angle - 2pi, cut_angle], as
    ``sqrt_cut`` does on sheet +1; the angle is a real number, not an
    angle modulo 2pi, so a negative one selects the other sheet.
    """
    w = case.eigenvalues.astype(complex)
    if case.kind == "riesz":
        values = (np.abs(w - RIESZ_CENTER) < RIESZ_RADIUS).astype(complex)
    elif case.kind == "sqrt_cut":
        theta = cut_angle - 2.0 * np.pi + (np.angle(w) - cut_angle) % (2.0 * np.pi)
        values = np.sqrt(np.abs(w)) * np.exp(0.5j * theta)
    elif case.kind == "sqrt_near_one":
        values = 0.5 * (-1.0 + np.sqrt(1.0 - w))
    else:
        raise ValueError(f"unknown case kind {case.kind!r}")
    return case.eigenvectors @ np.diag(values) @ case.inverse_eigenvectors


def check(case: Case, result: np.ndarray, cut_angle: float | None = None) -> str | None:
    """None when ``result`` matches the reference, else what is wrong."""
    expected = reference(case, cut_angle)
    err = float(np.max(np.abs(result - expected)))
    if not err <= ORACLE_TOL * max(1.0, float(np.max(np.abs(expected)))):
        return f"{case.kind} n={case.matrix.shape[0]}: error {err:.3e} against eig reference"
    if case.kind == "sqrt_near_one":
        residual = result @ result + result + 0.25 * case.matrix
        res = float(np.max(np.abs(residual)))
        if not res <= RESIDUAL_TOL:
            return f"sqrt_near_one n={case.matrix.shape[0]}: residual {res:.3e} of w^2 + w + y/4"
    return None
