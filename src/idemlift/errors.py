"""Exception hierarchy.

Every exception carries a short machine-readable ``code`` so callers (and the
CLI) can classify failures without parsing messages.
"""

from __future__ import annotations


class IdemliftError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class ParameterError(IdemliftError):
    code = "invalid-parameter"


class AlgebraMismatch(IdemliftError):
    code = "algebra-mismatch"


class NotInvertible(IdemliftError):
    code = "not-invertible"


class NoInvolution(IdemliftError):
    code = "no-involution"


class SpectrumContainsZero(IdemliftError):
    code = "spectrum-contains-zero"


class DegenerateGeometry(IdemliftError):
    code = "degenerate-geometry"


class SpectrumNotEnclosed(IdemliftError):
    code = "spectrum-not-enclosed"


class QuadratureNotConverged(IdemliftError):
    code = "quadrature-not-converged"


class SpectrumOnContour(IdemliftError):
    code = "spectrum-on-contour"


class SpectrumMeetsCut(IdemliftError):
    code = "spectrum-meets-cut"


class SpectrumTooLarge(IdemliftError):
    code = "spectrum-too-large"


class OutOfRadius(IdemliftError):
    code = "out-of-radius"


class UnsupportedStrategy(IdemliftError):
    code = "unsupported-strategy"


class NotStarCompatible(IdemliftError):
    code = "not-star-compatible"


class InvalidGenerator(IdemliftError):
    code = "invalid-generator"


class NotIdempotentInput(IdemliftError):
    code = "not-idempotent-input"


class SectionInvalid(IdemliftError):
    code = "section-invalid"


class HalfInSpectrum(IdemliftError):
    code = "half-in-spectrum"


class EnclosureFailed(IdemliftError):
    code = "enclosure-failed"


class AmbiguousSign(IdemliftError):
    code = "ambiguous-sign"


class UnknownScenario(IdemliftError):
    code = "unknown-scenario"


class ConfigError(IdemliftError):
    code = "invalid-config"
