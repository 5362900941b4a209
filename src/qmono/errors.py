"""Exception types shared across the package.

Every domain error derives from :class:`QmonoError` so the CLI can map
them uniformly to exit status 1.
"""


class QmonoError(Exception):
    """Base class for all domain errors raised by this package."""


class MalformedWord(QmonoError):
    """Word text contains an unknown token or an unsupported exponent."""


class DimensionTooSmall(QmonoError):
    """Ambient dimension below the minimum supported by the operation."""


class NegativeDimension(QmonoError):
    """Sphere dimension must be >= 0."""


class OddParityClaim(QmonoError):
    """The lattice orbit claim is stated for even ambient dimension only."""


class ZeroCoefficientVector(QmonoError):
    """A hyperplane needs a nonzero coefficient vector."""


class SampleError(QmonoError):
    """A loop rejected at a sample; ``index`` is the first offending one."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)


class NonFiniteSample(SampleError):
    """A loop sample has a NaN or infinite coefficient or offset."""


class UndersampledLoop(SampleError):
    """Consecutive samples are too far apart for unambiguous continuation."""


class AsymptoticSample(SampleError):
    """A sample hyperplane is (numerically) asymptotic to the quadric."""


class BranchAmbiguity(SampleError):
    """The continued square-root branch matches neither expected endpoint."""


class PunctureCollision(SampleError):
    """A segment of the closed fiber path [0, w_0, ..., w_{m-1}, 0] passes
    too close to a puncture; ``index`` k names the segment that ends at
    sample k (k = m is the return to the origin)."""


class NotClosed(SampleError):
    """Loop endpoints do not match up to the closure scale factor."""


class NotGeneralPosition(SampleError):
    """A loop sample is tangent or asymptotic."""


class BadTolerance(QmonoError):
    """The tolerance is not a finite number with 0 < tol < 1."""


class MalformedLoopFile(QmonoError):
    """A loop document is not valid JSON or not in the loop format."""


class BadParameters(QmonoError):
    """Invalid parameters: loop-maker or loop arguments, orbit ranges, negative
    ranks, or the inverse of a matrix that is not invertible over Z."""
