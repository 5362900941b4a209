"""Exception types shared across the package.

Every domain error derives from :class:`QmonoError` so the CLI can map
them uniformly to exit status 1.  The refusals of one sample derive from
:class:`SampleError` and carry it in ``index``: ZeroCoefficientVector,
NonFiniteSample, UndersampledLoop, AsymptoticSample, BranchAmbiguity,
PunctureCollision, NotClosed, BaseOnBranchCut and NotGeneralPosition.  A
lone hyperplane or coefficient vector is sample 0.
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


class SampleError(QmonoError):
    """A loop rejected at a sample; ``index`` is the first offending one."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)

    @classmethod
    def refuse(cls, bad, message: str, values=None) -> None:
        """Raise at the first i where the boolean array bad holds; message may use i and
        v = values[i]."""
        if bad.any():
            i = int(bad.argmax())
            raise cls(i, message.format(i=i, v=None if values is None else values[i]))


class ZeroCoefficientVector(SampleError):
    """A hyperplane needs a nonzero coefficient vector; ``index`` is 0 for a lone one."""


class NonFiniteSample(SampleError):
    """A loop sample has a NaN or infinite coefficient or offset."""


class UndersampledLoop(SampleError):
    """Consecutive samples are too far apart for unambiguous continuation."""


class AsymptoticSample(SampleError):
    """A sample hyperplane is (numerically) asymptotic to the quadric."""


class BranchAmbiguity(SampleError):
    """The closing step of the square-root branch, from q_{m-1} to lambda^2 q_0, is too long
    to tell whether the branch ends at +lambda s_0 or -lambda s_0."""


class PunctureCollision(SampleError):
    """A segment of the closed fiber path [0, w_0, ..., w_{m-1}, 0] passes
    too close to a puncture; ``index`` k names the segment that ends at
    sample k (k = m is the return to the origin)."""


class NotClosed(SampleError):
    """Loop endpoints do not match up to the closure scale factor."""


class BaseOnBranchCut(SampleError):
    """The first sample's q_0, at |c| = 1, lies within tol |q_0| of the negative real axis, the
    cut of the principal root that marks the punctures, so that which puncture is +1 would
    depend on rounding; ``index`` is 0."""


class NotGeneralPosition(SampleError):
    """A loop sample is tangent or asymptotic."""


class BadTolerance(QmonoError):
    """The tolerance is not a finite number with 0 < tol < 1."""


class MalformedLoopFile(QmonoError):
    """A loop document is not valid JSON or not in the loop format."""


class BadParameters(QmonoError):
    """Invalid parameters: loop-maker or loop arguments, orbit ranges or negative
    ranks."""
