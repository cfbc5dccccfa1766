"""Exception types shared across the package.

Every raise carries enough context in the message (offending norm, tolerance,
shape) to diagnose the failure without a debugger.  A NumericsError inside a
study replicate excludes that replicate (mc.run_study).  A bad study design
raises before any replicate runs: ConfigError from the experiment config,
or the owning type's error when config.study() builds the truth.  The
command line reports either as a config error (exit 2).
"""


class NumericsError(Exception):
    """Base class for all structured failures raised by this package."""


class DimensionMismatch(NumericsError):
    """Input shape is incompatible with the declared (p, r) or (p1, p2, r)."""


class AsymmetricInput(NumericsError):
    """A matrix required to be symmetric fails the symmetry tolerance."""


class NotOrthonormal(NumericsError):
    """Columns of a frame are not orthonormal within tolerance."""


class DomainViolation(NumericsError):
    """Chart parameter leaves the open domain (spectral norm of A at or above 1)."""


class TopBlockNotPD(NumericsError):
    """Leading r x r block of a frame is not symmetric positive definite."""


class InaccurateSolve(NumericsError):
    """A linear solve's relative residual exceeds its accuracy contract."""


class RankMismatch(NumericsError):
    """Numerical rank of the input disagrees with the requested rank."""


class DegenerateTopBlock(NumericsError):
    """Top block of the computed basis is numerically singular, so no
    representative with a positive definite leading block can be rotated out."""


class NotPositiveDefinite(NumericsError):
    """A matrix required to be positive definite has a nonpositive eigenvalue."""


class SingularGram(NumericsError):
    """Gram matrix of a Jacobian is numerically rank deficient."""


class SingularFisher(NumericsError):
    """Fisher information matrix is numerically singular (condition > 1e12)."""


class ProbabilityOutOfRange(NumericsError):
    """A model edge probability left the open interval required by the
    likelihood derivatives."""


class EmptyBlock(NumericsError):
    """A cluster-pair block contains no observations."""


class TooFewPoints(NumericsError):
    """Fewer data points than requested clusters."""


class NonFiniteInput(NumericsError):
    """Data points hold a NaN or infinite coordinate."""


class SupportViolation(NumericsError):
    """Rows of A outside the declared support are not exactly zero."""


class EnumerationTooLarge(NumericsError):
    """Support enumeration would exceed the hard cap of 1e5 subsets."""


class ConfigError(NumericsError):
    """Bad or missing key in a run configuration."""
