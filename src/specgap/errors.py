"""Exception hierarchy shared across the package.

Every error raised on purpose derives from SpecgapError, so callers (in
particular the CLI) can map "bad input" to a single exit path without
catching bare ValueError from third-party code.
"""


class SpecgapError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SpecgapError, ValueError):
    """Inputs violate a documented precondition (domain, shape, range)."""


class CoupleDomainError(InputError):
    """Evaluation point outside the couple's open interval (0, lambda)."""


class DegenerateSamplesError(InputError):
    """Fewer than two distinct sample points for a pairwise check."""


class UnsupportedFamilyError(InputError):
    """Operation not defined for this couple family (e.g. tabulated)."""


class CoupleSpecError(InputError):
    """Malformed couple specification string."""


class TabulatedLookupError(InputError):
    """Requested point is not a sample point of a tabulated couple."""


class SpectrumError(InputError):
    """Eigenvalue prefix is empty, non-positive, or decreasing."""


class UnknownBoundError(InputError):
    """Bound name not present in the registry."""


class InapplicableBoundError(InputError):
    """Descriptor does not apply to this (problem, n, l) combination."""


class MembershipError(SpecgapError):
    """A couple failed the admissibility condition where it was required."""


class GapHypothesisError(SpecgapError):
    """The spectral gap hypothesis lambda_{k+1} > lambda_k is not met."""


class SolverError(SpecgapError):
    """A solver kernel could not produce a valid root."""


class NegativeDiscriminantError(SolverError):
    """Quadratic form admits no real root: no admissible next eigenvalue."""


class BracketFailureError(SolverError):
    """Root bracketing did not succeed within the doubling budget."""


class EmptyFeasibleSetError(SolverError):
    """No point above lambda_k satisfies the implicit inequality."""


class ConvergenceError(SpecgapError):
    """Iterative eigensolver did not converge, or its residuals exceed tolerance."""
