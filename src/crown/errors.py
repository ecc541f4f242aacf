"""Exception hierarchy shared across the package."""


class CrownError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedFamily(CrownError):
    """Requested group family is not one of the implemented realizations."""


class NotInGroup(CrownError):
    """Matrix fails the group membership check (determinant / symplectic form)."""


class NumericalBreakdown(CrownError):
    """The numerics of a run broke down; the command line exits 70 on this family.

    Raised directly for a quantity that must be positive and came out
    nonpositive: a pivot of a real LDL factorization, or the smallest
    eigenvalue of the imaginary part of a drawn Siegel point.
    """


class PivotBreakdown(NumericalBreakdown):
    """A leading principal minor degenerated below the relative floor."""


class BranchBreakdown(NumericalBreakdown):
    """Continuous branch tracking failed (degenerate minor or subdivision cap)."""


class OmegaViolation(CrownError):
    """Imaginary direction lies outside the admissible polytope."""


class RejectionStall(NumericalBreakdown):
    """Rejection sampler acceptance rate fell below the safety floor."""


class NonRealValue(NumericalBreakdown):
    """A quantity that must be real carried a non-negligible imaginary part."""
