"""Exception hierarchy shared across the package."""


class CrownError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedFamily(CrownError):
    """Requested group family is not one of the implemented realizations."""


class NotInGroup(CrownError):
    """Matrix fails the group membership check (determinant / symplectic form)."""


class NumericalBreakdown(CrownError):
    """A positive pivot of a real LDL factorization came out nonpositive."""


class PivotBreakdown(CrownError):
    """A leading principal minor degenerated below the relative floor."""

    def __init__(self, message, index=None, value=None):
        super().__init__(message)
        self.index = index
        self.value = value


class BranchBreakdown(CrownError):
    """Continuous branch tracking failed (degenerate minor or subdivision cap)."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class OmegaViolation(CrownError):
    """Imaginary direction lies outside the admissible polytope."""


class RejectionStall(CrownError):
    """Rejection sampler acceptance rate fell below the safety floor."""


class NonRealValue(CrownError):
    """A quantity that must be real carried a non-negligible imaginary part."""
