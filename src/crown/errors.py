"""The package's one exception class; invalid input raises ValueError."""


class NumericalBreakdown(Exception):
    """The numerics of a run broke down; the command line exits 70 on it.

    Causes: a degenerate or nonpositive pivot or leading minor, a branch that
    cannot be tracked (a degenerate minor along the path, the segment cap, or
    a projected point that leaves omega), a stalled rejection sampler, a
    functional value that is not a finite real number, a Siegel draw whose
    imaginary part is not positive definite, and a k basis whose Gram matrix
    is not diagonal.
    """
