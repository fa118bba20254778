"""Error types shared across the package.

NonConvergenceError is the one numerical failure the package raises itself;
the command line exits 3 on it, as on a floating-point OverflowError.
"""


class NonConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to reach its tolerance.

    Adaptive quadrature, a series or root search, or a LAPACK eigensolve.
    """
