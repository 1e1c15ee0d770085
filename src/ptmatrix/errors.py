"""Exceptions shared across the package."""


class ConvergenceError(RuntimeError):
    """Eigensolver failed: LAPACK did not converge or residuals above tolerance."""


class ExceptionalPointError(RuntimeError):
    """Matrix is defective or nearly so (eigenvectors coalesce)."""


class BrokenPhaseError(RuntimeError):
    """Operation requires the unbroken PT phase."""
