"""Exception types shared across the package.

The CLI maps these onto exit codes: ValidationError -> 2, any other
QbmError -> 3, I/O errors -> 4.
"""


class QbmError(Exception):
    """Base class for all package-specific errors."""


class PairingFailure(QbmError):
    """Symplectic eigenvalue moduli did not collapse into pairs.

    Signals a non-symmetric or otherwise corrupted covariance matrix.
    """


class ImpureState(QbmError):
    """A state that must be globally pure is not.

    Raised before any correlation is read off through global purity, which
    would otherwise be silently wrong.
    """


class DomainError(QbmError):
    """Argument outside the mathematical domain of a closed-form function."""


class SubsetError(QbmError):
    """Mode subset is empty, full, or otherwise unusable for a bipartition."""


class NegativeEigenvalue(QbmError):
    """Potential matrix has an eigenvalue below the clamp threshold."""


class EigensolveFailure(QbmError):
    """Dense eigendecomposition failed to converge."""


class DimensionMismatch(QbmError):
    """Matrix/vector dimensions are inconsistent."""


class BadBandCount(QbmError):
    """Requested number of frequency bands is out of range."""


class NotReached(QbmError):
    """Redundancy threshold never attained on the measured grid."""


class FlatCurve(QbmError):
    """Correlation curve carries no signal (E(1) below tolerance)."""


class InsufficientGrid(QbmError):
    """Curve grid does not bracket the point required by the estimator."""


class ValidationError(QbmError):
    """Configuration validation failed; carries every violated field."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
