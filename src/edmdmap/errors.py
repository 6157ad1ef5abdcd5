"""Exception hierarchy shared across the package."""


class EdmdMapError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(EdmdMapError):
    """Malformed or inconsistent experiment configuration."""


class ParameterError(EdmdMapError):
    """Argument outside its admissible range."""


class MapDomainError(EdmdMapError):
    """Point outside the interval [-1, 1]."""


class UnsupportedMapError(EdmdMapError):
    """Operation requires data (e.g. an exact spectrum) the map does not carry."""


class NonAffineBranchError(EdmdMapError):
    """Closed-form affine construction applied to a map with nonlinear branches."""


class BranchCutError(EdmdMapError):
    """An inverse branch keeps negative Fourier modes on the circle of a ``bounds`` disk."""


class AliasingError(EdmdMapError):
    """The Cauchy branch sum keeps negative Fourier modes at the sample ceiling."""


class QuadratureError(EdmdMapError):
    """Gauss-Legendre cross matrix failed its order-doubling stability check."""


class ConvergenceError(EdmdMapError):
    """LAPACK's dense eigenvalue iteration failed to converge."""


class RangeOverflowError(EdmdMapError):
    """Requested count or scaling leaves the representable range."""


class InsufficientDataError(EdmdMapError):
    """Too few usable records for a fit."""


class RankTruncationWarning(UserWarning):
    """The eps-pseudoinverse removed at least one singular value."""
