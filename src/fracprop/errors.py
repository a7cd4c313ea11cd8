"""Exception types shared across the package."""


class FracpropError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(FracpropError, ValueError):
    """Malformed values: non-finite entries, bad sizes, broken file contents."""


class BandConfigError(FracpropError, ValueError):
    """A frequency band is not resolvable on the given grid."""


class SymbolRangeError(FracpropError, ValueError):
    """A tabulated symbol was evaluated outside its stored radius range,
    or a rescaling pushed spectral support off the grid."""


class DomainError(FracpropError, ValueError):
    """An argument lies outside the mathematical domain of the operation
    (non-positive dilation factor, zero frequency with a negative exponent, ...)."""


class InsufficientDataError(FracpropError, ValueError):
    """Too few usable samples for a fit or estimate."""


class UnwrapResolutionError(FracpropError, ValueError):
    """Adjacent samples are too far apart on the circle to unwrap reliably."""


class IdentificationError(FracpropError):
    """Base class for failures of the parameter-recovery pipeline."""


class DegenerateSymbolError(IdentificationError):
    """The lifted phase changes sign or vanishes: the profile is neither
    the constant-1 symbol nor a clean power law."""


class InconsistentPairError(IdentificationError):
    """The supplied scaling pair (a, b) is not consistent with the profile."""


class BranchInconsistencyError(InconsistentPairError):
    """Branch integers are not constant across radii, or the doubling and
    tripling branches violate N = 2M."""


class ModelMismatchError(IdentificationError):
    """The recovered parameters do not reproduce the input profile."""
