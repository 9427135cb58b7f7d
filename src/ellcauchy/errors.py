"""Exception types shared across the package."""


class EllCauchyError(Exception):
    """Base class for all errors raised by this package."""


class InvalidLattice(EllCauchyError):
    """Period pair does not define a lattice with Im(omega'/omega) > 0."""


class DimensionMismatch(EllCauchyError):
    """Matrix operands have incompatible shapes."""


class SingularMatrix(EllCauchyError):
    """A pivot fell below the singularity threshold during elimination."""


class KernelZero(EllCauchyError):
    """An argument hit a zero of the kernel function: a builder's
    denominator, or a pole of zeta (a zero of sigma)."""


class SamplingExhausted(EllCauchyError):
    """Rejection sampling failed to place separated points in the region."""
