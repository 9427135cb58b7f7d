"""Exception types shared across the package."""


class EllCauchyError(Exception):
    """Base class for all errors raised by this package."""


class InvalidLattice(EllCauchyError):
    """Period pair does not define a lattice with Im(omega'/omega) > 0."""


class PoleAtLatticePoint(EllCauchyError):
    """Evaluation requested at (or too close to) a lattice point."""


class DimensionMismatch(EllCauchyError):
    """Matrix operands have incompatible shapes."""


class SingularMatrix(EllCauchyError):
    """A pivot fell below the singularity threshold during elimination."""


class KernelZero(EllCauchyError):
    """A denominator argument hit a zero of the kernel function."""


class PoleProximity(EllCauchyError):
    """Evaluation point too close to a pole of the expansion."""


class SamplingExhausted(EllCauchyError):
    """Rejection sampling failed to place separated points in the region."""
