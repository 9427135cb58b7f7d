"""Elliptic Cauchy matrices over the Weierstrass sigma function.

Builders for the Cauchy-type matrices (C, D, G, H, K, W, the factorization
factors and the UDL decomposition), a theta-series sigma/zeta evaluator,
a small pivoted-LU oracle, and a residual-reporting verification harness.
"""

from .cauchy import (
    Instance,
    Kernel,
    RATIONAL_KERNEL,
    TRIG_KERNEL,
    bloch_eval,
    bloch_transport,
    cauchy_inverse_closed,
    cauchy_matrix,
    classic_cauchy,
    classic_cauchy_det,
    classic_cauchy_inverse,
    d_matrix,
    elliptic_kernel,
    frobenius_det,
    g_factor_elliptic,
    g_factor_rat,
    g_factor_trig,
    g_matrix,
    gauss_udl,
    h_matrix,
    k_matrix,
    w_matrix,
)
from .errors import (
    DimensionMismatch,
    EllCauchyError,
    InvalidLattice,
    KernelZero,
    PoleAtLatticePoint,
    PoleProximity,
    SamplingExhausted,
    SingularGFactor,
    SingularMatrix,
)
from .linalg import lu_det, lu_inverse, max_abs_residual, rel_residual, structure_check
from .verify import Report, SuiteConfig, random_instance, run_suite
from .weierstrass import Lattice, lattice_new, sigma, sigma_k, zeta_w

__version__ = "0.1.0"
