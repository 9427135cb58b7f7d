"""Minimal dense complex linear algebra.

Hand-rolled LU with partial pivoting serves as the independent oracle for
the closed-form determinant and inverse formulas, so none of the routines
here delegate to library factorizations.  Cauchy matrices are notoriously
ill-conditioned; partial pivoting by maximum magnitude is essential.  The
factorization takes one matrix; the residual and structure helpers also
take a stack of matrices (leading axes) and answer per matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, SingularMatrix

#: pivots below this multiple of the max-abs entry count as singular
PIVOT_FLOOR = 1e-14


def _as_square(a, stacked=False):
    """``a`` as a complex square matrix, or with ``stacked`` a stack of them."""
    a = np.asarray(a, dtype=complex)
    if not (a.ndim == 2 or stacked and a.ndim > 2) or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected square matrix, got shape {a.shape}")
    return a


def _per_matrix(v):
    """A per-matrix result as a Python scalar for one matrix, else as is."""
    return v.item() if v.ndim == 0 else v


def _check_same_dim(a, b):
    a = _as_square(a, stacked=True)
    b = _as_square(b, stacked=True)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def _lu_factor(a):
    """In-place Doolittle LU with partial pivoting.

    Returns (lu, perm, sign) where lu packs L (unit diagonal implied) below
    and U on/above the diagonal, perm is the row permutation applied, and
    sign is the permutation parity.  Does not raise on tiny pivots; callers
    decide what a singular pivot means.
    """
    lu = np.array(a, dtype=complex)
    n = lu.shape[0]
    perm = np.arange(n)
    sign = 1
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
            sign = -sign
        piv = lu[k, k]
        if piv == 0:
            continue
        lu[k + 1 :, k] /= piv
        lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    return lu, perm, sign


def lu_det(a):
    """Determinant via pivoted LU; returns 0 for singular input."""
    a = _as_square(a)
    lu, _, sign = _lu_factor(a)
    return complex(sign * np.prod(np.diag(lu)))


def lu_inverse(a):
    """Inverse via pivoted LU.

    Raises :class:`SingularMatrix` if any pivot magnitude falls below
    ``PIVOT_FLOOR`` times the max-abs entry of the input.
    """
    a = _as_square(a)
    n = a.shape[0]
    lu, perm, _ = _lu_factor(a)
    threshold = PIVOT_FLOOR * max(np.abs(a).max(), 1e-300)
    small = np.abs(np.diag(lu)) < threshold
    if small.any():
        raise SingularMatrix(f"pivot below {threshold:.3e} at position {int(np.argmax(small))}")
    # solve A X = I: permute rows of I, then forward/back substitution
    x = np.eye(n, dtype=complex)[perm]
    for k in range(1, n):
        x[k] -= lu[k, :k] @ x[:k]
    for k in range(n - 1, -1, -1):
        x[k] -= lu[k, k + 1 :] @ x[k + 1 :]
        x[k] /= lu[k, k]
    return x


def max_abs_residual(a, b):
    """Entrywise max |a_ij - b_ij|, per matrix of a stack."""
    a, b = _check_same_dim(a, b)
    return _per_matrix(np.abs(a - b).max(axis=(-2, -1)))


def rel_residual(a, b):
    """max |a_ij - b_ij| divided by the max entry magnitude of b, per
    matrix of a stack."""
    a, b = _check_same_dim(a, b)
    scale = np.abs(b).max(axis=(-2, -1))
    return _per_matrix(np.abs(a - b).max(axis=(-2, -1)) / scale)


def structure_check(a, kind, tol):
    """True iff ``a`` matches the requested pattern within ``tol``, per
    matrix of a stack.

    ``kind`` is one of ``unit_upper``, ``unit_lower``, ``diagonal``.
    Off-pattern entries must have magnitude below tol; where the pattern
    requires 1 on the diagonal, diagonal entries must be within tol of 1.
    """
    a = _as_square(a, stacked=True)
    lower = np.abs(np.tril(a, -1)).max(axis=(-2, -1))
    upper = np.abs(np.triu(a, 1)).max(axis=(-2, -1))
    diag_is_one = np.abs(np.diagonal(a, axis1=-2, axis2=-1) - 1).max(axis=-1)
    if kind == "unit_upper":
        return _per_matrix((lower < tol) & (diag_is_one < tol))
    if kind == "unit_lower":
        return _per_matrix((upper < tol) & (diag_is_one < tol))
    if kind == "diagonal":
        return _per_matrix((lower < tol) & (upper < tol))
    raise ValueError(f"unknown structure kind {kind!r}")
