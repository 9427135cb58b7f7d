"""Minimal dense complex linear algebra.

Hand-rolled LU with partial pivoting serves as the independent oracle for
the closed-form determinant, so none of the routines here delegate to
library factorizations.  Cauchy matrices are notoriously ill-conditioned;
partial pivoting by maximum magnitude is essential.  Every matrix
identity A B = R is judged by one residual, :func:`backward_error`.  The
LU inverse, :func:`rel_residual` and :func:`structure_check` serve the
tests alone, as oracles.  Every routine takes one matrix or a stack of
them (leading axes) and answers per matrix, as a scalar for one matrix.
"""

from __future__ import annotations

import math

import numpy as np

from ._input import as_numbers, as_result
from .errors import DimensionMismatch, SingularMatrix

#: pivots below this multiple of the max-abs entry count as singular
PIVOT_FLOOR = 1e-14


def _as_square(a):
    """``a`` as a complex square matrix or a stack of them; input that is
    not numbers raises TypeError."""
    a = as_numbers(a, "a matrix")
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected square matrix, got shape {a.shape}")
    return a


def _check_same_dim(a, b):
    a = _as_square(a)
    b = _as_square(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def _lu_factor(a):
    """In-place Doolittle LU with partial pivoting, per matrix of a stack.

    Returns (lu, perm, sign) where lu packs L (unit diagonal implied) below
    and U on/above the diagonal, perm is the row permutation applied, and
    sign is the permutation parity, each with the stack's leading axes.
    Each member is factored by the same elementwise operations, in the same
    order, as it would be alone.  Does not raise on tiny pivots; callers
    decide what a singular pivot means.  A member whose pivot is exactly 0
    skips that column.
    """
    lu = np.array(a, dtype=complex)
    stack, n = lu.shape[:-2], lu.shape[-1]
    lu = lu.reshape(math.prod(stack), n, n)
    perm = np.tile(np.arange(n), (len(lu), 1))
    sign = np.ones(len(lu), dtype=int)
    for k in range(n):
        p = k + np.argmax(np.abs(lu[:, k:, k]), axis=-1)
        s = np.flatnonzero(p != k)
        p = p[s]
        lu[s, k], lu[s, p] = lu[s, p], lu[s, k]
        perm[s, k], perm[s, p] = perm[s, p], perm[s, k]
        sign[s] *= -1
        piv = lu[:, k, k, None]
        live = piv != 0
        col = lu[:, k + 1 :, k]
        np.divide(col, piv, out=col, where=live)
        # a skipping member's product is discarded; zeros in place of its
        # row keep an inf there from warning on 0 * inf
        row = np.where(live, lu[:, k, k + 1 :], 0)
        rest = lu[:, k + 1 :, k + 1 :]
        np.subtract(rest, col[..., None] * row[:, None, :], out=rest, where=live[..., None])
    return lu.reshape(stack + (n, n)), perm.reshape(stack + (n,)), sign.reshape(stack)


def lu_det(a):
    """Determinant via pivoted LU, per matrix of a stack; 0 for a singular
    matrix.  One matrix gives a Python ``complex``."""
    lu, _, sign = _lu_factor(_as_square(a))
    diag = np.ascontiguousarray(np.diagonal(lu, axis1=-2, axis2=-1))
    return as_result(sign * np.prod(diag, axis=-1))


def lu_inverse(a):
    """Inverse via pivoted LU, per matrix of a stack.

    Raises :class:`SingularMatrix` if a pivot magnitude falls below
    ``PIVOT_FLOOR`` times the max-abs entry of its matrix; on a stack, for
    the first such member in stack order, with the message the call on that
    member alone gives.
    """
    a = _as_square(a)
    n = a.shape[-1]
    lu, perm, _ = _lu_factor(a)
    threshold = PIVOT_FLOOR * np.maximum(np.abs(a).max(axis=(-2, -1)), 1e-300)
    small = np.abs(np.diagonal(lu, axis1=-2, axis2=-1)) < threshold[..., None]
    if small.any():
        small, threshold = small.reshape(-1, n), threshold.reshape(-1)
        b = int(np.argmax(small.any(axis=-1)))
        raise SingularMatrix(f"pivot below {threshold[b]:.3e} at position {int(np.argmax(small[b]))}")
    # solve A X = I: permute rows of I, then forward/back substitution
    x = np.eye(n, dtype=complex)[perm]
    for k in range(1, n):
        x[..., k, :] -= (lu[..., k, None, :k] @ x[..., :k, :])[..., 0, :]
    for k in range(n - 1, -1, -1):
        x[..., k, :] -= (lu[..., k, None, k + 1 :] @ x[..., k + 1 :, :])[..., 0, :]
        x[..., k, :] /= lu[..., k, k, None]
    return x


def max_abs_residual(a, b):
    """Entrywise max |a_ij - b_ij|, per matrix of a stack (0 for 0 x 0)."""
    a, b = _check_same_dim(a, b)
    return as_result(np.abs(a - b).max(axis=(-2, -1), initial=0.0))


def backward_error(a, b, r):
    """The componentwise backward error of ``a @ b`` as ``r``, per matrix of
    a stack: max_ij |a b - r|_ij / (|a| |b|)_ij (Oettli and Prager, Numer.
    Math. 6, 1964; Higham, Accuracy and Stability of Numerical Algorithms,
    sec. 7.2).  An entry 0/0 reads 0, x/0 with x != 0 reads inf, a NaN in
    ``a``, ``b`` or ``r`` gives NaN, and a 0 x 0 product reads 0.  All three
    are square matrices of one size, else :class:`DimensionMismatch`; ``r``
    broadcasts against the product."""
    a, b = _check_same_dim(a, b)
    r = _as_square(r)
    if r.shape[-1] != a.shape[-1]:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {r.shape}")
    num = np.abs(np.matmul(a, b) - r)
    den = np.matmul(np.abs(a), np.abs(b))
    # where den is 0, the ratio keeps inf for num > 0 and num itself else
    ratio = np.where(num > 0, np.inf, num)
    np.divide(num, den, out=ratio, where=den != 0)
    return as_result(ratio.max(axis=(-2, -1), initial=0.0))


def rel_residual(a, b):
    """max |a_ij - b_ij| divided by the max entry magnitude of b, per
    matrix of a stack."""
    a, b = _check_same_dim(a, b)
    scale = np.abs(b).max(axis=(-2, -1))
    return as_result(np.abs(a - b).max(axis=(-2, -1)) / scale)


def structure_check(a, kind, tol):
    """True iff ``a`` matches the requested pattern within ``tol``, per
    matrix of a stack.

    ``kind`` is one of ``unit_upper``, ``unit_lower``, ``diagonal``.
    Off-pattern entries must have magnitude below tol; where the pattern
    requires 1 on the diagonal, diagonal entries must be within tol of 1.
    """
    a = _as_square(a)
    lower = np.abs(np.tril(a, -1)).max(axis=(-2, -1))
    upper = np.abs(np.triu(a, 1)).max(axis=(-2, -1))
    diag_is_one = np.abs(np.diagonal(a, axis1=-2, axis2=-1) - 1).max(axis=-1)
    if kind == "unit_upper":
        return as_result((lower < tol) & (diag_is_one < tol))
    if kind == "unit_lower":
        return as_result((upper < tol) & (diag_is_one < tol))
    if kind == "diagonal":
        return as_result((lower < tol) & (upper < tol))
    raise ValueError(f"unknown structure kind {kind!r}")
