"""Pivoted-LU helpers and residual/structure utilities."""

import numpy as np
import pytest

from ellcauchy import DimensionMismatch, SingularMatrix
from ellcauchy.linalg import (
    lu_det,
    lu_inverse,
    max_abs_residual,
    rel_residual,
    structure_check,
)


def cofactor_det_3x3(a):
    """Independent 3x3 determinant by cofactor expansion."""
    return (
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )


class TestDet:
    def test_identity(self):
        assert lu_det(np.eye(4)) == pytest.approx(1.0)

    def test_scalar(self):
        assert lu_det(np.array([[3.5 + 1j]])) == pytest.approx(3.5 + 1j)

    def test_matches_cofactor_expansion(self, rng):
        for _ in range(20):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            ref = cofactor_det_3x3(a)
            assert abs(lu_det(a) - ref) < 1e-12 * abs(ref)

    def test_singular_is_zero(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert lu_det(a) == 0.0

    def test_permutation_sign(self):
        # a single row swap of the identity has determinant -1
        p = np.eye(3)[[1, 0, 2]]
        assert lu_det(p) == pytest.approx(-1.0)

    def test_multiplicative(self, rng):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        ref = lu_det(a) * lu_det(b)
        assert abs(lu_det(a @ b) - ref) < 1e-10 * abs(ref)


class TestInverse:
    def test_roundtrip(self, rng):
        for n in (1, 2, 5, 8):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            inv = lu_inverse(a)
            assert max_abs_residual(a @ inv, np.eye(n)) < 1e-11
            assert max_abs_residual(inv @ a, np.eye(n)) < 1e-11

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            lu_inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(SingularMatrix):
            lu_inverse(np.zeros((3, 3)))


class TestResiduals:
    def test_max_abs_residual(self):
        a = np.zeros((2, 2))
        b = np.array([[0.0, 0.5], [0.0, 0.0]])
        assert max_abs_residual(a, b) == 0.5
        with pytest.raises(DimensionMismatch):
            max_abs_residual(np.eye(2), np.eye(3))

    def test_rel_residual(self):
        a = np.array([[2.0, 0.0], [0.0, 2.0]])
        assert rel_residual(1.001 * a, a) == pytest.approx(0.001)


class TestStructure:
    def test_unit_upper(self):
        u = np.array([[1.0, 2.0], [0.0, 1.0]])
        assert structure_check(u, "unit_upper", 1e-12)
        assert not structure_check(u.T, "unit_upper", 1e-12)
        assert not structure_check(2 * u, "unit_upper", 1e-12)

    def test_unit_lower(self):
        l = np.array([[1.0, 0.0], [3.0, 1.0]])
        assert structure_check(l, "unit_lower", 1e-12)
        assert not structure_check(l.T, "unit_lower", 1e-12)

    def test_diagonal(self):
        assert structure_check(np.diag([1.0, 2.0, 3.0]), "diagonal", 1e-12)
        assert not structure_check(np.ones((2, 2)), "diagonal", 1e-12)

    def test_tolerance_respected(self):
        almost = np.diag([1.0, 2.0]) + 1e-13 * np.ones((2, 2))
        assert structure_check(almost, "diagonal", 1e-12)
        assert not structure_check(almost, "diagonal", 1e-14)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            structure_check(np.eye(2), "hermitian", 1e-12)
