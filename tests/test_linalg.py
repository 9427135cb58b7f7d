"""Pivoted-LU helpers, the backward error and residual/structure utilities."""

import math
import warnings

import numpy as np
import pytest

from ellcauchy import DimensionMismatch, SingularMatrix, SuiteConfig, cauchy, run_suite
from ellcauchy.linalg import (
    _as_square,
    backward_error,
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


def ref_lu_factor(a):
    """The one-matrix pivoted LU loop, kept to pin the stacked factor's
    rounding: (lu, perm, sign) for one matrix."""
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


def ref_lu_det(a):
    lu, _, sign = ref_lu_factor(a)
    return complex(sign * np.prod(np.diag(lu)))


def ref_lu_inverse(a):
    """The one-matrix substitution on ``ref_lu_factor``, for a nonsingular
    matrix."""
    n = a.shape[0]
    lu, perm, _ = ref_lu_factor(a)
    x = np.eye(n, dtype=complex)[perm]
    for k in range(1, n):
        x[k] -= lu[k, :k] @ x[:k]
    for k in range(n - 1, -1, -1):
        x[k] -= lu[k, k + 1 :] @ x[k + 1 :]
        x[k] /= lu[k, k]
    return x


def complex_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


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


class TestStacked:
    """A (2, 3, N, N) stack answers per member, bit for bit as the
    one-matrix loop ``ref_lu_factor`` does on that member alone."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_det_and_inverse_match_one_matrix_loop(self, rng, n):
        a = complex_stack(rng, (2, 3, n, n))
        if n > 1:
            a[0, 1, 0, 0] = 0  # its first pivot comes from another row
        a[1, 0] *= 1e-150
        dets, invs = lu_det(a), lu_inverse(a)
        assert dets.shape == (2, 3) and invs.shape == a.shape
        swapped = 0
        for b in np.ndindex(2, 3):
            swapped += (ref_lu_factor(a[b])[1] != np.arange(n)).any()
            assert dets[b].tobytes() == np.complex128(ref_lu_det(a[b])).tobytes(), b
            assert invs[b].tobytes() == ref_lu_inverse(a[b]).tobytes(), b
        assert n == 1 or swapped

    @pytest.mark.parametrize("n", range(2, 9))
    def test_singular_member_has_zero_det_and_leaves_the_rest(self, rng, n):
        a = complex_stack(rng, (2, 3, n, n))
        a[1, 1, :, n // 2] = 0  # exactly singular: a zero pivot column
        # a first pivot of 0, and an inf in its row that no later step reads
        a[0, 2, :, 0] = 0
        a[0, 2, 0, -1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            dets = lu_det(a)
        assert dets[1, 1] == 0 and dets[0, 2] == 0
        for b in np.ndindex(2, 3):
            assert dets[b].tobytes() == np.complex128(ref_lu_det(a[b])).tobytes(), b

    def test_one_matrix_gives_python_complex(self, rng):
        a = complex_stack(rng, (4, 4))
        assert type(lu_det(a)) is complex
        assert lu_det(a) == lu_det(a[None])[0]

    def test_first_singular_member_raises_its_own_message(self, rng):
        a = complex_stack(rng, (4, 3, 3))
        a[1, 2] = 2 * a[1, 0]
        a[2] = 0
        with pytest.raises(SingularMatrix) as one:
            lu_inverse(a[1])
        with pytest.raises(SingularMatrix) as stacked:
            lu_inverse(a)
        assert str(stacked.value) == str(one.value)

    def test_non_square_stack_raises(self):
        with pytest.raises(DimensionMismatch):
            _as_square(np.zeros((2, 3, 4)))
        with pytest.raises(DimensionMismatch):
            lu_det(np.zeros((2, 3, 4)))
        # a product's operands too, and its right-hand side, which
        # broadcasts over the stack but has the matrices' size
        eye = np.eye(3)
        for a, b, r in ((np.zeros((2, 3, 4)), np.zeros((2, 4, 3)), eye), (eye, eye, np.eye(4)), (eye, eye, eye[:, :2])):
            with pytest.raises(DimensionMismatch):
                backward_error(a, b, r)
        assert backward_error(np.stack([eye, eye]), np.stack([eye, eye]), eye).tolist() == [0, 0]


class TestBackwardError:
    """max_ij |a b - r|_ij / (|a| |b|)_ij per matrix, with 0/0 read as 0,
    x/0 as inf and NaN kept; no rule warns."""

    @pytest.fixture(autouse=True)
    def no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            yield

    def test_zero_over_zero_reads_zero(self):
        # every off-diagonal entry is 0/0
        assert backward_error(np.eye(3), 2 * np.eye(3), 2 * np.eye(3)) == 0

    def test_nonzero_over_zero_reads_inf(self):
        r = np.eye(3, dtype=complex)
        r[0, 2] = 1e-300
        assert backward_error(np.eye(3), np.eye(3), r) == math.inf

    @pytest.mark.parametrize("operand", range(3))
    def test_a_nan_anywhere_reads_nan(self, rng, operand):
        mats = [complex_stack(rng, (3, 3)) for _ in range(3)]
        mats[operand][1, 2] = np.nan
        assert math.isnan(backward_error(*mats))

    def test_empty_matrices_read_zero(self):
        # a 0 x 0 product is exact, as the determinant of a 0 x 0 matrix is 1
        empty = np.zeros((0, 0), dtype=complex)
        assert backward_error(empty, empty, np.eye(0)) == 0.0 and lu_det(empty) == 1
        assert backward_error(*[np.zeros((3, 0, 0))] * 3).tolist() == [0.0] * 3

    def test_member_matches_the_call_on_it_alone(self, rng):
        a, b, r = (complex_stack(rng, (2, 3, 5, 5)) for _ in range(3))
        a[0, 1] = b[0, 1] = r[0, 1] = np.eye(5)  # 0/0 entries
        r[1, 0, 2, 3] += 1e-9
        b[1, 2, :, 4] = 0  # x/0 in column 4
        r[0, 2, 1, 1] = np.nan
        got = backward_error(a, b, r)
        assert got.shape == (2, 3) and got[0, 1] == 0 and got[1, 2] == math.inf and math.isnan(got[0, 2])
        for m in np.ndindex(2, 3):
            alone = backward_error(a[m], b[m], r[m])
            assert type(alone) is float and np.float64(alone).tobytes() == got[m].tobytes(), m

    def test_matches_the_inline_formula(self, rng):
        # the factorization check's formula before the helper, on a stack
        # with no zero entry
        a, b, r = (complex_stack(rng, (4, 6, 6)) for _ in range(3))
        inline = (np.abs(a @ b - r) / (np.abs(a) @ np.abs(b))).reshape(4, -1).max(axis=-1)
        assert backward_error(a, b, r).tobytes() == inline.tobytes()

    @pytest.mark.parametrize("wrong, reads", [("zero column", math.inf), ("nan entry", math.nan)])
    def test_an_inf_or_nan_record_fails(self, monkeypatch, wrong, reads):
        closed = cauchy.cauchy_inverse_closed

        def broken(*args):
            inv = np.array(closed(*args))
            if wrong == "zero column":
                inv[..., -1] = 0  # C X - I is -1 at (N, N), over |C| |X| = 0
            else:
                inv[..., 0, 0] = np.nan
            return inv

        monkeypatch.setattr(cauchy, "cauchy_inverse_closed", broken)
        reports = run_suite(SuiteConfig(n_values=(1, 3), trials_per_n=2), identities=["inverse"])
        assert len(reports) == 8 and not any(r.passed for r in reports)
        for r in reports:
            assert (r.rel_residual == reads) or (math.isnan(reads) and math.isnan(r.rel_residual)), r


class TestResiduals:
    def test_max_abs_residual(self):
        a = np.zeros((2, 2))
        b = np.array([[0.0, 0.5], [0.0, 0.0]])
        assert max_abs_residual(a, b) == 0.5
        with pytest.raises(DimensionMismatch):
            max_abs_residual(np.eye(2), np.eye(3))

    def test_max_abs_residual_of_empty_matrices(self):
        assert max_abs_residual(np.zeros((0, 0)), np.eye(0)) == 0.0
        assert max_abs_residual(np.zeros((2, 0, 0)), np.zeros((2, 0, 0))).tolist() == [0.0, 0.0]
        assert math.isnan(max_abs_residual([[np.nan, 0], [0, 0]], np.zeros((2, 2))))

    def test_rel_residual(self):
        a = np.array([[2.0, 0.0], [0.0, 2.0]])
        assert rel_residual(1.001 * a, a) == pytest.approx(0.001)


class TestNotNumbers:
    """A matrix that is not numbers is refused, where a cast to complex
    reads None as NaN and parses a string."""

    @pytest.mark.parametrize("bad", [[[None]], [["1"]], [[True]], np.array([[1.0]], dtype=object), [[1.0, True], [0, 1]]])
    def test_refused(self, bad):
        with pytest.raises(TypeError, match="a matrix must be numbers, not of dtype"):
            lu_det(bad)
        with pytest.raises(TypeError, match="a matrix must be numbers"):
            max_abs_residual(bad, [[1]])
        with pytest.raises(TypeError, match="a matrix must be numbers"):
            lu_inverse(bad)
        with pytest.raises(TypeError, match="a matrix must be numbers"):
            backward_error([[1]], [[1]], bad)

    def test_numbers_of_every_kind(self):
        for a in ([[2]], np.array([[2]], dtype=np.uint8), np.array([[2.0]], dtype=np.float32)):
            assert lu_det(a) == 2 and max_abs_residual(a, [[2j]]) == abs(2 - 2j)


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
