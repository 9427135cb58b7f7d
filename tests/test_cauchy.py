"""Matrix builders: closed forms, transposition/gauge symmetries, limits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellcauchy import (
    DimensionMismatch,
    Instance,
    KernelZero,
    PoleProximity,
    RATIONAL_KERNEL,
    SuiteConfig,
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
    random_instance,
    w_matrix,
)
from ellcauchy import linalg, sigma
from ellcauchy.cauchy import Kernel, gauss_lambda_ladder

from conftest import cell_points


def sample_sets(lat, rng, n, count=2):
    """Well-separated point sets plus a generic lambda."""
    while True:
        pts = cell_points(lat, rng, count * n + 1)
        d = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(d, np.inf)
        if d.min() > 0.08 and np.abs(pts).min() > 0.05:
            sets = [pts[i * n : (i + 1) * n] for i in range(count)]
            return sets + [complex(pts[-1])]


class TestInstance:
    def test_properties(self):
        x = np.array([1.0, 2.0 + 1j])
        inst = Instance(RATIONAL_KERNEL, x, [0.5j, -1.0], 0.7)
        assert inst.n == 2
        assert inst.x.dtype == complex and np.array_equal(inst.x, x)
        with pytest.raises(ValueError):
            inst.x[0] = 3.0  # read-only
        x[0] = 3.0  # the caller's array is copied, not frozen
        assert inst.x[0] == 1.0

    def test_rejects_coincident(self):
        with pytest.raises(ValueError):
            Instance(RATIONAL_KERNEL, [1.0, 1.0], [0.5j, -1.0], 0.7)
        with pytest.raises(ValueError):
            Instance(RATIONAL_KERNEL, [], [], 0.7)
        with pytest.raises(DimensionMismatch):
            Instance(RATIONAL_KERNEL, [1.0, 2.0], [0.5j], 0.7)
        with pytest.raises(KernelZero):
            Instance(RATIONAL_KERNEL, [1.0], [0.5j], 1e-9)

    @pytest.mark.parametrize("which", ["elliptic", "trig"])
    @pytest.mark.parametrize("pair", ["x-x", "x-y"])
    def test_rejects_points_a_period_apart(self, lat, kern, which, pair):
        # two points whose difference is a kernel zero, inside one set or
        # across two, however far apart they are in the plane
        k, period = {"elliptic": (kern, 2 * lat.omega), "trig": (TRIG_KERNEL, np.pi)}[which]
        x, y = [0.1 + 0.05j, -0.2 + 0.1j], [0.3 - 0.2j, 0.25 + 0.3j]
        if pair == "x-x":
            x[1] = x[0] + period
        else:
            y[1] = x[0] + period
        with pytest.raises(ValueError, match="point separation"):
            Instance(k, x, y, 0.21 + 0.33j)


class TestClassic:
    def test_small_example(self):
        m = classic_cauchy([2.0, 3.0], [0.0, 1.0])
        assert np.allclose(m, [[0.5, 1.0], [1 / 3, 0.5]])

    def test_det_matches_lu(self, rng):
        for n in (1, 2, 4, 6):
            x, y, _ = sample_sets_rational(rng, n)
            closed = classic_cauchy_det(x, y)
            lu = linalg.lu_det(classic_cauchy(x, y))
            assert abs(lu - closed) < 1e-9 * abs(closed)

    def test_det_antisymmetric_in_y(self, rng):
        x, y, _ = sample_sets_rational(rng, 4)
        swapped = y.copy()
        swapped[[0, 1]] = swapped[[1, 0]]
        assert classic_cauchy_det(x, swapped) == pytest.approx(-classic_cauchy_det(x, y))

    def test_inverse(self, rng):
        for n in (1, 3, 5):
            x, y, _ = sample_sets_rational(rng, n)
            m = classic_cauchy(x, y)
            assert linalg.max_abs_residual(m @ classic_cauchy_inverse(x, y), np.eye(n)) < 1e-9


def sample_sets_rational(rng, n, count=2):
    while True:
        pts = rng.standard_normal(count * n + 1) + 1j * rng.standard_normal(count * n + 1)
        d = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(d, np.inf)
        if d.min() > 0.15 and np.abs(pts).min() > 0.1:
            sets = [pts[i * n : (i + 1) * n] for i in range(count)]
            return sets + [complex(pts[-1])]


class TestDMatrix:
    def test_rational_small_example(self):
        d = d_matrix(RATIONAL_KERNEL, [2.0, 3.0], [0.0, 1.0])
        assert np.allclose(d, np.diag([-2.0, 6.0]))

    def test_single_point(self, kern, lat):
        d = d_matrix(kern, [0.2], [0.31])
        assert d.shape == (1, 1)
        assert d[0, 0] == pytest.approx(sigma(lat, 0.2 - 0.31))

    def test_kernel_zero_raises(self):
        with pytest.raises(KernelZero):
            d_matrix(RATIONAL_KERNEL, [1.0, 2.0], [1.0, 3.0])

    def test_lattice_vector_difference_raises(self, lat, kern):
        # a difference within 1e-13 of a lattice vector is a kernel zero
        x = [0.1 + 0.05j, 0.1 + 0.05j + 2 * lat.omega_prime + 1e-14]
        y = [0.3 - 0.2j, -0.25 + 0.1j]
        with pytest.raises(KernelZero, match="x_i - x_k"):
            d_matrix(kern, x, y)
        with pytest.raises(KernelZero, match="x_i - x_l"):
            g_factor_elliptic(lat, x, 0.21 + 0.33j)

    def test_small_sigma_is_not_a_kernel_zero(self):
        # on the thin lattice tau = 0.08i, |sigma(x_0 - x_1)| is about 1e-17
        # although x_0 - x_1 is 0.9 from the nearest lattice point
        cfg = SuiteConfig(lattice_tau=0.08j)
        kern = elliptic_kernel(cfg.lattice())
        inst = random_instance(cfg, kern, 2, 44)
        assert abs(sigma(kern.lattice, inst.x[0] - inst.x[1])) < 1e-15
        assert kern.separation(inst.x) > 0.5
        assert np.all(np.isfinite(d_matrix(kern, inst.x, inst.y)))


class TestCauchyMatrix:
    @pytest.mark.parametrize("which", ["elliptic", "trig", "rational"])
    def test_transpose_relation(self, lat, kern, rng, which):
        # C(x,y;lam)^T = -C(y,x;-lam) for every odd kernel
        k = {"elliptic": kern, "trig": TRIG_KERNEL, "rational": RATIONAL_KERNEL}[which]
        if which == "elliptic":
            x, y, lam = sample_sets(lat, rng, 4)
        else:
            x, y, lam = sample_sets_rational(rng, 4)
        lhs = cauchy_matrix(k, x, y, lam).T
        rhs = -cauchy_matrix(k, y, x, -lam)
        assert np.abs(lhs - rhs).max() < 1e-12 * np.abs(rhs).max()

    def test_lambda_period_multiplier(self, lat, kern, rng):
        # shifting lam by a full period scales entry (i,j) by e^{2 eta (x_i-y_j)}
        x, y, lam = sample_sets(lat, rng, 3)
        base = cauchy_matrix(kern, x, y, lam)
        shifted = cauchy_matrix(kern, x, y, lam + 2 * lat.omega)
        mult = np.exp(2 * lat.eta * (x[:, None] - y[None, :]))
        assert np.abs(shifted - mult * base).max() < 1e-9 * np.abs(shifted).max()

    def test_pole_argument_raises(self, kern, lat):
        with pytest.raises(KernelZero):
            cauchy_matrix(kern, [0.3], [0.3 - 2 * lat.omega], 0.1)
        with pytest.raises(KernelZero):
            cauchy_matrix(kern, [0.3], [0.1], 0.0)


class TestFrobeniusDet:
    def test_matches_lu(self, lat, kern, rng):
        for n in (1, 2, 4, 6):
            x, y, lam = sample_sets(lat, rng, n)
            closed = frobenius_det(lat, x, y, lam)
            lu = linalg.lu_det(cauchy_matrix(kern, x, y, lam))
            assert abs(lu - closed) < 1e-9 * abs(closed)

    def test_column_swap_flips_sign(self, lat, rng):
        x, y, lam = sample_sets(lat, rng, 4)
        swapped = y.copy()
        swapped[[1, 3]] = swapped[[3, 1]]
        a = frobenius_det(lat, x, y, lam)
        b = frobenius_det(lat, x, swapped, lam)
        assert abs(a + b) < 1e-10 * abs(a)

    def test_vanishes_linearly_at_special_lambda(self, lat, kern, rng):
        # det C has a zero at lam = Y - X; |det| must shrink linearly there
        x, y, _ = sample_sets(lat, rng, 3)
        star = y.sum() - x.sum()

        def det_at(delta):
            return abs(linalg.lu_det(cauchy_matrix(kern, x, y, star + delta)))

        r1, r2 = det_at(1e-3), det_at(5e-4)
        assert 0.35 < r2 / r1 < 0.65


class TestInverseClosed:
    def test_identity_residual(self, lat, kern, rng):
        for n in (1, 3, 5):
            x, y, lam = sample_sets(lat, rng, n)
            m = cauchy_matrix(kern, x, y, lam)
            inv = cauchy_inverse_closed(lat, x, y, lam)
            assert linalg.max_abs_residual(m @ inv, np.eye(n)) < 1e-9
            assert linalg.max_abs_residual(inv @ m, np.eye(n)) < 1e-9


class TestGH:
    def test_h_is_minus_transposed_g(self, lat, kern, rng):
        x, y, lam = sample_sets(lat, rng, 4)
        lhs = h_matrix(kern, x, y, lam)
        rhs = -g_matrix(kern, y, x, -lam).T
        assert np.abs(lhs - rhs).max() < 1e-11 * np.abs(rhs).max()

    def test_g_at_nearby_sets_is_near_identity(self, lat, kern, rng):
        x, _, lam = sample_sets(lat, rng, 4)

        def residual(eps):
            g = g_matrix(kern, x, x + eps, lam)
            return np.abs(g - np.eye(4)).max()

        r1 = residual(1e-6)
        assert r1 < 1e-4
        ratio = r1 / residual(5e-7)
        assert 1.6 < ratio < 2.4  # first-order in the shift

    def test_single_point(self, lat, kern):
        g = g_matrix(kern, [0.2], [0.15], 0.3j)
        expect = sigma(lat, 0.2 - 0.15) * cauchy_matrix(kern, [0.2], [0.15], 0.3j)[0, 0]
        assert g[0, 0] == pytest.approx(expect)


class TestKW:
    def test_k_near_coincident_sets(self, rng):
        x, _, _ = sample_sets_rational(rng, 4)
        k = k_matrix(x, x + 1e-6)
        assert np.abs(k - np.eye(4)).max() < 1e-4

    def test_k_equals_w_product(self, rng):
        for n in (1, 2, 4, 6):
            x, y, _ = sample_sets_rational(rng, n)
            rhs = w_matrix(x) @ linalg.lu_inverse(w_matrix(y))
            assert np.abs(k_matrix(x, y) - rhs).max() < 1e-8 * np.abs(rhs).max()

    def test_k_kernel_zero_raises(self):
        with pytest.raises(KernelZero, match="x_i - y_k"):
            k_matrix([1.0, 2.0], [2.0, 3.0])
        with pytest.raises(KernelZero, match="x_i - x_l"):
            k_matrix([1.0, 1.0], [2.0, 3.0])

    def test_w_single_point(self):
        assert np.allclose(w_matrix([2.5]), [[1.0]])

    @given(n=st.integers(1, 8), seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_lagrange_power_sums(self, n, seed):
        # column sums of W: 0 below the top degree, 1 at degree N-1;
        # degree N gives the first power sum, w^-1 the signed inverse product
        r = np.random.default_rng(seed)
        while True:
            w = r.standard_normal(n) + 1j * r.standard_normal(n)
            d = np.abs(w[:, None] - w[None, :])
            np.fill_diagonal(d, np.inf)
            if d.min() > 0.2 and np.abs(w).min() > 0.1:
                break
        den = np.prod(w[:, None] - w[None, :] + np.eye(n), axis=1)
        for k in range(n - 1):
            assert abs(np.sum(w**k / den)) < 1e-10
        assert abs(np.sum(w ** (n - 1) / den) - 1) < 1e-10
        assert abs(np.sum(w**n / den) - w.sum()) < 1e-10
        expect = (-1.0) ** (n - 1) / np.prod(w)
        assert abs(np.sum(1 / (w * den)) - expect) < 1e-10 * max(1.0, abs(expect))


class TestGFactors:
    def test_factorization_each_kernel(self, lat, kern, rng):
        for n in (1, 2, 4):
            x, y, lam = sample_sets(lat, rng, n)
            lhs = g_matrix(kern, x, y, lam + y.sum())
            rhs = g_factor_elliptic(lat, x, lam) @ linalg.lu_inverse(g_factor_elliptic(lat, y, lam))
            assert np.abs(lhs - rhs).max() < 1e-9 * np.abs(lhs).max()

            xr, yr, lamr = sample_sets_rational(rng, n)
            lhs = g_matrix(TRIG_KERNEL, 0.3 * xr, 0.3 * yr, lamr + 0.3 * yr.sum())
            rhs = g_factor_trig(0.3 * xr, lamr) @ linalg.lu_inverse(g_factor_trig(0.3 * yr, lamr))
            assert np.abs(lhs - rhs).max() < 1e-8 * np.abs(lhs).max()

            lhs = g_matrix(RATIONAL_KERNEL, xr, yr, lamr + yr.sum())
            rhs = g_factor_rat(xr, lamr) @ linalg.lu_inverse(g_factor_rat(yr, lamr))
            assert np.abs(lhs - rhs).max() < 1e-8 * np.abs(lhs).max()

    def test_column_gauge_freedom(self, lat, rng):
        # right-multiplying both factors by a fixed nonsingular S cancels
        x, y, lam = sample_sets(lat, rng, 4)
        gx = g_factor_elliptic(lat, x, lam)
        gy = g_factor_elliptic(lat, y, lam)
        s = np.eye(4) + 0.3 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        plain = gx @ linalg.lu_inverse(gy)
        gauged = (gx @ s) @ linalg.lu_inverse(gy @ s)
        assert np.abs(plain - gauged).max() < 1e-10 * np.abs(plain).max()


class TestGauss:
    def test_lambda_ladder(self):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([0.5, 1.0, 1.5])
        lams = gauss_lambda_ladder(x, y, 2.0)
        assert np.allclose(lams, [2.0 + 1.0 + 1.5, 2.0 + 1.5, 2.0])

    def test_udl_reconstructs(self, lat, kern, rng):
        for n in (1, 2, 5):
            x, y, lam = sample_sets(lat, rng, n)
            u, d, l = gauss_udl(lat, x, y, lam)
            m = cauchy_matrix(kern, x, y, lam)
            assert linalg.rel_residual(u @ d @ l, m) < 1e-9
            assert linalg.structure_check(u, "unit_upper", 1e-12)
            assert linalg.structure_check(l, "unit_lower", 1e-12)
            assert linalg.structure_check(d, "diagonal", 1e-12)

    def test_diagonal_product_is_determinant(self, lat, rng):
        x, y, lam = sample_sets(lat, rng, 4)
        _, d, _ = gauss_udl(lat, x, y, lam)
        det = frobenius_det(lat, x, y, lam)
        assert abs(np.prod(np.diag(d)) - det) < 1e-9 * abs(det)


class TestBloch:
    def test_single_pole_formula(self, lat):
        lam, x1, w = 0.22 + 0.1j, 0.05, 0.4 + 0.2j
        expect = sigma(lat, w - x1 + lam) / (sigma(lat, lam) * sigma(lat, w - x1))
        assert bloch_eval(lat, [x1], [1.0], lam, w) == pytest.approx(expect)

    def test_bloch_multipliers(self, lat, rng):
        x, _, lam = sample_sets(lat, rng, 3)
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w = 0.41 + 0.13j
        base = bloch_eval(lat, x, c, lam, w)
        for period, eta in ((2 * lat.omega, lat.eta), (2 * lat.omega_prime, lat.eta_prime)):
            val = bloch_eval(lat, x, c, lam, w + period)
            expect = np.exp(2 * eta * lam) * base
            assert abs(val - expect) < 1e-9 * abs(expect)

    def test_elementwise_over_points(self, lat, rng):
        x, _, lam = sample_sets(lat, rng, 3)
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w = np.array([0.41 + 0.13j, -0.2 + 0.3j]) + np.array([0, 2 * lat.omega, 2 * lat.omega_prime])[:, None]
        psi = bloch_eval(lat, x, c, lam, w)
        assert psi.shape == (3, 2)
        for idx in np.ndindex(w.shape):
            assert abs(psi[idx] - bloch_eval(lat, x, c, lam, w[idx])) <= 1e-14 * abs(psi[idx])

    def test_pole_proximity(self, lat):
        with pytest.raises(PoleProximity):
            bloch_eval(lat, [0.3], [1.0], 0.2, 0.3 + 1e-12)

    def test_transport_consistency(self, lat, rng):
        # psi(w) * prod sigma(w-x_i)/sigma(w-y_i) equals the expansion over
        # the y poles with coefficients b and parameter lam - X + Y
        x, y, lam = sample_sets(lat, rng, 3)
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = bloch_transport(lat, x, y, lam, c)
        lam2 = lam - x.sum() + y.sum()
        for w in (0.37 + 0.21j, -0.3 + 0.05j, 0.11 - 0.27j, 0.45j, -0.15 - 0.1j):
            lhs = bloch_eval(lat, x, c, lam, w) * np.prod(
                sigma(lat, w - x) / sigma(lat, w - y)
            )
            rhs = bloch_eval(lat, y, b, lam2, w)
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))

    def test_two_step_transport(self, lat, rng):
        x, y, z, lam = sample_sets(lat, rng, 3, count=3)
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        via = bloch_transport(lat, y, z, lam - x.sum() + y.sum(), bloch_transport(lat, x, y, lam, c))
        direct = bloch_transport(lat, x, z, lam, c)
        assert np.abs(via - direct).max() < 1e-9 * np.abs(direct).max()

    def test_transport_near_identity(self, lat, rng):
        x, _, lam = sample_sets(lat, rng, 3)
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = bloch_transport(lat, x, x + 1e-6, lam, c)
        assert np.abs(b - c).max() < 1e-4 * np.abs(c).max()


def test_kernel_validation(lat):
    with pytest.raises(ValueError):
        Kernel("hyperbolic")
    with pytest.raises(ValueError):
        Kernel("elliptic")  # missing lattice
