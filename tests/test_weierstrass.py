"""Sigma/zeta evaluator against independent oracles and quasi-periodicity."""

import numpy as np
import pytest

from ellcauchy import (
    RATIONAL_KERNEL,
    SuiteConfig,
    TRIG_KERNEL,
    InvalidLattice,
    PoleAtLatticePoint,
    lattice_new,
    sigma,
    sigma_k,
    zeta_w,
)
from ellcauchy import cauchy, verify
from ellcauchy.weierstrass import _reduce, lattice_distance

from conftest import cell_points


def lattice_sum_zeta(lat, x, m_max=200):
    """Truncated Eisenstein sum for zeta; symmetric truncation cancels the
    odd tail so the error is O(1/m_max^2)."""
    ms = np.arange(-m_max, m_max + 1)
    s = (2 * lat.omega * ms[:, None] + 2 * lat.omega_prime * ms[None, :]).ravel()
    s = s[np.abs(s) > 1e-12]
    return 1 / x + np.sum(1 / (x - s) + 1 / s + x / s**2)


def lattice_product_sigma(lat, x, m_max=40):
    """Direct truncated lattice product for sigma (slowly convergent)."""
    ms = np.arange(-m_max, m_max + 1)
    s = (2 * lat.omega * ms[:, None] + 2 * lat.omega_prime * ms[None, :]).ravel()
    s = s[np.abs(s) > 1e-12]
    return x * np.exp(np.sum(np.log1p(-x / s) + x / s + x**2 / (2 * s**2)))


class TestLattice:
    def test_legendre_relation(self, lat):
        res = 2 * lat.eta * lat.omega_prime - 2 * lat.eta_prime * lat.omega - 1j * np.pi
        assert abs(res) < 1e-12

    @pytest.mark.parametrize("tau", [0.3 + 0.7j, 1j, -0.5 + 1.2j, 0.1 + 3j])
    def test_legendre_across_lattices(self, tau):
        lat = lattice_new(1.0, tau)
        res = 2 * lat.eta * lat.omega_prime - 2 * lat.eta_prime * lat.omega - 1j * np.pi
        assert abs(res) < 1e-12

    def test_square_lattice_eta(self):
        # for omega = 1, omega' = i the constant eta is real and equals pi/4
        lat = lattice_new(1.0, 1j)
        assert abs(lat.eta.imag) < 1e-12
        assert abs(lat.eta - np.pi / 4) < 1e-10
        assert abs(lat.eta - lattice_sum_zeta(lat, lat.omega)) < 1e-4

    def test_eta_matches_lattice_sum(self, lat):
        assert abs(lat.eta - lattice_sum_zeta(lat, lat.omega)) < 1e-4 * abs(lat.eta)

    def test_invalid_lattice(self):
        with pytest.raises(InvalidLattice):
            lattice_new(1.0, -1j)
        with pytest.raises(InvalidLattice):
            lattice_new(0.0, 1j)

    def test_nome_inside_unit_disc(self, lat):
        assert abs(lat.nome) < 1

    def test_eta_prime_from_s_transformed_lattice(self):
        # eta_prime comes from the Legendre relation; the basis (omega', -omega)
        # spans the same lattice, so its own series gives zeta(omega') directly.
        # The ten lattices of acceptance criterion 01.
        rng = np.random.default_rng(1)
        for _ in range(10):
            tau = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(0.3, 3.0)
            lat = lattice_new(1.0, tau)
            zeta_at_omega_prime = lattice_new(lat.omega_prime, -lat.omega).eta
            assert abs(zeta_at_omega_prime - lat.eta_prime) < 1e-13 * max(1.0, abs(lat.eta_prime))


class TestReduceToCell:
    def test_origin(self, lat):
        assert _reduce(lat, 0.0) == (0.0, 0, 0)

    def test_exact_lattice_vector(self, lat):
        xr, m, m_prime = _reduce(lat, 2 * lat.omega)
        assert abs(xr) < 1e-14
        assert (m, m_prime) == (1, 0)

    def test_generic_shift(self, lat):
        xr, m, m_prime = _reduce(lat, 2 * lat.omega + 2 * lat.omega_prime + 0.1)
        assert abs(xr - 0.1) < 1e-13
        assert (m, m_prime) == (1, 1)

    def test_roundtrip(self, lat, rng):
        for x in rng.standard_normal(20) + 1j * rng.standard_normal(20):
            xr, m, m_prime = _reduce(lat, x)
            back = xr + 2 * m * lat.omega + 2 * m_prime * lat.omega_prime
            assert abs(back - x) < 1e-12 * max(1.0, abs(x))


class TestSigma:
    def test_zero(self, lat):
        assert sigma(lat, 0.0) == 0.0

    def test_small_argument(self, lat):
        assert abs(sigma(lat, 1e-4) / 1e-4 - 1) < 1e-12

    def test_normalization_at_1e3(self, lat):
        assert abs(sigma(lat, 1e-3) / 1e-3 - 1) < 1e-10

    def test_odd(self, lat, rng):
        x = cell_points(lat, rng, 100)
        s = sigma(lat, x)
        assert np.abs(sigma(lat, -x) + s).max() < 1e-12 * np.abs(s).max()

    @pytest.mark.parametrize("period_attr,eta_attr", [("omega", "eta"), ("omega_prime", "eta_prime")])
    def test_monodromy(self, lat, rng, period_attr, eta_attr):
        w = getattr(lat, period_attr)
        e = getattr(lat, eta_attr)
        x = cell_points(lat, rng, 50)
        lhs = sigma(lat, x + 2 * w)
        rhs = -np.exp(2 * e * (x + w)) * sigma(lat, x)
        assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 1e-10

    def test_elliptic_ratio_is_periodic(self, lat, rng):
        # f(x) = prod sigma(x-a)/sigma(x-b) with sum(a) = sum(b) has both periods
        a = cell_points(lat, rng, 3)
        b = cell_points(lat, rng, 3)
        b[-1] = b[:-1].sum() * -1 + a.sum()  # enforce sum(a - b) = 0

        def f(x):
            return np.prod(sigma(lat, x - a) / sigma(lat, x - b))

        for x in cell_points(lat, rng, 5):
            base = f(x)
            assert abs(f(x + 2 * lat.omega) - base) < 1e-10 * abs(base)
            assert abs(f(x + 2 * lat.omega_prime) - base) < 1e-10 * abs(base)

    def test_matches_lattice_product(self, lat, rng):
        # slow-converging direct product; loose tolerance
        pts = 0.5 * cell_points(lat, rng, 20)
        for x in pts:
            ref = lattice_product_sigma(lat, x)
            assert abs(sigma(lat, x) - ref) < 1e-6 * abs(ref)


class TestZeta:
    def test_eta_at_half_period(self, lat):
        assert abs(zeta_w(lat, lat.omega) - lat.eta) < 1e-12
        assert abs(zeta_w(lat, lat.omega_prime) - lat.eta_prime) < 1e-12

    def test_odd(self, lat, rng):
        for x in cell_points(lat, rng, 10):
            assert abs(zeta_w(lat, -x) + zeta_w(lat, x)) < 1e-10 * abs(zeta_w(lat, x))

    def test_finite_difference_oracle(self, lat, rng):
        h = 1e-5
        for x in cell_points(lat, rng, 10):
            fd = (sigma(lat, x + h) - sigma(lat, x - h)) / (2 * h * sigma(lat, x))
            assert abs(zeta_w(lat, x) - fd) < 1e-6

    def test_pole_at_lattice_point(self, lat):
        with pytest.raises(PoleAtLatticePoint):
            zeta_w(lat, 0.0)
        with pytest.raises(PoleAtLatticePoint):
            zeta_w(lat, 2 * lat.omega + 2 * lat.omega_prime)


class TestSigmaK:
    def test_single_factor_case(self, lat):
        x = 0.17 + 0.05j
        expect = np.exp(2 * lat.eta_prime * x) * sigma(lat, x - 2 * lat.omega_prime)
        assert abs(sigma_k(lat, 1, 1, x) - expect) < 1e-12 * abs(expect)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_monodromy_both_periods(self, lat, n):
        x = 0.11 + 0.07j
        sign = (-1.0) ** n
        for k in range(1, n + 1):
            base = sigma_k(lat, n, k, x)
            lhs = sigma_k(lat, n, k, x + 2 * lat.omega)
            rhs = sign * np.exp(2 * lat.eta * n * (x + lat.omega)) * base
            assert abs(lhs - rhs) < 1e-10 * abs(rhs)
            lhs = sigma_k(lat, n, k, x + 2 * lat.omega_prime)
            rhs = sign * np.exp(2 * lat.eta_prime * n * (x + lat.omega_prime)) * base
            assert abs(lhs - rhs) < 1e-10 * abs(rhs)

    def test_k_out_of_range(self, lat):
        with pytest.raises(ValueError):
            sigma_k(lat, 3, 4, 0.1)


def test_lattice_distance(lat):
    assert lattice_distance(lat, 2 * lat.omega) < 1e-13
    assert abs(lattice_distance(lat, 0.1) - 0.1) < 1e-13


# ---------------------------------------------------------------------------
# sigma against mpmath's jtheta
# ---------------------------------------------------------------------------


def mp_sigma(mpmath, lat, x):
    """sigma(x) at 40 digits from mpmath's theta1, with eta from theta1'''(0)/theta1'(0),
    evaluated at x itself without cell reduction."""
    with mpmath.workdps(40):
        omega = mpmath.mpc(lat.omega)
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(lat.omega_prime) / omega)
        d1 = mpmath.jtheta(1, 0, q, 1)
        eta = -(mpmath.pi**2) / (12 * omega) * mpmath.jtheta(1, 0, q, 3) / d1
        x = mpmath.mpc(x)
        v = mpmath.pi * x / (2 * omega)
        gauss = mpmath.exp(eta * x**2 / (2 * omega))
        return complex(2 * omega / mpmath.pi * gauss * mpmath.jtheta(1, v, q) / d1)


def oracle_points(lat, region, rng):
    w1, w2 = 2 * lat.omega, 2 * lat.omega_prime
    cell = rng.uniform(-0.45, 0.45, 6) * w1 + rng.uniform(-0.45, 0.45, 6) * w2
    if region == "inside":
        return cell
    if region == "outside":
        return cell + np.array([w1, -w1, -w2, w1 + w2, -w1 + 2 * w2, 2 * w2])
    lattice_pts = np.array([0, w1, w2, w1 + w2, -w1 + w2, -2 * w2])
    return lattice_pts + 1e-6 * rng.uniform(0.1, 1.0, 6) * np.exp(2j * np.pi * rng.uniform(size=6))


#: On the thin lattice (|q| = 0.78) the alternating theta1'(0) and theta1'''(0)
#: sums cancel (terms near 5 add up to 5e-3), so eta carries about 2e-14
#: relative error; the quasi-periodicity factor turns it into about 3e-12 one
#: period away from the cell.  Removing it needs a reduced lattice basis.
SIGMA_ORACLE_CASES = [
    pytest.param(tau, region, tol, id=f"{tau}-{region}")
    for tau, region, tol in (
        (0.3 + 0.7j, "inside", 1e-12),
        (0.3 + 0.7j, "outside", 1e-12),
        (0.3 + 0.7j, "near", 1e-12),
        (0.08j, "inside", 1e-12),
        (0.08j, "outside", 1e-11),
        (0.08j, "near", 1e-11),
        (7.3 + 0.9j, "inside", 1e-12),
        (7.3 + 0.9j, "outside", 1e-12),
        (7.3 + 0.9j, "near", 1e-12),
    )
]


@pytest.mark.parametrize("tau,region,tol", SIGMA_ORACLE_CASES)
def test_sigma_matches_mpmath(tau, region, tol):
    mpmath = pytest.importorskip("mpmath")
    lat = lattice_new(1.0, tau)
    x = oracle_points(lat, region, np.random.default_rng(5))
    ref = np.array([mp_sigma(mpmath, lat, p) for p in x])
    assert np.all(ref != 0) and np.all(np.isfinite(ref))
    assert np.max(np.abs(sigma(lat, x) - ref) / np.abs(ref)) <= tol


# ---------------------------------------------------------------------------
# fused evaluation against one call per term
# ---------------------------------------------------------------------------


def ref_sigma_k(lat, n, k, x):
    out = np.exp(2 * lat.eta_prime * k * x)
    for l in range(n):
        out = out * sigma(lat, x + (n - 2 * l - 1) / n * lat.omega - (2 * k / n) * lat.omega_prime)
    return out


def ref_cauchy_matrix(kern, x, y, lam):
    diff = x[:, None] - y[None, :]
    return kern(diff + lam) / (kern(lam) * kern(diff))


def ref_d_matrix(kern, x, y):
    a = kern(x[:, None] - y[None, :])
    b = kern(x[:, None] - x[None, :]) + np.eye(len(x))
    return np.diag(np.prod(a, axis=1) / np.prod(b, axis=1))


def ref_frobenius_det(lat, x, y, lam):
    upper = np.triu_indices(len(x), 1)
    pre = sigma(lat, lam + x.sum() - y.sum()) / sigma(lat, lam)
    dx = sigma(lat, x[:, None] - x[None, :])
    dy = sigma(lat, y[:, None] - y[None, :])
    num = np.prod(dx[upper]) * np.prod(-dy[upper])
    return pre * num / np.prod(sigma(lat, x[:, None] - y[None, :]))


def ref_gauss_udl(lat, x, y, lam):
    n = len(x)
    lams = cauchy.gauss_lambda_ladder(x, y, lam)
    sxx = sigma(lat, x[:, None] - x[None, :]) + np.eye(n)
    sxy = sigma(lat, x[:, None] - y[None, :])
    syx = sigma(lat, y[:, None] - x[None, :])
    syy = sigma(lat, y[:, None] - y[None, :]) + np.eye(n)
    sxy_lam = sigma(lat, x[:, None] - y[None, :] + lams[None, :])
    sxj_yk_lj = sigma(lat, x[:, None] - y[None, :] + lams[:, None])

    def suffix(num, den):
        ratio = num / den
        out = np.ones((n, n), dtype=complex)
        for j in range(n - 2, -1, -1):
            out[:, j] = out[:, j + 1] * ratio[:, j + 1]
        return out

    r_u, r_l = suffix(sxx, sxy), suffix(syy, syx)
    diag_xy, diag_lam = np.diag(sxy), np.diag(sxy_lam)
    u = sxy_lam * diag_xy[None, :] / (diag_lam[None, :] * sxy) * r_u / np.diag(r_u)[None, :]
    l = sxj_yk_lj * diag_xy[:, None] / (diag_lam[:, None] * sxy) * (r_l.T / np.diag(r_l)[:, None])
    d = np.diag(diag_lam / (sigma(lat, lams) * diag_xy) * np.diag(r_u) * np.diag(r_l))
    return np.triu(u), d, np.tril(l)


def ref_bloch_eval(lat, poles, coeffs, lam, w):
    diff = w - poles
    return np.sum(coeffs * sigma(lat, diff + lam) / (sigma(lat, lam) * sigma(lat, diff)))


def assert_close(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def instance(kern, n, seed=3):
    inst = verify.random_instance(SuiteConfig(), kern, n, seed)
    return inst.x, inst.y, inst.lam


class TestFusedEvaluation:
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_sigma_k_is_its_product_definition(self, lat, rng, n):
        x = cell_points(lat, rng, 7)
        for k in range(1, n + 1):
            ref = ref_sigma_k(lat, n, k, x)
            assert np.max(np.abs(sigma_k(lat, n, k, x) - ref) / np.abs(ref)) <= 1e-14

    @pytest.mark.parametrize("kern_name", ["elliptic", "trig", "rational"])
    @pytest.mark.parametrize("n", [1, 5])
    def test_cauchy_and_d_matrix(self, kern, kern_name, n):
        kern = {"elliptic": kern, "trig": TRIG_KERNEL, "rational": RATIONAL_KERNEL}[kern_name]
        x, y, lam = instance(kern, n)
        assert_close(cauchy.cauchy_matrix(kern, x, y, lam), ref_cauchy_matrix(kern, x, y, lam))
        assert_close(cauchy.d_matrix(kern, x, y), ref_d_matrix(kern, x, y))

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_frobenius_det(self, lat, kern, n):
        x, y, lam = instance(kern, n)
        assert_close(cauchy.frobenius_det(lat, x, y, lam), ref_frobenius_det(lat, x, y, lam))

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_gauss_udl(self, lat, kern, n):
        x, y, lam = instance(kern, n)
        for got, ref in zip(cauchy.gauss_udl(lat, x, y, lam), ref_gauss_udl(lat, x, y, lam)):
            assert_close(got, ref)

    def test_bloch_eval(self, lat, kern, rng):
        poles, _, lam = instance(kern, 4)
        coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        for w in (0.05 + 0.31j, 0.05 + 0.31j + 2 * lat.omega_prime):
            got = cauchy.bloch_eval(lat, poles, coeffs, lam, w)
            assert_close(got, ref_bloch_eval(lat, poles, coeffs, lam, w))
