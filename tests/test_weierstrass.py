"""Sigma/zeta evaluator against independent oracles and quasi-periodicity."""

import warnings

import numpy as np
import pytest

from ellcauchy import (
    RATIONAL_KERNEL,
    SuiteConfig,
    TRIG_KERNEL,
    InvalidLattice,
    KernelZero,
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


def modulo_parity_sigma(lat, x):
    """sigma as it was written with the sign (-1)^(m + m' + m m') taken from
    the float modulo (m + 1)(m' + 1) % 2, for the bit-for-bit check of the
    exact even test that replaced it."""
    t = lat.series
    x = np.asarray(x, dtype=complex)
    xr, m, mp = _reduce(lat, x)
    expo = lat.eta / t.w1 * (xr * xr) + (m * lat.eta + mp * lat.eta_prime) * (x + xr)
    pre = t.w1 / (np.pi * t.d1)
    factor = np.where((m + 1) * (mp + 1) % 2, pre, -pre) * np.exp(expo)
    s = np.sin(np.pi / t.w1 * xr)
    a = 2.0 - 4.0 * (s * s)
    b1 = b2 = 0.0
    for c in t.coef[:0:-1]:
        b1, b2 = c + a * b1 - b2, b1
    return factor * s * (t.coef[0] + (a + 1.0) * b1 - b2)


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
        # non-finite periods, and finite periods whose ratio overflows
        for omega, omega_prime in [(1.0, complex(np.inf, 0.7)), (1.0, complex(0.3, np.nan)), (1e-300, 1e300j)]:
            with pytest.raises(InvalidLattice):
                lattice_new(omega, omega_prime)

    def test_theta_derivative_underflow(self):
        # sigma divides by theta1'(0), subnormal at 940i (sigma would be NaN)
        # and 0 at 3000i (division by zero); at 900i it is still normal
        for tau in (940j, 3000j):
            with pytest.raises(InvalidLattice, match="underflows"):
                lattice_new(1.0, tau)
        assert np.isfinite(sigma(lattice_new(1.0, 900j), 0.3 + 0.1j))

    @pytest.mark.parametrize("tau", [0.04j, 0.02j, 0.01j, 0.5 + 0.01j])
    def test_thin_lattice_cancellation(self, tau):
        # the alternating theta1'(0) sum cancels: eta would be wrong
        # (relative error 1.6e-9 at 0.04i, 0.12 at 0.02i against mpmath)
        with pytest.raises(InvalidLattice, match="cancels"):
            lattice_new(1.0, tau)

    @pytest.mark.parametrize("tau", [0.08j, 0.05j, 0.5 + 0.02j, 7.3 + 0.9j])
    def test_thin_lattice_kept(self, tau):
        assert np.isfinite(lattice_new(1.0, tau).eta)

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

    @pytest.mark.parametrize("bad", [None, "0.5", True, [0.5, None]])
    def test_not_numbers_are_refused(self, lat, bad):
        # a cast to complex would read None as NaN and parse a string
        with pytest.raises(TypeError, match="a sigma argument must be numbers, not of dtype"):
            sigma(lat, bad)

    def test_numbers_of_every_kind(self, lat):
        want = sigma(lat, 0.5 + 0j)
        assert sigma(lat, np.float32(0.5)) == want and sigma(lat, 0.5) == want
        assert sigma(lat, 1) == sigma(lat, np.uint8(1))

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

    def test_clenshaw_matches_the_plain_sine_sum(self, lat, rng):
        # the recurrence in cos 2v against coef * sin(v * odd) summed term by
        # term, in and out of the cell
        t = lat.series
        x = 3 * cell_points(lat, rng, 200)
        xr, m, mp = _reduce(lat, x)
        theta = (t.coef * np.sin((np.pi / t.w1 * xr)[..., None] * t.odd)).sum(axis=-1)
        expo = lat.eta / t.w1 * (xr * xr) + (m * lat.eta + mp * lat.eta_prime) * (x + xr)
        pre = t.w1 / (np.pi * t.d1)
        plain = np.where((m + 1) * (mp + 1) % 2, pre, -pre) * np.exp(expo) * theta
        assert np.max(np.abs(sigma(lat, x) - plain) / np.abs(plain)) <= 2e-15

    @pytest.mark.parametrize("tau", [0.3 + 0.7j, 0.1 + 1.3j, 7.3 + 0.9j, 0.5 + 13j, 0.08j])
    def test_sign_matches_the_modulo_parity(self, tau):
        # the exact even test of m + m' + m m' picks the sign (-1)^(m + m' + m m')
        # that (m + 1)(m' + 1) % 2 picked, bit for bit, up to 40 periods out;
        # far out sigma overflows or underflows, so the finite values of both
        # signs are counted too
        lat = lattice_new(1.0, tau)
        rng = np.random.default_rng(11)
        m, mp = rng.integers(-40, 41, (2, 4000))
        x = cell_points(lat, rng, 4000) + 2 * m * lat.omega + 2 * mp * lat.omega_prime
        with np.errstate(all="ignore"):
            got, ref = sigma(lat, x), modulo_parity_sigma(lat, x)
        assert got.tobytes() == ref.tobytes()
        finite = np.isfinite(got) & (got != 0)
        odd = (m + mp + m * mp) % 2 == 1
        assert (finite & odd).sum() > 20 and (finite & ~odd).sum() > 20

    def test_nan_is_silent(self, lat):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(sigma(lat, complex(np.nan, np.nan)))
            assert np.isnan(sigma(lat, np.array([np.nan, 0.1 + 0.2j]))[0])

    def test_stack_is_its_rows(self, lat, rng):
        # stacked builders rely on sigma of a stack equal to sigma of each member
        x = 3 * cell_points(lat, rng, 60).reshape(3, 4, 5)
        got = sigma(lat, x)
        for i in np.ndindex(3, 4):
            assert np.array_equal(got[i], sigma(lat, x[i]))

    def test_call_size_moves_no_value(self, lat, rng):
        # a call past NumPy's 256 KiB in-place temporaries (16,384 complex
        # values) gives each point the value of a small call
        x = 3 * cell_points(lat, rng, 20_000)
        pieces = np.concatenate([sigma(lat, x[i:i + 1000]) for i in range(0, x.size, 1000)])
        assert sigma(lat, x).tobytes() == pieces.tobytes()
        assert sigma(lat, x.reshape(40, 500)).tobytes() == pieces.tobytes()

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
        with pytest.raises(KernelZero):
            zeta_w(lat, 0.0)
        with pytest.raises(KernelZero):
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
        for k in (4, [0, 1, 2], [1, 2, 3, 4], [[1, 2], [3, 4]]):
            with pytest.raises(ValueError):
                sigma_k(lat, 3, k, 0.1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_k_array_is_the_stacked_calls(self, lat, rng, n):
        # a row of points and the monodromy's 3 x 2 grid; with a single
        # point and a single k, numpy forms the exponent in another loop,
        # which may round the last bit differently
        ks = np.arange(1, n + 1)
        for shape in ((n + 1,), (3, 2)):
            x = cell_points(lat, rng, int(np.prod(shape))).reshape(shape)
            stacked = np.stack([sigma_k(lat, n, int(k), x) for k in ks], axis=-1)
            assert np.array_equal(sigma_k(lat, n, ks, x), stacked)


class TestNotNumbers:
    """Every entry point refuses input that is not numbers, where a cast to
    complex reads None as NaN and parses a string, and an index read as a
    number takes bools and fractions."""

    @pytest.mark.parametrize("bad", [None, "0.2", True, [0.2, None]])
    def test_sigma_k_points(self, lat, bad):
        with pytest.raises(TypeError, match="a sigma_k argument must be numbers, not of dtype"):
            sigma_k(lat, 3, 1, bad)

    @pytest.mark.parametrize("bad", [2.5, True, "3", None, np.float64(3.0)])
    def test_sigma_k_size(self, lat, bad):
        with pytest.raises(TypeError, match="N must be an integer"):
            sigma_k(lat, bad, 1, 0.2)

    @pytest.mark.parametrize("bad", [1.5, True, [1.0, 2.0], "1", None, [1, True]])
    def test_sigma_k_indices(self, lat, bad):
        with pytest.raises(TypeError, match="k must be integers, not of dtype"):
            sigma_k(lat, 3, bad, 0.2)

    def test_sigma_k_integers_of_every_kind(self, lat):
        want = sigma_k(lat, 3, 2, 0.2 + 0j)
        assert sigma_k(lat, np.int64(3), np.uint8(2), np.float32(0.2)) == sigma_k(lat, 3, 2, np.float32(0.2))
        assert sigma_k(lat, np.uint8(3), [2], 0.2) == np.array([want])

    @pytest.mark.parametrize("bad", [None, "0.5", True, np.array(0.5, dtype=object)])
    def test_zeta(self, lat, bad):
        with pytest.raises(TypeError, match="a zeta argument must be numbers, not of dtype"):
            zeta_w(lat, bad)

    def test_zeta_takes_one_number(self, lat):
        with pytest.raises(TypeError, match="a zeta argument must be one number, not an array of shape"):
            zeta_w(lat, [0.5])
        want = zeta_w(lat, float(np.float32(0.5)))
        assert zeta_w(lat, np.float32(0.5)) == zeta_w(lat, np.array(0.5, np.float32)) == want

    @pytest.mark.parametrize("bad", ["0.5", True, None])
    def test_lattice_distance(self, lat, bad):
        # a cast to complex would parse "0.5" and read True as 1 and None as NaN
        with pytest.raises(TypeError, match="a lattice_distance argument must be numbers, not of dtype"):
            lattice_distance(lat, bad)

    @pytest.mark.parametrize("bad", [None, "1", True, [1.0]])
    def test_lattice_periods(self, bad):
        with pytest.raises(TypeError, match="omega must be"):
            lattice_new(bad, 0.3 + 0.7j)
        with pytest.raises(TypeError, match="omega_prime must be"):
            lattice_new(1.0, "0.3+0.7j" if bad == "1" else bad)

    def test_lattice_periods_of_every_kind(self):
        want = lattice_new(1.0, 0.3 + 0.7j)
        assert lattice_new(1, np.complex128(0.3 + 0.7j)) == want
        assert lattice_new(np.float32(1.0), np.array(0.3 + 0.7j)) == want


def test_lattice_distance(lat):
    assert lattice_distance(lat, 2 * lat.omega) < 1e-13
    assert abs(lattice_distance(lat, 0.1) - 0.1) < 1e-13
    assert lattice_distance(lat, 1) == lattice_distance(lat, np.uint8(1)) == lattice_distance(lat, 1.0 + 0j)


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
        (0.1 + 5j, "inside", 1e-12),
        (0.1 + 5j, "outside", 1e-12),
        (0.1 + 5j, "near", 1e-12),
        # one period out along omega', sigma underflows double precision
        # (to 0 at -2 omega + 4 omega'), so this lattice is checked in the cell
        (0.5 + 13j, "inside", 1e-12),
    )
]

#: theta-series length of each oracle lattice; 0.1+5i and 0.5+13i reach the
#: shortest recurrences, whose start the longer series do not exercise
SERIES_TERMS = {0.3 + 0.7j: 5, 0.08j: 14, 7.3 + 0.9j: 4, 0.1 + 5j: 2, 0.5 + 13j: 1}


@pytest.mark.parametrize("tau,region,tol", SIGMA_ORACLE_CASES)
def test_sigma_matches_mpmath(tau, region, tol):
    mpmath = pytest.importorskip("mpmath")
    lat = lattice_new(1.0, tau)
    assert len(lat.series.coef) == SERIES_TERMS[tau]
    x = oracle_points(lat, region, np.random.default_rng(5))
    ref = np.array([mp_sigma(mpmath, lat, p) for p in x])
    assert np.all(ref != 0) and np.all(np.isfinite(ref))
    assert np.max(np.abs(sigma(lat, x) - ref) / np.abs(ref)) <= tol


def test_eta_matches_mpmath_on_thin_lattices():
    # every thin lattice lattice_new accepts carries eta to 1e-9 or better;
    # the rest it refuses as cancelling
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(26)
    taus = rng.uniform(-0.5, 0.5, 150) + 1j * 10 ** rng.uniform(-2, -1, 150)
    errors = []
    for tau in taus:
        try:
            lat = lattice_new(1.0, tau)
        except InvalidLattice:
            continue
        with mpmath.workdps(40):
            q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
            ref = complex(-(mpmath.pi**2) / 12 * mpmath.jtheta(1, 0, q, 3) / mpmath.jtheta(1, 0, q, 1))
        errors.append(abs(lat.eta - ref) / abs(ref))
    assert len(errors) == 142 and max(errors) < 1e-9


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
        assert_close(cauchy.frobenius_det(kern, x, y, lam), ref_frobenius_det(lat, x, y, lam))

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_gauss_udl(self, lat, kern, n):
        x, y, lam = instance(kern, n)
        for got, ref in zip(cauchy.gauss_udl(kern, x, y, lam), ref_gauss_udl(lat, x, y, lam)):
            assert_close(got, ref)

    def test_bloch_eval(self, lat, kern, rng):
        poles, _, lam = instance(kern, 4)
        coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        for w in (0.05 + 0.31j, 0.05 + 0.31j + 2 * lat.omega_prime):
            got = cauchy.bloch_eval(lat, poles, coeffs, lam, w)
            assert_close(got, ref_bloch_eval(lat, poles, coeffs, lam, w))
