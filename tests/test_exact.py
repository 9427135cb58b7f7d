"""Exact ground truth for the rational kernel f(z) = z and the trigonometric
f(z) = sin z.

A sampled instance's points and parameter are doubles, that is dyadic
rationals, so the matrices the suite checks have exact entries in the
Gaussian rationals.  Here they are formed with ``fractions.Fraction``, with
no rounding, for the very instances the suite samples: the Cauchy matrix
C(x, y; lam), its Frobenius determinant and its closed inverse, G_lam(x, y)
= D(x, y) C(x, y; lam), the factorization factor g_lam and the
parameter-free K and W.  Exact elimination must give the Frobenius form, C
times the closed inverse must be exactly I, and every product and
factorization identity the suite runs on the rational kernel, under both
its tags, must hold with residual exactly 0.  The float ``frobenius_det``
must lie within 1e-14 of the exact value, relatively, and the float G, g,
K and W within 1e-13 of their largest exact entry.

The trigonometric kernel f(z) = sin z is rational too, in X = e^{2ix}, Y,
Z and Lambda = e^{2i lam/N}, up to one square-root factor per matrix:
sqrt(prod X / prod Y) = e^{i(X_sum - Y_sum)} for G_lam(x, y) and sqrt(prod X)
for the factor g_lam(x).  With it divided out, the product and the
factorization identity must hold exactly on Gaussian-rational draws, where
lam + Y_sum maps to L prod Y with L = Lambda^N = e^{2i lam}.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from ellcauchy import TRIG_KERNEL, Kernel, SuiteConfig, cauchy, frobenius_det, random_instance


class Gaussian:
    """An exact complex rational re + i im."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @classmethod
    def of(cls, z):
        """The exact value of a double ``z``."""
        z = complex(z)
        return cls(z.real, z.imag)

    def __add__(self, o):
        return Gaussian(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return Gaussian(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return Gaussian(-self.re, -self.im)

    def __mul__(self, o):
        return Gaussian(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        den = o.abs2()
        return Gaussian((self.re * o.re + self.im * o.im) / den, (self.im * o.re - self.re * o.im) / den)

    def __eq__(self, o):
        return self.re == o.re and self.im == o.im

    def abs2(self):
        return self.re * self.re + self.im * self.im


ZERO, ONE = Gaussian(0), Gaussian(1)


def product(values):
    out = ONE
    for v in values:
        out = out * v
    return out


def matmul(a, b):
    return [[sum((a_i[k] * b[k][j] for k in range(len(b))), ZERO) for j in range(len(b[0]))] for a_i in a]


def lagrange_exact(x):
    """The row denominators prod_{l!=i} f(x_i - x_l)."""
    return [product(xi - xl for l, xl in enumerate(x) if l != i) for i, xi in enumerate(x)]


def cauchy_exact(x, y, lam):
    """C_ij = f(x_i - y_j + lam) / (f(lam) f(x_i - y_j))."""
    return [[(xi - yj + lam) / (lam * (xi - yj)) for yj in y] for xi in x]


def frobenius_exact(x, y, lam):
    """f(lam + X - Y)/f(lam) * prod_{a<b} f(x_a - x_b) f(y_b - y_a) / prod_{a,b} f(x_a - y_b)."""
    n = len(x)
    shift = lam + sum(x, ZERO) - sum(y, ZERO)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    num = shift * product((x[a] - x[b]) * (y[b] - y[a]) for a, b in pairs)
    return num / (lam * product(xa - yb for xa in x for yb in y))


def inverse_exact(x, y, lam):
    """D(y, x) C(y, x; mu) D(x, y) with mu = lam + X - Y, entry by entry."""
    n = len(x)
    mu = lam + sum(x, ZERO) - sum(y, ZERO)
    d_yx = [(y[i] - x[i]) * product((y[i] - x[k]) / (y[i] - y[k]) for k in range(n) if k != i) for i in range(n)]
    d_xy = [(x[j] - y[j]) * product((x[j] - y[l]) / (x[j] - x[l]) for l in range(n) if l != j) for j in range(n)]
    c = cauchy_exact(y, x, mu)
    return [[d_yx[i] * c[i][j] * d_xy[j] for j in range(n)] for i in range(n)]


def g_exact(x, y, lam):
    """G_lam(x, y) = D(x, y) C(x, y; lam), with D(x, y)_ii =
    prod_k f(x_i - y_k) / prod_{l!=i} f(x_i - x_l)."""
    d = [product(xi - yk for yk in y) / den for xi, den in zip(x, lagrange_exact(x))]
    return [[d_i * c_ij for c_ij in c_i] for d_i, c_i in zip(d, cauchy_exact(x, y, lam))]


def g_factor_exact(x, lam):
    """g_lam(x)_ik = (x_i + lam/N)^(k-1+delta_kN) / prod_{l!=i} f(x_i - x_l), k = 1..N."""
    n = len(x)
    shift = Gaussian(lam.re / n, lam.im / n)
    return [
        [product([xi + shift] * (k - 1 + (k == n))) / den for k in range(1, n + 1)]
        for xi, den in zip(x, lagrange_exact(x))
    ]


def k_exact(x, y):
    """K_ij = prod_{k!=j} f(x_i - y_k) / prod_{l!=i} f(x_i - x_l)."""
    return [
        [product(xi - yk for k, yk in enumerate(y) if k != j) / den for j in range(len(y))]
        for xi, den in zip(x, lagrange_exact(x))
    ]


def w_exact(x):
    """W_ij = x_i^(j-1) / prod_{l!=i} f(x_i - x_l)."""
    return [[product([xi] * j) / den for j in range(len(x))] for xi, den in zip(x, lagrange_exact(x))]


def det_by_elimination(a):
    """Determinant by exact Gaussian elimination, on the first nonzero pivot."""
    a = [row[:] for row in a]
    n, det = len(a), ONE
    for k in range(n):
        p = next((r for r in range(k, n) if a[r][k] != ZERO), None)
        if p is None:
            return ZERO
        if p != k:
            a[k], a[p], det = a[p], a[k], -det
        det = det * a[k][k]
        for r in range(k + 1, n):
            m = a[r][k] / a[k][k]
            a[r] = [a[r][c] - m * a[k][c] for c in range(n)]
    return det


@pytest.fixture(scope="module")
def instances():
    """The suite's rational instances of N = 1..6 at seeds 42..46, each with
    its x, y, z and lam exact."""
    cfg = SuiteConfig()
    kern = Kernel("rational", cfg.lattice())
    out = []
    for n in range(1, 7):
        stack = random_instance(cfg, kern, n, list(range(42, 47)))
        for b in range(len(stack.seed)):
            inst = stack.member(b)
            sets = ([Gaussian.of(v) for v in pts] for pts in (inst.x, inst.y, inst.z))
            out.append((inst, *sets, Gaussian.of(inst.lam)))
    return out


def test_elimination_gives_the_frobenius_form(instances):
    for inst, x, y, _, lam in instances:
        assert det_by_elimination(cauchy_exact(x, y, lam)) == frobenius_exact(x, y, lam), (inst.n, inst.seed)


def test_closed_inverse_is_exact(instances):
    for inst, x, y, _, lam in instances:
        c, inv = cauchy_exact(x, y, lam), inverse_exact(x, y, lam)
        n = len(x)
        for i in range(n):
            for j in range(n):
                entry = sum((c[i][k] * inv[k][j] for k in range(n)), ZERO)
                assert entry == (ONE if i == j else ZERO), (inst.n, inst.seed, i, j)


def test_float_determinant_within_1e_14(instances):
    for inst, x, y, _, lam in instances:
        exact = frobenius_exact(x, y, lam)
        err = Gaussian.of(frobenius_det(inst.kernel, inst.x, inst.y, inst.lam)) - exact
        # |err| <= 1e-14 |exact|, compared exactly in squares
        assert err.abs2() <= Fraction(1, 10**28) * exact.abs2(), (inst.n, inst.seed)


@pytest.fixture(scope="module")
def products(instances):
    """Each instance's exact G, g, K and W, formed once for the tests below."""
    out = []
    for inst, x, y, z, lam in instances:
        lam_y, lam_z = lam + sum(y, ZERO), lam + sum(z, ZERO)
        out.append((inst, {
            "G_xy": g_exact(x, y, lam_y), "G_yz": g_exact(y, z, lam_z), "G_xz": g_exact(x, z, lam_z),
            "g_x": g_factor_exact(x, lam), "g_y": g_factor_exact(y, lam),
            "K_xy": k_exact(x, y), "K_yz": k_exact(y, z), "K_xz": k_exact(x, z),
            "W_x": w_exact(x), "W_y": w_exact(y),
        }))
    return out


@pytest.mark.parametrize("a, b, r", [
    ("G_xy", "G_yz", "G_xz"),  # G_{lam+Y}(x,y) G_{lam+Z}(y,z) = G_{lam+Z}(x,z)
    ("G_xy", "g_y", "g_x"),  # G_{lam+Y}(x,y) g_lam(y) = g_lam(x)
    ("K_xy", "K_yz", "K_xz"),  # K(x,y) K(y,z) = K(x,z)
    ("K_xy", "W_y", "W_x"),  # K(x,y) W(y) = W(x)
])
def test_identity_is_exact(products, a, b, r):
    for inst, exact in products:
        assert matmul(exact[a], exact[b]) == exact[r], (inst.n, inst.seed)


def test_float_builders_within_1e_13(products):
    # the exact forms above are the package's G, g, K and W
    for inst, exact in products:
        kern, x, y, lam = inst.kernel, inst.x, inst.y, inst.lam
        floats = {
            "G_xy": cauchy.g_matrix(kern, x, y, lam + y.sum()),
            "g_x": cauchy.g_factor(kern, x, lam),
            "K_xy": cauchy.k_matrix(x, y),
            "W_x": cauchy.w_matrix(x),
        }
        for name, got in floats.items():
            scale = max(v.abs2() for row in exact[name] for v in row)
            for got_row, exact_row in zip(got, exact[name]):
                for g, e in zip(got_row, exact_row):
                    assert (Gaussian.of(g) - e).abs2() <= Fraction(1, 10**26) * scale, (inst.n, inst.seed, name)


def trig_g_exact(x, y, m):
    """G_mu(x, y) for f = sin over sqrt(prod X / prod Y), with M = e^{2i mu}:
    D(x, y)_ii = prod_k (X_i - Y_k) / (2i X_i prod_{l!=i} (X_i - X_l)) and
    C(x, y; mu)_ij = 2i (X_i M - Y_j) / ((M - 1)(X_i - Y_j))."""
    return [
        [product(xi - yk for yk in y) * (xi * m - yj) / (xi * den * (m - ONE) * (xi - yj)) for yj in y]
        for xi, den in zip(x, lagrange_exact(x))
    ]


def trig_g_factor_exact(x, lam_n):
    """g_lam(x) for f = sin over sqrt(prod X), with Lambda = e^{2i lam/N}:
    (2i)^(N-1) ((X_i Lambda)^k + (-1)^N delta_kN) / (X_i prod_{l!=i} (X_i - X_l))."""
    n = len(x)
    scale, top = product([Gaussian(0, 2)] * (n - 1)), Gaussian((-1) ** n)
    return [
        [scale * (product([xi * lam_n] * k) + (top if k == n else ZERO)) / (xi * den) for k in range(1, n + 1)]
        for xi, den in zip(x, lagrange_exact(x))
    ]


def gaussian_draw(rnd, lo2, hi2, power=1):
    """A Gaussian rational with denominator 64 whose power-th power has a
    squared modulus in [lo2, hi2]."""
    while True:
        z = Gaussian(Fraction(rnd.randint(-64, 64), 64), Fraction(rnd.randint(-64, 64), 64))
        if lo2 <= product([z] * power).abs2() <= hi2:
            return z


@pytest.fixture(scope="module")
def trig_instances():
    """Five seeded draws for each N = 1..6 of three sets of N distinct
    points X, Y, Z with |X| in 0.37..1, as e^{2ix} of the trig strip's x,
    and Lambda with |L| = |Lambda|^N in 0.3..0.74, as e^{2i lam} of its lam."""
    out = []
    for n in range(1, 7):
        for seed in range(5):
            rnd = random.Random(100 * n + seed)
            while True:
                pts = [gaussian_draw(rnd, Fraction(37, 100) ** 2, 1) for _ in range(3 * n)]
                if len({(p.re, p.im) for p in pts}) == 3 * n:
                    break
            lam_n = gaussian_draw(rnd, Fraction(3, 10) ** 2, Fraction(74, 100) ** 2, n)
            out.append((n, seed, pts[:n], pts[n:2 * n], pts[2 * n:], lam_n))
    return out


@pytest.fixture(scope="module")
def trig_products(trig_instances):
    """Each draw's G_{lam+Y}(x, y), G_{lam+Z}(y, z), G_{lam+Z}(x, z), g(x) and
    g(y), each over its square-root factor."""
    out = []
    for n, seed, x, y, z, lam_n in trig_instances:
        l = product([lam_n] * n)
        l_y, l_z = l * product(y), l * product(z)
        out.append(((n, seed), {
            "G_xy": trig_g_exact(x, y, l_y), "G_yz": trig_g_exact(y, z, l_z), "G_xz": trig_g_exact(x, z, l_z),
            "g_x": trig_g_factor_exact(x, lam_n), "g_y": trig_g_factor_exact(y, lam_n),
        }))
    return out


@pytest.mark.parametrize("a, b, r", [
    ("G_xy", "G_yz", "G_xz"),  # G_{lam+Y}(x,y) G_{lam+Z}(y,z) = G_{lam+Z}(x,z)
    ("G_xy", "g_y", "g_x"),  # G_{lam+Y}(x,y) g_lam(y) = g_lam(x)
])
def test_trig_identity_is_exact(trig_products, a, b, r):
    for key, exact in trig_products:
        assert matmul(exact[a], exact[b]) == exact[r], key


def test_trig_forms_are_the_builders(trig_instances, trig_products):
    # the exact forms times their square-root factor are the package's float
    # G and g at x = -i log(X) / 2 and lam = -i N log(Lambda) / 2
    for (n, seed, x, y, _, lam_n), (key, exact) in zip(trig_instances, trig_products):
        xf, yf = (np.log([complex(p.re, p.im) for p in pts]) / 2j for pts in (x, y))
        lam = n * np.log(complex(lam_n.re, lam_n.im)) / 2j
        floats = {
            "G_xy": (cauchy.g_matrix(TRIG_KERNEL, xf, yf, lam + yf.sum()), np.exp(1j * (xf.sum() - yf.sum()))),
            "g_x": (cauchy.g_factor(TRIG_KERNEL, xf, lam), np.exp(1j * xf.sum())),
        }
        for name, (got, root) in floats.items():
            want = root * np.array([[complex(v.re, v.im) for v in row] for row in exact[name]])
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (key, name)
