"""Exact ground truth for the rational kernel f(z) = z.

A sampled instance's points and parameter are doubles, that is dyadic
rationals, so the matrices the suite checks have exact entries in the
Gaussian rationals.  Here they are formed with ``fractions.Fraction``: the
Cauchy matrix C(x, y; lam), its Frobenius determinant and its closed
inverse, with no rounding, for the very instances the suite samples.  Exact
elimination must give the Frobenius form, C times the closed inverse must
be exactly I, and the float ``frobenius_det`` must lie within 1e-14 of the
exact value, relatively.
"""

from fractions import Fraction

import pytest

from ellcauchy import Kernel, SuiteConfig, frobenius_det, random_instance


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
    """The suite's rational instances of N = 1..6 at seeds 42..46, exact."""
    cfg = SuiteConfig()
    kern = Kernel("rational", cfg.lattice())
    out = []
    for n in range(1, 7):
        stack = random_instance(cfg, kern, n, list(range(42, 47)))
        for b in range(len(stack.seed)):
            inst = stack.member(b)
            exact = [Gaussian.of(v) for v in inst.x], [Gaussian.of(v) for v in inst.y], Gaussian.of(inst.lam)
            out.append((inst, *exact))
    return out


def test_elimination_gives_the_frobenius_form(instances):
    for inst, x, y, lam in instances:
        assert det_by_elimination(cauchy_exact(x, y, lam)) == frobenius_exact(x, y, lam), (inst.n, inst.seed)


def test_closed_inverse_is_exact(instances):
    for inst, x, y, lam in instances:
        c, inv = cauchy_exact(x, y, lam), inverse_exact(x, y, lam)
        n = len(x)
        for i in range(n):
            for j in range(n):
                entry = sum((c[i][k] * inv[k][j] for k in range(n)), ZERO)
                assert entry == (ONE if i == j else ZERO), (inst.n, inst.seed, i, j)


def test_float_determinant_within_1e_14(instances):
    for inst, x, y, lam in instances:
        exact = frobenius_exact(x, y, lam)
        err = Gaussian.of(frobenius_det(inst.kernel, inst.x, inst.y, inst.lam)) - exact
        # |err| <= 1e-14 |exact|, compared exactly in squares
        assert err.abs2() <= Fraction(1, 10**28) * exact.abs2(), (inst.n, inst.seed)
