"""Cauchy-type matrix builders over a pluggable sigma-like kernel.

A single family of builders (C, D, G, H) is shared by the elliptic,
trigonometric and rational kernels; the kernel supplies the sigma-like
function (Weierstrass sigma, plain sin, or the identity map) together with
the distance-to-nearest-zero used for precondition checks.  The remaining
builders (closed determinant and inverse, the factorization factors, the
UDL decomposition, double-Bloch evaluation) are kernel-specific and follow
their defining formulas directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, KernelZero, PoleProximity
from .weierstrass import Lattice, lattice_distance, sigma, sigma_k

#: default minimum pairwise separation for point sets
SEP_MIN_DEFAULT = 1e-6

#: denominator arguments closer than this to a kernel zero raise KernelZero
ZERO_TOL = 1e-12


@dataclass(frozen=True)
class PointSet:
    """Ordered set of pairwise-distinct complex points."""

    points: tuple
    label: str | None = None

    def __post_init__(self):
        pts = tuple(complex(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        n = len(pts)
        if n == 0:
            raise ValueError("PointSet must be nonempty")
        arr = np.asarray(pts)
        if n > 1:
            d = np.abs(arr[:, None] - arr[None, :])
            np.fill_diagonal(d, np.inf)
            if d.min() < SEP_MIN_DEFAULT:
                raise ValueError(f"points not pairwise distinct (min gap {d.min():.3e})")

    @property
    def n(self):
        return len(self.points)

    @property
    def array(self):
        return np.asarray(self.points, dtype=complex)

    @property
    def total(self):
        return complex(sum(self.points))


def _points(x):
    """Accept a PointSet or any array-like of complex points."""
    if isinstance(x, PointSet):
        return x.array
    return np.atleast_1d(np.asarray(x, dtype=complex))


@dataclass(frozen=True)
class Kernel:
    """Sigma-like function selector: elliptic sigma, sin, or identity."""

    variant: str  # "elliptic" | "trig" | "rational"
    lattice: Lattice | None = None

    def __post_init__(self):
        if self.variant not in ("elliptic", "trig", "rational"):
            raise ValueError(f"unknown kernel variant {self.variant!r}")
        if self.variant == "elliptic" and self.lattice is None:
            raise ValueError("elliptic kernel requires a lattice")

    def __call__(self, z):
        if self.variant == "elliptic":
            return sigma(self.lattice, z)
        if self.variant == "trig":
            return np.sin(np.asarray(z, dtype=complex))
        return np.asarray(z, dtype=complex)

    def zero_distance(self, z):
        """Elementwise distance from z to the nearest zero of the kernel."""
        z = np.asarray(z, dtype=complex)
        if self.variant == "elliptic":
            return lattice_distance(self.lattice, z)
        if self.variant == "trig":
            return np.abs(z - np.pi * np.round(np.real(z) / np.pi))
        return np.abs(z)


def elliptic_kernel(lat):
    return Kernel("elliptic", lat)


TRIG_KERNEL = Kernel("trig")
RATIONAL_KERNEL = Kernel("rational")


@dataclass(frozen=True)
class Instance:
    """One random verification instance: kernel, point sets, parameter."""

    kernel: Kernel
    x: PointSet
    y: PointSet
    lam: complex
    z: PointSet | None = None
    seed: int = 0
    sep_min: float = SEP_MIN_DEFAULT

    def __post_init__(self):
        sets = [self.x, self.y] + ([self.z] if self.z is not None else [])
        n = self.x.n
        if any(s.n != n for s in sets):
            raise DimensionMismatch("point sets must have equal size")
        for a in range(len(sets)):
            for b in range(a + 1, len(sets)):
                da = sets[a].array
                db = sets[b].array
                gap = self.kernel.zero_distance(da[:, None] - db[None, :]).min()
                if gap < self.sep_min:
                    raise ValueError(f"cross-set separation {gap:.3e} below {self.sep_min}")
        if self.kernel.zero_distance(self.lam) < self.sep_min:
            raise KernelZero("lambda too close to a kernel zero")

    @property
    def n(self):
        return self.x.n


def _fused(f, *args):
    """Evaluate f once over several argument arrays; one result per argument,
    each in its argument's shape."""
    args = [np.asarray(a, dtype=complex) for a in args]
    vals = f(np.concatenate([a.ravel() for a in args]))
    out, start = [], 0
    for a in args:
        out.append(vals[start:start + a.size].reshape(a.shape))
        start += a.size
    return out


def _require_nonzero(kernel, args, what):
    d = kernel.zero_distance(args)
    if np.any(d < ZERO_TOL):
        raise KernelZero(f"{what} hits a kernel zero")


def cauchy_matrix(kernel, x, y, lam):
    """Cauchy matrix f(x_i - y_j + lam) / (f(lam) f(x_i - y_j))."""
    x = _points(x)
    y = _points(y)
    lam = complex(lam)
    diff = x[:, None] - y[None, :]
    _require_nonzero(kernel, diff, "x_i - y_j")
    _require_nonzero(kernel, lam, "lambda")
    num, f_lam, f_diff = _fused(kernel, diff + lam, lam, diff)
    return num / (f_lam * f_diff)


def cauchy_matrix_inst(inst):
    return cauchy_matrix(inst.kernel, inst.x, inst.y, inst.lam)


def classic_cauchy(x, y):
    """The classic matrix with entries 1 / (x_i - y_j)."""
    x = _points(x)
    y = _points(y)
    diff = x[:, None] - y[None, :]
    _require_nonzero(RATIONAL_KERNEL, diff, "x_i - y_j")
    return 1.0 / diff


def classic_cauchy_det(x, y):
    """Closed-form determinant of the classic Cauchy matrix."""
    x = _points(x)
    y = _points(y)
    n = len(x)
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    upper = np.triu_indices(n, 1)
    num = np.prod(dx[upper]) * np.prod(-dy[upper])
    den = np.prod(x[:, None] - y[None, :])
    return complex(num / den)


def d_matrix(kernel, x, y):
    """Diagonal matrix diag( f(x_i-y_i) prod_{k!=i} f(x_i-y_k)/f(x_i-x_k) )."""
    x = _points(x)
    y = _points(y)
    n = len(x)
    dxy = x[:, None] - y[None, :]
    _require_nonzero(kernel, dxy, "x_i - y_k")
    a, b = _fused(kernel, dxy, x[:, None] - x[None, :])
    b = b + np.eye(n)  # diagonal placeholder 1
    if n > 1:
        off = ~np.eye(n, dtype=bool)
        if np.abs(b[off]).min() < ZERO_TOL:
            raise KernelZero("x_i - x_k hits a kernel zero")
    d = np.prod(a, axis=1) / np.prod(b, axis=1)
    return np.diag(d)


def classic_cauchy_inverse(x, y):
    """Closed-form inverse of the classic Cauchy matrix.

    Entrywise: (x_i-y_i)(x_j-y_j)/(x_j-y_i)
    * prod_{k!=i} (y_i-x_k)/(y_i-y_k) * prod_{l!=j} (x_j-y_l)/(x_j-x_l),
    assembled here as D(y,x) C(y,x) D(x,y) with the identity kernel.
    """
    dyx = d_matrix(RATIONAL_KERNEL, y, x)
    dxy = d_matrix(RATIONAL_KERNEL, x, y)
    return dyx @ classic_cauchy(y, x) @ dxy


def frobenius_det(lat, x, y, lam):
    """Closed-form determinant of the elliptic Cauchy matrix.

    sigma(lam + X - Y)/sigma(lam)
    * prod_{a<b} sigma(x_a-x_b) sigma(y_b-y_a) / prod_{a,b} sigma(x_a-y_b)
    with X, Y the point-set sums.
    """
    x = _points(x)
    y = _points(y)
    n = len(x)
    lam = complex(lam)
    shift = lam + x.sum() - y.sum()
    kern = elliptic_kernel(lat)
    _require_nonzero(kern, lam, "lambda")
    _require_nonzero(kern, shift, "lambda + X - Y")
    i, j = np.triu_indices(n, 1)
    s_shift, s_lam, dx, dy, dxy = _fused(
        kern, shift, lam, x[i] - x[j], y[i] - y[j], x[:, None] - y[None, :]
    )
    num = np.prod(dx) * np.prod(-dy)  # sigma(y_b - y_a) = -sigma(y_a - y_b)
    return complex(s_shift / s_lam * num / np.prod(dxy))


def cauchy_inverse_closed(lat, x, y, lam):
    """Closed-form inverse of the elliptic Cauchy matrix.

    Entrywise:
    sigma(y_i-x_j+lam+X-Y)/sigma(lam+X-Y)
    * sigma(x_i-y_i) sigma(x_j-y_j)/sigma(x_j-y_i)
    * prod_{k!=i} sigma(y_i-x_k)/sigma(y_i-y_k)
    * prod_{l!=j} sigma(x_j-y_l)/sigma(x_j-x_l),
    assembled as D(y,x) C(y,x; lam+X-Y) D(x,y), which is what the product
    identity yields for the inverse.
    """
    x = _points(x)
    y = _points(y)
    lam = complex(lam)
    shift = lam + x.sum() - y.sum()
    kern = elliptic_kernel(lat)
    _require_nonzero(kern, shift, "lambda + X - Y")
    dyx = d_matrix(kern, y, x)
    dxy = d_matrix(kern, x, y)
    return dyx @ cauchy_matrix(kern, y, x, shift) @ dxy


def g_matrix(kernel, x, y, lam):
    """G_lam(x, y) = D(x, y) C(x, y; lam)."""
    return d_matrix(kernel, x, y) @ cauchy_matrix(kernel, x, y, lam)


def h_matrix(kernel, x, y, lam):
    """H_lam(x, y) = C(x, y; lam) D(y, x)."""
    return cauchy_matrix(kernel, x, y, lam) @ d_matrix(kernel, y, x)


def k_matrix(x, y):
    """Large-parameter limit of the rational G matrix.

    K_ij = prod_{k!=j} (x_i - y_k) / prod_{l!=i} (x_i - x_l).
    """
    x = _points(x)
    y = _points(y)
    n = len(x)
    dxy = x[:, None] - y[None, :]
    dxx = x[:, None] - x[None, :] + np.eye(n)
    if n > 1:
        off = ~np.eye(n, dtype=bool)
        if np.abs(dxx[off]).min() < ZERO_TOL:
            raise KernelZero("x_i - x_l vanishes")
    if np.abs(dxy).min() < ZERO_TOL:
        raise KernelZero("x_i - y_k vanishes")
    row_num = np.prod(dxy, axis=1)  # prod over all k
    row_den = np.prod(dxx, axis=1)
    return (row_num[:, None] / dxy) / row_den[:, None]


def g_factor_elliptic(lat, x, lam):
    """Columns sigma_k(x_i + lam/N) over the Lagrange-type denominator."""
    x = _points(x)
    n = len(x)
    lam = complex(lam)
    dxx = sigma(lat, x[:, None] - x[None, :] + 0j) + np.eye(n)
    if n > 1:
        off = ~np.eye(n, dtype=bool)
        if np.abs(dxx[off]).min() < ZERO_TOL:
            raise KernelZero("x_i - x_l hits a lattice point")
    den = np.prod(dxx, axis=1)
    g = np.empty((n, n), dtype=complex)
    args = x + lam / n
    for k in range(1, n + 1):
        g[:, k - 1] = sigma_k(lat, n, k, args) / den
    return g


def g_factor_trig(x, lam):
    """Trigonometric factorization factor.

    Entries phi_k(x_j) / prod_{l!=j} sin(x_j - x_l) with
    phi_k(x) = exp(-i N x) (exp(2ik(x + lam/N)) + (-1)^N delta_{kN}).
    """
    x = _points(x)
    n = len(x)
    lam = complex(lam)
    dxx = np.sin(x[:, None] - x[None, :]) + np.eye(n)
    if n > 1:
        off = ~np.eye(n, dtype=bool)
        if np.abs(dxx[off]).min() < ZERO_TOL:
            raise KernelZero("x_j - x_l coincide mod pi")
    den = np.prod(dxx, axis=1)
    k = np.arange(1, n + 1)
    phi = np.exp(-1j * n * x[:, None]) * (
        np.exp(2j * k[None, :] * (x[:, None] + lam / n))
        + (-1.0) ** n * (k[None, :] == n)
    )
    return phi / den[:, None]


def g_factor_rat(x, lam):
    """Rational factorization factor.

    Entries (x_j + lam/N)^(k-1+delta_{kN}) / prod_{l!=j} (x_j - x_l);
    the top column degree skips from N-2 to N.
    """
    x = _points(x)
    n = len(x)
    lam = complex(lam)
    dxx = x[:, None] - x[None, :] + np.eye(n)
    if n > 1:
        off = ~np.eye(n, dtype=bool)
        if np.abs(dxx[off]).min() < ZERO_TOL:
            raise KernelZero("x_j - x_l vanishes")
    den = np.prod(dxx, axis=1)
    k = np.arange(1, n + 1)
    exponents = k - 1 + (k == n)
    base = x[:, None] + lam / n
    return base ** exponents[None, :] / den[:, None]


def w_matrix(x):
    """Row-scaled Vandermonde: x_i^(j-1) / prod_{l!=i} (x_i - x_l)."""
    x = _points(x)
    n = len(x)
    dxx = x[:, None] - x[None, :] + np.eye(n)
    if n > 1:
        off = ~np.eye(n, dtype=bool)
        if np.abs(dxx[off]).min() < ZERO_TOL:
            raise KernelZero("x_i - x_l vanishes")
    den = np.prod(dxx, axis=1)
    j = np.arange(n)
    return x[:, None] ** j[None, :] / den[:, None]


def gauss_lambda_ladder(x, y, lam):
    """lambda_j = lam + sum_{l>j} (x_l - y_l), with lambda_N = lam."""
    x = _points(x)
    y = _points(y)
    tail = np.concatenate([np.cumsum((x - y)[::-1])[::-1][1:], [0.0]])
    return lam + tail


def gauss_udl(lat, x, y, lam):
    """Triangular decomposition C = U D L of the elliptic Cauchy matrix.

    U is unit upper triangular, L unit lower triangular, D diagonal; the
    entries carry the parameter ladder lambda_j = lam + sum_{l>j}(x_l-y_l)
    and all products over l from j+1 to N equal 1 at j = N.
    """
    x = _points(x)
    y = _points(y)
    n = len(x)
    lam = complex(lam)
    lams = gauss_lambda_ladder(x, y, lam)
    kern = elliptic_kernel(lat)
    _require_nonzero(kern, lams, "lambda_j ladder")
    _require_nonzero(kern, x - y + lams, "x_j - y_j + lambda_j")

    dxy = x[:, None] - y[None, :]
    sxx, sxy, syx, syy, sxy_lam, sxj_yk_lj, s_lams = _fused(
        kern,
        x[:, None] - x[None, :],
        dxy,
        y[:, None] - x[None, :],
        y[:, None] - y[None, :],
        dxy + lams[None, :],  # sigma(x_i - y_j + lam_j)
        dxy + lams[:, None],  # sigma(x_j - y_k + lam_j)
        lams,
    )
    sxx = sxx + np.eye(n)
    syy = syy + np.eye(n)

    # suffix products: r[i, j] = prod_{l > j} sxx[i, l] / sxy[i, l]
    def suffix(num, den):
        ratio = num / den
        out = np.ones((n, n), dtype=complex)
        for j in range(n - 2, -1, -1):
            out[:, j] = out[:, j + 1] * ratio[:, j + 1]
        return out

    r_u = suffix(sxx, sxy)  # for U
    r_l = suffix(syy, syx)  # for L
    diag_xy = np.diag(sxy)
    diag_lam = np.diag(sxy_lam)

    u = sxy_lam * diag_xy[None, :] / (diag_lam[None, :] * sxy) * r_u / np.diag(r_u)[None, :]
    u = np.triu(u)
    l = sxj_yk_lj * diag_xy[:, None] / (diag_lam[:, None] * sxy) * (r_l.T / np.diag(r_l)[:, None])
    l = np.tril(l)
    d_suffix = np.diag(r_u) * np.diag(r_l)  # prod_{l>j} sxx syy / (sxy syx) per row j
    d = np.diag(diag_lam / (s_lams * diag_xy) * d_suffix)
    return u, d, l


def bloch_eval(lat, poles, coeffs, lam, point):
    """Evaluate a double-Bloch function from its pole expansion.

    psi(w) = sum_i c_i sigma(w - x_i + lam) / (sigma(lam) sigma(w - x_i));
    under full-period shifts psi picks up the multipliers exp(2 eta lam)
    and exp(2 eta' lam).
    """
    poles = _points(poles)
    coeffs = np.asarray(coeffs, dtype=complex)
    lam = complex(lam)
    point = complex(point)
    kern = elliptic_kernel(lat)
    _require_nonzero(kern, lam, "lambda")
    d = lattice_distance(lat, point - poles)
    if np.any(d < 1e-10):
        raise PoleProximity(f"evaluation point within {d.min():.3e} of a pole")
    diff = point - poles
    s_num, s_lam, s_diff = _fused(kern, diff + lam, lam, diff)
    terms = coeffs * s_num / (s_lam * s_diff)
    return complex(terms.sum())


def bloch_transport(lat, x, y, lam, coeffs):
    """Transport pole-expansion coefficients from poles x to poles y.

    Returns b = G_lam(y, x) c; the transported expansion carries the
    shifted parameter lam - X + Y.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    g = g_matrix(elliptic_kernel(lat), y, x, lam)
    return g @ coeffs
