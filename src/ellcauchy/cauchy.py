"""Cauchy-type matrix builders over a pluggable sigma-like kernel.

A single family of builders (C, D, G, H) is shared by the elliptic,
trigonometric and rational kernels; the kernel supplies the sigma-like
function (Weierstrass sigma, plain sin, or the identity map) together with
the distance-to-nearest-zero used for precondition checks.  Everything
that differs between the variants (those two functions, the factorization
factor and the instance sampler) is one :class:`KernelSpec` record in
``KERNELS``.  The remaining builders (closed determinant and inverse, the
factorization factors, the UDL decomposition, double-Bloch evaluation) are
kernel-specific and follow their defining formulas directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, KernelZero, PoleProximity
from .weierstrass import Lattice, lattice_distance, sigma, sigma_k

#: smallest zero distance of an instance's point differences and parameter
SEP_MIN_DEFAULT = 1e-6

#: denominator arguments closer than this to a kernel zero raise KernelZero
ZERO_TOL = 1e-12


def _points(x):
    """Any array-like of complex points as a 1-d complex array."""
    return np.atleast_1d(np.asarray(x, dtype=complex))


@dataclass(frozen=True)
class KernelSpec:
    """Everything that differs between the kernel variants.

    Each callable takes the kernel's lattice first (the flat kernels ignore
    it).  The callables look the module functions they use up by name at
    call time, so a wrapper installed on a module name (as the benchmark
    tracer in ``perfbench/`` does) sees every call.
    """

    f: Callable  # (lat, z) -> sigma-like values at the complex array z
    zero_distance: Callable  # (lat, z) -> distance from z to the nearest zero of f
    g_factor: Callable  # (lat, x, lam) -> factorization factor g_lam(x)
    points: Callable  # (lat, u, v) -> points, elementwise from uniform [0, 1) draws per coordinate
    lam: Callable  # (lat, u, v) -> parameter from one uniform [0, 1) draw per coordinate
    area: Callable  # lat -> area of the point-sampling region
    stream: int  # first word of the sampler's RNG seed


def _uniform(lo, hi, u):
    """Map uniform [0, 1) draws to [lo, hi) exactly as
    ``Generator.uniform(lo, hi)`` does, draw by draw."""
    return lo + (hi - lo) * u


def _cell_points(lat, u, v):
    """Uniform points in the fundamental cell shrunk to 70 %."""
    return 2 * _uniform(-0.35, 0.35, u) * lat.omega + 2 * _uniform(-0.35, 0.35, v) * lat.omega_prime


#: variant -> its kernel record
KERNELS = {
    "elliptic": KernelSpec(
        f=lambda lat, z: sigma(lat, z),
        zero_distance=lambda lat, z: lattice_distance(lat, z),
        g_factor=lambda lat, x, lam: g_factor_elliptic(lat, x, lam),
        points=_cell_points,
        lam=lambda lat, u, v: complex(_cell_points(lat, u, v)),
        area=lambda lat: 0.49 * abs(np.imag(np.conj(2 * lat.omega) * 2 * lat.omega_prime)),
        stream=0,
    ),
    "trig": KernelSpec(
        f=lambda lat, z: np.sin(z),
        zero_distance=lambda lat, z: np.abs(z - np.pi * np.round(np.real(z) / np.pi)),
        g_factor=lambda lat, x, lam: g_factor_trig(x, lam),
        points=lambda lat, u, v: _uniform(0.0, np.pi, u) + 1j * _uniform(0.0, 0.5, v),
        lam=lambda lat, u, v: complex(_uniform(0.0, np.pi, u) + 1j * _uniform(0.15, 0.6, v)),
        area=lambda lat: np.pi * 0.5,
        stream=1,
    ),
    "rational": KernelSpec(
        f=lambda lat, z: z,
        zero_distance=lambda lat, z: np.abs(z),
        g_factor=lambda lat, x, lam: g_factor_rat(x, lam),
        points=lambda lat, u, v: (
            np.sqrt(_uniform(0.0, 1.0, u)) * np.exp(1j * _uniform(0.0, 2 * np.pi, v))
        ),
        lam=lambda lat, u, v: complex(
            _uniform(0.5, 1.5, u) * np.exp(1j * _uniform(0.0, 2 * np.pi, v))
        ),
        area=lambda lat: np.pi,
        stream=2,
    ),
}


@dataclass(frozen=True)
class Kernel:
    """Sigma-like function selector: elliptic sigma, sin, or identity."""

    variant: str  # a key of KERNELS
    lattice: Lattice | None = None  # read by the elliptic variant only

    def __post_init__(self):
        if self.variant not in KERNELS:
            raise ValueError(f"unknown kernel variant {self.variant!r}")
        if self.variant == "elliptic" and self.lattice is None:
            raise ValueError("elliptic kernel requires a lattice")

    @property
    def spec(self):
        """This variant's :class:`KernelSpec`."""
        return KERNELS[self.variant]

    def __call__(self, z):
        return self.spec.f(self.lattice, np.asarray(z, dtype=complex))

    def zero_distance(self, z):
        """Elementwise distance from z to the nearest zero of the kernel."""
        return self.spec.zero_distance(self.lattice, np.asarray(z, dtype=complex))

    def separation(self, pts):
        """Smallest zero distance of a difference of two points of ``pts``
        (inf for a single point)."""
        pts = np.asarray(pts, dtype=complex)
        d = self.zero_distance(pts[:, None] - pts[None, :])
        np.fill_diagonal(d, np.inf)
        return d.min()


def elliptic_kernel(lat):
    return Kernel("elliptic", lat)


TRIG_KERNEL = Kernel("trig")
RATIONAL_KERNEL = Kernel("rational")


@dataclass(frozen=True, eq=False)
class Instance:
    """One random verification instance: kernel, point sets, parameter.

    The point sets become read-only complex arrays.  No difference of two
    points of their union, and not the parameter, may lie within
    ``SEP_MIN_DEFAULT`` of a kernel zero.
    """

    kernel: Kernel
    x: np.ndarray
    y: np.ndarray
    lam: complex
    z: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        names = ("x", "y") if self.z is None else ("x", "y", "z")
        sets = [np.array(getattr(self, name), dtype=complex, ndmin=1) for name in names]
        for name, pts in zip(names, sets):
            pts.setflags(write=False)
            object.__setattr__(self, name, pts)
        if len(self.x) == 0:
            raise ValueError("point sets must be nonempty")
        if any(len(pts) != len(self.x) for pts in sets):
            raise DimensionMismatch("point sets must have equal size")
        gap = self.kernel.separation(np.concatenate(sets))
        if gap < SEP_MIN_DEFAULT:
            raise ValueError(f"point separation {gap:.3e} below {SEP_MIN_DEFAULT}")
        if self.kernel.zero_distance(self.lam) < SEP_MIN_DEFAULT:
            raise KernelZero("lambda too close to a kernel zero")

    @property
    def n(self):
        return len(self.x)


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


def _lagrange_den(kernel, x, what, fxx=None):
    """Row products prod_{l!=i} f(x_i - x_l) over the points x, from the
    table ``fxx`` = f(x_i - x_l) when the caller has it.  A difference
    x_i - x_l (i != l) at a kernel zero raises :class:`KernelZero`."""
    n = len(x)
    dxx = x[:, None] - x[None, :]
    _require_nonzero(kernel, dxx[~np.eye(n, dtype=bool)], what)
    if fxx is None:
        fxx = kernel(dxx)
    return np.prod(fxx + np.eye(n), axis=1)


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
    i, j = np.triu_indices(len(x), 1)
    num = np.prod(x[i] - x[j]) * np.prod(-(y[i] - y[j]))
    den = np.prod(x[:, None] - y[None, :])
    return complex(num / den)


def d_matrix(kernel, x, y):
    """Diagonal matrix diag( f(x_i-y_i) prod_{k!=i} f(x_i-y_k)/f(x_i-x_k) )."""
    x = _points(x)
    y = _points(y)
    dxy = x[:, None] - y[None, :]
    _require_nonzero(kernel, dxy, "x_i - y_k")
    a, b = _fused(kernel, dxy, x[:, None] - x[None, :])
    return np.diag(np.prod(a, axis=1) / _lagrange_den(kernel, x, "x_i - x_k", b))


def classic_cauchy_inverse(x, y):
    """Closed-form inverse of the classic Cauchy matrix.

    Entrywise: (x_i-y_i)(x_j-y_j)/(x_j-y_i)
    * prod_{k!=i} (y_i-x_k)/(y_i-y_k) * prod_{l!=j} (x_j-y_l)/(x_j-x_l),
    assembled here as D(y,x) C(y,x) D(x,y) with the identity kernel.
    """
    return d_matrix(RATIONAL_KERNEL, y, x) @ classic_cauchy(y, x) @ d_matrix(RATIONAL_KERNEL, x, y)


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
    return d_matrix(kern, y, x) @ cauchy_matrix(kern, y, x, shift) @ d_matrix(kern, x, y)


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
    dxy = x[:, None] - y[None, :]
    row_den = _lagrange_den(RATIONAL_KERNEL, x, "x_i - x_l")
    _require_nonzero(RATIONAL_KERNEL, dxy, "x_i - y_k")
    row_num = np.prod(dxy, axis=1)  # prod over all k
    return (row_num[:, None] / dxy) / row_den[:, None]


def g_factor_elliptic(lat, x, lam):
    """Columns sigma_k(x_i + lam/N) over the Lagrange-type denominator."""
    x = _points(x)
    n = len(x)
    lam = complex(lam)
    den = _lagrange_den(elliptic_kernel(lat), x, "x_i - x_l")
    args = x + lam / n
    cols = [sigma_k(lat, n, k, args) for k in range(1, n + 1)]
    return np.stack(cols, axis=1) / den[:, None]


def g_factor_trig(x, lam):
    """Trigonometric factorization factor.

    Entries phi_k(x_j) / prod_{l!=j} sin(x_j - x_l) with
    phi_k(x) = exp(-i N x) (exp(2ik(x + lam/N)) + (-1)^N delta_{kN}).
    """
    x = _points(x)
    n = len(x)
    lam = complex(lam)
    den = _lagrange_den(TRIG_KERNEL, x, "x_j - x_l")
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
    den = _lagrange_den(RATIONAL_KERNEL, x, "x_j - x_l")
    k = np.arange(1, n + 1)
    exponents = k - 1 + (k == n)
    base = x[:, None] + lam / n
    return base ** exponents[None, :] / den[:, None]


def w_matrix(x):
    """Row-scaled Vandermonde: x_i^(j-1) / prod_{l!=i} (x_i - x_l)."""
    x = _points(x)
    n = len(x)
    den = _lagrange_den(RATIONAL_KERNEL, x, "x_i - x_l")
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
    and exp(2 eta' lam).  Elementwise over ``point``; all points go
    through one sigma call.
    """
    poles = _points(poles)
    coeffs = np.asarray(coeffs, dtype=complex)
    lam = complex(lam)
    point = np.asarray(point, dtype=complex)
    kern = elliptic_kernel(lat)
    _require_nonzero(kern, lam, "lambda")
    diff = point[..., None] - poles
    d = lattice_distance(lat, diff)
    if np.any(d < 1e-10):
        raise PoleProximity(f"evaluation point within {d.min():.3e} of a pole")
    s_num, s_lam, s_diff = _fused(kern, diff + lam, lam, diff)
    psi = (coeffs * s_num / (s_lam * s_diff)).sum(axis=-1)
    return complex(psi) if point.ndim == 0 else psi


def bloch_transport(lat, x, y, lam, coeffs):
    """Transport pole-expansion coefficients from poles x to poles y.

    Returns b = G_lam(y, x) c; the transported expansion carries the
    shifted parameter lam - X + Y.
    """
    return g_matrix(elliptic_kernel(lat), y, x, lam) @ np.asarray(coeffs, dtype=complex)
