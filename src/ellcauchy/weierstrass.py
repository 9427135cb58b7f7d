"""Weierstrass sigma and zeta functions over a period lattice.

The lattice is generated by 2*omega and 2*omega_prime with
Im(omega_prime/omega) > 0.  Sigma is evaluated through the first Jacobi
theta function

    sigma(x) = (2 omega / pi) * exp(eta x^2 / (2 omega))
               * theta1(pi x / (2 omega), q) / theta1'(0, q),
    theta1(v, q) = 2 sum_{n>=0} (-1)^n q^{(n+1/2)^2} sin((2n+1) v),

with q = exp(i pi omega_prime/omega).  Every evaluation first splits
x = x_red + 2m*omega + 2m'*omega_prime with x_red in the fundamental cell
and re-applies the quasi-periodicity factors afterwards; sigma takes their
sign (-1)^(m + m' + m m') from an exact float test of whether that whole
number is even, with no float modulo.

:func:`lattice_new` builds a per-lattice series table once, into the
:class:`Lattice`: the coefficients 2(-1)^n q^{(n+1/2)^2} and theta1'(0).
In the fundamental cell, term n of the theta1 series is at most |q|^{n^2}
times term 0, so the table keeps a fixed number of terms: the smallest K
with |q|^{K^2} (2K+1)^3 below ``SERIES_TOL``, the cube covering the
weights of the theta1'''(0) sum.  A sigma call then costs one cell
reduction, one sin and one exp per point, and the K - 1 multiply-adds of
a Clenshaw recurrence in cos 2v, over slabs of at most 8,192 points, so
that no temporary of a call reaches the size at which NumPy reorders a
product in place, and each point's value is the same in a call of any
size.  :func:`zeta_w` and the constant eta read the same table, with its
odd multipliers 2n+1 formed where they are read.

The constant eta = zeta(omega) comes from theta1'''(0)/theta1'(0);
eta_prime = zeta(omega_prime) then follows from the Legendre relation
2*eta*omega_prime - 2*eta_prime*omega = i*pi, which is used as a correctness
sentinel throughout the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._input import as_integer, as_integers, as_number, as_numbers, as_result
from .errors import InvalidLattice, KernelZero

#: hard cap on theta-series terms; only very thin lattices (|q| near 1) reach it
_MAX_TERMS = 64

#: truncation bound on the theta-series terms kept in the per-lattice table
SERIES_TOL = 1e-15

#: points per slab of a sigma call.  NumPy evaluates ``c * t`` in place on
#: a temporary ``t`` of at least 256 KiB (16,384 complex values), as
#: ``t * c``, and its complex product rounds the two operand orders apart,
#: so a call that large gave some points other values than a smaller call
#: did; slabs half that size keep every temporary below it
_SIGMA_SLAB = 8_192

#: arguments closer than this to a kernel zero (for sigma, a lattice point)
#: raise KernelZero: zeta's poles and every builder's denominators
ZERO_TOL = 1e-12


@dataclass(frozen=True)
class Lattice:
    """Immutable evaluation context for all elliptic functions.

    ``omega`` and ``omega_prime`` are the half quasi-periods (full periods
    are 2*omega, 2*omega_prime); ``eta`` and ``eta_prime`` are the
    Weierstrass zeta values at the half periods; ``coef`` and ``d1`` are
    the theta1 table that every evaluation reads.
    """

    omega: complex
    omega_prime: complex
    eta: complex
    eta_prime: complex
    coef: np.ndarray = field(repr=False, compare=False)  # 2 (-1)^n q^{(n+1/2)^2}, n = 0..K-1
    d1: complex = field(repr=False, compare=False)  # theta1'(0) = sum_n (2n + 1) coef_n


def lattice_new(omega, omega_prime):
    """Build a :class:`Lattice` with its derived constants and theta table.

    eta comes from eta = -(pi^2 / (12 omega)) * theta1'''(0)/theta1'(0);
    eta_prime is then recovered from the Legendre relation, which makes the
    Legendre invariant exact up to the eta series error.

    Raises :class:`InvalidLattice` unless the periods and their ratio are
    finite and Im(omega_prime/omega) > 0, and if theta1'(0), which sigma
    divides by, underflows (from about Im(omega_prime/omega) = 902), or
    its alternating sum cancels so far that its rounding bound, eps times
    the sum of the terms' moduli, exceeds 1e-9 of it (thin lattices, from
    about Im(omega_prime/omega) = 0.04 down), where eta would be wrong.
    A period that is not one number raises TypeError.
    """
    omega, omega_prime = as_number(omega, "omega"), as_number(omega_prime, "omega_prime")
    if omega == 0 or omega_prime == 0:
        raise InvalidLattice("periods must be nonzero")
    tau = omega_prime / omega
    if not (np.isfinite([omega, tau]).all() and tau.imag > 0):
        raise InvalidLattice(f"need finite periods with Im(omega'/omega) > 0, got omega'/omega = {tau}")
    q = np.exp(1j * np.pi * tau)

    # term K of the theta1'''(0) sum is at most |q|^(K^2) (2K+1)^3 times term 0
    terms = next(
        (k for k in range(1, _MAX_TERMS) if abs(q) ** (k * k) * (2 * k + 1) ** 3 < SERIES_TOL),
        _MAX_TERMS,
    )
    n = np.arange(terms)
    coef = 2.0 * (-1.0) ** n * np.exp(1j * np.pi * tau * (n + 0.5) ** 2)
    odd = 2.0 * n + 1.0
    coef.setflags(write=False)
    d1 = complex(np.sum(coef * odd))
    if abs(d1) < np.finfo(float).tiny:
        raise InvalidLattice(f"theta1'(0) underflows at Im(omega'/omega) = {tau.imag:.6g}")
    # on thin lattices the alternating theta1'(0) sum cancels, and eta with it
    if np.finfo(float).eps * np.abs(coef * odd).sum() > 1e-9 * abs(d1):
        raise InvalidLattice(f"theta1'(0) cancels too far for eta at Im(omega'/omega) = {tau.imag:.6g}")
    d3 = -complex(np.sum(coef * odd**3))  # theta1'''(0)
    eta = -(np.pi**2) / (12 * omega) * d3 / d1
    eta_prime = (2 * eta * omega_prime - 1j * np.pi) / (2 * omega)
    return Lattice(
        omega=omega,
        omega_prime=omega_prime,
        eta=complex(eta),
        eta_prime=complex(eta_prime),
        coef=coef,
        d1=d1,
    )


def _reduce(lat, x):
    """Vectorized cell reduction; returns (x_reduced, m, m_prime) arrays.

    m and m_prime are whole numbers held as floats.  The two period
    multiples are subtracted one at a time, so x_reduced stays exact for x
    close to a lattice point.  A point on the cell boundary may land on
    either side of it.
    """
    w1, tau = 2 * lat.omega, lat.omega_prime / lat.omega
    x = np.asarray(x, dtype=complex)
    u = x / w1
    b = u.imag / tau.imag
    m = np.rint(u.real - b * tau.real)
    m_prime = np.rint(b)
    return x - m * w1 - m_prime * (2 * lat.omega_prime), m, m_prime


def lattice_distance(lat, x):
    """Distance from x to the nearest lattice point (elementwise).  Input
    that is not numbers raises TypeError."""
    xr, _, _ = _reduce(lat, as_numbers(x, "a lattice_distance argument"))
    return np.abs(xr)


def sigma(lat, x):
    """Weierstrass sigma, elementwise over array input.

    Evaluates in the fundamental cell via the theta series and re-applies
    the quasi-periodicity factors
    sigma(x + Omega) = (-1)^(m + m' + m m') exp(eta_Omega (x + Omega/2)) sigma(x)
    for the lattice vector Omega = 2m*omega + 2m'*omega_prime,
    eta_Omega = 2m*eta + 2m'*eta_prime.

    The series is summed by Clenshaw's recurrence in a = 2 cos 2v
    (Clenshaw, MTAC 9, 1955): one sin per point, taken by ``np.sin`` so
    that sigma keeps its relative accuracy near lattice points, and K - 1
    multiply-adds.  A call lays its points along one axis, in slabs of at
    most ``_SIGMA_SLAB``, so each point's value is the same in every call,
    one point (a Python complex, a numpy scalar or a 0-d array) included,
    and bit for bit.  Input that is not numbers raises TypeError.
    """
    x = as_numbers(x, "a sigma argument")
    flat = x.ravel()
    if flat.size <= _SIGMA_SLAB:
        out = _sigma_slab(lat, flat)
    else:
        out = np.empty_like(flat)
        for start in range(0, flat.size, _SIGMA_SLAB):
            out[start:start + _SIGMA_SLAB] = _sigma_slab(lat, flat[start:start + _SIGMA_SLAB])
    return as_result(out.reshape(x.shape))


def _sigma_slab(lat, x):
    """Sigma of the complex array ``x``, as :func:`sigma` documents it, in
    one pass of whole-array operations."""
    w1 = 2 * lat.omega
    xr, m, mp = _reduce(lat, x)
    # eta x_red^2 / (2 omega) + eta_Omega (x_red + Omega/2), with 2 x_red + Omega = x + x_red
    expo = lat.eta / w1 * (xr * xr) + (m * lat.eta + mp * lat.eta_prime) * (x + xr)
    # (-1)^(m + m' + m m') is +1 exactly when that whole number is even, that
    # is when half of it is whole: an exact float test, with no float modulo
    half = 0.5 * (m + mp + m * mp)
    pre = w1 / (np.pi * lat.d1)
    factor = np.where(np.floor(half) == half, pre, -pre) * np.exp(expo)
    # freed before the series makes its temporaries, to keep the peak memory down
    del expo, m, mp, half
    # theta1(v) = sin v * sum_n coef_n S_n with S_n = sin((2n+1) v) / sin v,
    # which obeys S_{n+1} = a S_n - S_{n-1} from S_0 = 1, S_{-1} = -1, where
    # a = 2 cos 2v = 2 - 4 sin^2 v.  Clenshaw's backward sum
    # b_n = coef_n + a b_{n+1} - b_{n+2}, from b_K = b_{K+1} = 0 down to b_1,
    # leaves the sum as coef_0 + (a + 1) b_1 - b_2
    s = np.sin(np.pi / w1 * xr)
    del xr
    a = 2.0 - 4.0 * (s * s)
    b1 = b2 = 0.0
    for c in lat.coef[:0:-1]:
        b1, b2 = c + a * b1 - b2, b1
    return factor * s * (lat.coef[0] + (a + 1.0) * b1 - b2)


def zeta_w(lat, x):
    """Weierstrass zeta, zeta(x) = sigma'(x)/sigma(x).

    Uses zeta(x_red) = eta*x_red/omega + (pi/(2 omega)) theta1'(v)/theta1(v)
    plus the additive shift 2m*eta + 2m'*eta_prime.

    Raises :class:`KernelZero` within ``ZERO_TOL`` of a lattice point, the
    zeros of sigma, and TypeError for an ``x`` that is not one number.
    """
    w1 = 2 * lat.omega
    xr, m, mp = _reduce(lat, as_number(x, "a zeta argument"))
    if abs(xr) < ZERO_TOL:
        raise KernelZero(f"zeta pole at lattice point, x = {x}")
    odd = 2.0 * np.arange(lat.coef.size) + 1.0
    arg = np.pi / w1 * xr * odd
    ratio = np.sum(lat.coef * odd * np.cos(arg)) / np.sum(lat.coef * np.sin(arg))
    z = lat.eta * xr / lat.omega + np.pi / w1 * ratio
    return as_result(z + 2 * m * lat.eta + 2 * mp * lat.eta_prime)


def sigma_k(lat, n_size, k, x):
    """Auxiliary quasi-periodic product used by the elliptic factorization.

    sigma_k(x) = exp(2 eta' k x) * prod_{l=0}^{N-1}
                 sigma(x + ((N-2l-1)/N) omega - (2k/N) omega_prime)

    with N = n_size.  Under shifts by a full period it picks up the
    multiplier (-1)^N exp(2 eta N (x + omega)) (and the primed analogue).
    Elementwise over x and over an array k of indices in 1..N, whose axes
    come last.  The points lie along one axis and the k along another, and
    all their factors go through one sigma call, so the value of each point
    and k is the same in every call, one point and one k included, bit for
    bit.  N and k must be integers (a bool or a float, also among the k,
    raises TypeError), and x numbers (see :func:`sigma`).
    """
    n_size, k = as_integer(n_size, "N"), as_integers(k, "k")
    if np.any((k < 1) | (k > n_size)):
        raise ValueError(f"k = {k} outside 1..{n_size}")
    x = as_numbers(x, "a sigma_k argument")
    pts, ks = x.reshape(-1, 1), k.reshape(1, -1)
    l = np.arange(n_size)
    shifts = (n_size - 2 * l - 1) / n_size * lat.omega - (2 * ks[..., None] / n_size) * lat.omega_prime
    out = np.exp(2 * lat.eta_prime * ks * pts) * np.prod(sigma(lat, pts[..., None] + shifts), axis=-1)
    return as_result(out.reshape(x.shape + k.shape))
