"""Cauchy-type matrix builders over a pluggable sigma-like kernel.

A single family of builders (C, D, G, H) is shared by the elliptic,
trigonometric and rational kernels; the kernel supplies the sigma-like
function (Weierstrass sigma, plain sin, or the identity map) together with
the distance-to-nearest-zero used for precondition checks.  Everything
that differs between the variants (those two functions, the factorization
factor's columns, the instance sampler and whether an instance memoizes the
kernel) is one :class:`KernelSpec` record in ``KERNELS``.  The closed
determinant and inverse, the UDL decomposition and the factorization factor
take a :class:`Kernel` too: the paper states them for sigma, and sin and
the identity are degenerations of sigma whose Gaussian factor cancels in
these balanced formulas, so one code path serves every kernel.  C, G, H
and the closed inverse are one builder, which scales the rows and columns
of one f(x - y) table by the diagonals of D(x,y) and D(y,x).  Each builder
makes one zero test and one kernel call, over distinct differences only:
the zero distance is even and every kernel odd, so x_i - x_l and y_i - y_l
are taken for i < l, and f(y_j - x_i) as -f(x_i - y_j).  The UDL triangles
are weighted columns and rows of C(x,y;lambda_j) on the Gauss ladder, and
the kernel is evaluated on those triangles only: one table
f(x_r - y_c + lambda_max(r,c)) is U's on and above the diagonal and L's
below it.  The parameter-free K and W forms are specific to one kernel.
A double-Bloch expansion is evaluated as rows of the elliptic C(w, x; lambda)
from that same builder, with its zero test.  One helper divides by the
Lagrange denominator, for D, K, W and every factorization factor.

Every builder and closed form takes a stack of trials as well as one: a
point set has one axis of points after at most one leading trial axis, the
sets of one call share that stack, and the parameter has the stack's
shape (a scalar for one trial).  The result then has the stack's axis in front, and its
member b is, bit for bit, what the call on member b alone returns.  Each
complex product keeps its operand order (numpy's multiply rounds a*b and
b*a apart), each product over an axis runs along a contiguous one, and a
value that is one number per trial is kept as an array, never a scalar.

An :class:`Instance` (one trial or a stack of them) always holds x, y, z
and lambda, and checks only their shapes and that they are numbers; the
sampler keeps the margins.  Every instance holds a private copy of its
kernel.  The sampler marks the copy of each instance it returns as
``margined``: it has measured every block a builder zero-tests on that
stack, so the builders called with that kernel skip their zero test.  A
hand-built instance, a ``dataclasses.replace`` copy and a builder called
with any other kernel keep the test and :class:`KernelZero`, on every
call.  On the elliptic kernel the copy also holds a memo of kernel values,
whose ``memo`` maps each block (shape and bytes) a builder has evaluated
to its values, so the sigma tables that the determinant, inverse and UDL
builders share are made once per instance.  sin and the identity cost
less per point than a lookup and are not memoized.  Since the memo keeps
values, a function patched on a module name (sigma, say) must be in place
before the instance is built.  Every instance also holds an empty private
store, in which the checkers keep the whole products several of them read
(C, its closed determinant, G_{lam+Y}(x, y) and K(x, y)); it too starts
empty on each new instance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._input import as_integers, as_numbers, as_result
from .errors import DimensionMismatch, KernelZero
from .weierstrass import ZERO_TOL, Lattice, lattice_distance, sigma, sigma_k


def _points(x):
    """Any array-like of complex points as a complex array: one axis of
    points after at most one leading trial axis.  A set with more axes
    raises :class:`DimensionMismatch`, and one that is not numbers
    TypeError."""
    pts = np.atleast_1d(as_numbers(x, "a point set"))
    if pts.ndim > 2:
        raise DimensionMismatch(
            f"a point set has one axis of points and at most one trial axis, not {pts.ndim} axes"
        )
    return pts


def _sets(*sets, square=True):
    """The point sets as complex arrays of one stack of trials and, if
    ``square``, of one size; anything else raises :class:`DimensionMismatch`."""
    sets = [_points(s) for s in sets]
    first = sets[0].shape
    for pts in sets[1:]:
        if pts.shape[:-1] != first[:-1]:
            raise DimensionMismatch(f"point-set stacks of shapes {first} and {pts.shape} do not pair up")
        if square and pts.shape[-1] != first[-1]:
            raise DimensionMismatch(f"point sets of sizes {first[-1]} and {pts.shape[-1]} do not pair up")
    return sets


def _param(lam, stack):
    """The parameter as a complex array of the stack's shape (0-d for one
    trial); any other shape raises :class:`DimensionMismatch`, and a
    parameter that is not a number TypeError."""
    lam = as_numbers(lam, "the parameter")
    if lam.shape != stack:
        raise DimensionMismatch(f"a parameter of shape {lam.shape} for a stack of shape {stack}")
    return lam


def _diag(d):
    """Diagonal matrices with the last axis of d on their diagonals:
    ``np.diag``, stacked."""
    n = d.shape[-1]
    out = np.zeros(d.shape + (n,), dtype=d.dtype)
    i = np.arange(n)
    out[..., i, i] = d
    return out


def _transposed(a):
    """The last two axes of a swapped."""
    return np.swapaxes(a, -1, -2)


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
    g_columns: Callable  # (lat, x, lam) -> columns phi_k(x_i) of the factorization factor g_lam(x)
    points: Callable  # (lat, u, v) -> points, elementwise from uniform [0, 1) draws per coordinate
    lam: Callable  # (lat, u, v) -> parameters, elementwise from uniform [0, 1) draws per coordinate
    area: Callable  # lat -> area of the point-sampling region
    stream: int  # first word of the key of the sampler's per-trial stream
    memoized: bool  # an Instance memoizes its values: sigma costs more per point than a lookup, sin and z less


def _uniform(lo, hi, u):
    """Map uniform [0, 1) draws to [lo, hi) as ``lo + (hi - lo) * u``,
    draw by draw."""
    return lo + (hi - lo) * u


def _cell_points(lat, u, v):
    """Uniform points in the fundamental cell shrunk to 70 %."""
    return 2 * _uniform(-0.35, 0.35, u) * lat.omega + 2 * _uniform(-0.35, 0.35, v) * lat.omega_prime


#: variant -> its kernel record
KERNELS = {
    "elliptic": KernelSpec(
        f=lambda lat, z: sigma(lat, z),
        zero_distance=lambda lat, z: lattice_distance(lat, z),
        g_columns=lambda lat, x, lam: g_factor_elliptic(lat, x, lam),
        points=_cell_points,
        lam=_cell_points,
        area=lambda lat: 0.49 * abs(np.imag(np.conj(2 * lat.omega) * 2 * lat.omega_prime)),
        stream=0,
        memoized=True,
    ),
    "trig": KernelSpec(
        f=lambda lat, z: np.sin(z),
        zero_distance=lambda lat, z: np.abs(z - np.pi * np.round(np.real(z) / np.pi)),
        g_columns=lambda lat, x, lam: g_factor_trig(x, lam),
        points=lambda lat, u, v: _uniform(0.0, np.pi, u) + 1j * _uniform(0.0, 0.5, v),
        lam=lambda lat, u, v: _uniform(0.0, np.pi, u) + 1j * _uniform(0.15, 0.6, v),
        area=lambda lat: np.pi * 0.5,
        stream=1,
        memoized=False,
    ),
    "rational": KernelSpec(
        f=lambda lat, z: z,
        zero_distance=lambda lat, z: np.abs(z),
        g_columns=lambda lat, x, lam: g_factor_rat(x, lam),
        points=lambda lat, u, v: (
            np.sqrt(_uniform(0.0, 1.0, u)) * np.exp(1j * _uniform(0.0, 2 * np.pi, v))
        ),
        lam=lambda lat, u, v: _uniform(0.5, 1.5, u) * np.exp(1j * _uniform(0.0, 2 * np.pi, v)),
        area=lambda lat: np.pi,
        stream=2,
        memoized=False,
    ),
}


@dataclass(frozen=True)
class Kernel:
    """Sigma-like function selector: elliptic sigma, sin, or identity.

    Calling it, or its :meth:`zero_distance`, on input that is not numbers
    raises TypeError.  The ``memo`` and the ``margined`` mark are set on an
    instance's private copy only, never by a constructor, and take no part
    in comparison or repr.
    """

    variant: str  # a key of KERNELS
    lattice: Lattice | None = None  # read by the elliptic variant only
    #: block (shape, bytes) -> its kernel values; set only on the private
    #: copy an :class:`Instance` of a memoized variant holds
    memo: dict | None = field(default=None, init=False, repr=False, compare=False)
    #: the sampler measured every block a builder zero-tests on this kernel's
    #: stack, so :func:`_fused` skips its zero test; set only by
    #: ``verify.random_instance`` on the private copy its instance holds
    margined: bool = field(default=False, init=False, repr=False, compare=False)

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
        return self.spec.f(self.lattice, as_numbers(z, "a kernel argument"))

    def zero_distance(self, z):
        """Elementwise distance from z to the nearest zero of the kernel."""
        return self.spec.zero_distance(self.lattice, as_numbers(z, "a kernel argument"))


def elliptic_kernel(lat):
    return Kernel("elliptic", lat)


TRIG_KERNEL = Kernel("trig")
RATIONAL_KERNEL = Kernel("rational")


def _seeds(seed):
    """Seeds as integers: anything else, which a record would misname, raises ValueError."""
    try:
        return as_integers(seed, "a seed")
    except TypeError:
        raise ValueError(f"a seed must be an integer, not {seed!r}") from None


@dataclass(frozen=True, eq=False)
class Instance:
    """One random verification instance, or a stack of them: kernel, point
    sets x, y and z, and parameter lam.

    The point sets become read-only complex arrays of one nonempty size.
    A stack of B trials has sets of shape (B, N) and ``lam`` and ``seed``
    arrays of shape (B,); one trial has sets of shape (N,), a complex
    ``lam`` and an int ``seed``.  Point sets or a ``lam`` that are not
    numbers raise TypeError, and a seed that is not an integer ValueError.
    Their margins from the kernel zeros are the sampler's to keep.
    ``kernel`` becomes a private copy, which lives as long as the instance;
    it starts unmarked, so a builder called with it raises
    :class:`KernelZero` on any denominator at a zero, on every call, until
    ``verify.random_instance`` marks the copy of an instance it sampled as
    ``margined`` (``member`` keeps the mark).  On a memoized variant the
    copy has an empty memo: the builders called with it evaluate each
    distinct argument block once, for all members of a stack at once; none
    asks for f(y - x).  Every instance also starts with an empty ``_shared``
    store, in which the checkers keep the products that several of them
    read (C(x, y; lam), its closed determinant, G_{lam+Y}(x, y) and
    K(x, y)), so each is computed once per instance.
    """

    kernel: Kernel
    x: np.ndarray
    y: np.ndarray
    lam: complex | np.ndarray
    z: np.ndarray
    seed: int | np.ndarray = 0
    #: product name -> value, filled by the checkers; new on every instance,
    #: ``member`` and ``dataclasses.replace`` included
    _shared: dict = field(init=False, repr=False)

    def __post_init__(self):
        for name, pts in zip("xyz", _sets(self.x, self.y, self.z)):
            pts = pts.copy()
            pts.setflags(write=False)
            object.__setattr__(self, name, pts)
        if self.x.shape[-1] == 0:
            raise ValueError("point sets must be nonempty")
        stack = self.x.shape[:-1]
        for name, value in (("lam", np.array(as_numbers(self.lam, "lam"))), ("seed", np.array(_seeds(self.seed)))):
            if value.shape != stack:
                raise DimensionMismatch(f"{name} of shape {value.shape} for a stack of shape {stack}")
            value.setflags(write=False)
            object.__setattr__(self, name, as_result(value))
        object.__setattr__(self, "_shared", {})
        kernel = Kernel(self.kernel.variant, self.kernel.lattice)
        if kernel.spec.memoized:
            object.__setattr__(kernel, "memo", {})
        object.__setattr__(self, "kernel", kernel)

    @property
    def n(self):
        return self.x.shape[-1]

    def member(self, b):
        """Member b of a stack as an instance of its own, with a memo and a
        store of its own, and the stack's margin mark."""
        inst = Instance(
            kernel=self.kernel,
            x=self.x[b],
            y=self.y[b],
            lam=self.lam[b],
            z=self.z[b],
            seed=self.seed[b],
        )
        object.__setattr__(inst.kernel, "margined", self.kernel.margined)
        return inst


def _fused(kernel, what, tested, *args):
    """Zero-test the blocks ``tested`` in one zero-distance call (an entry at
    a kernel zero raises :class:`KernelZero` naming ``what``), then evaluate
    the kernel over the blocks ``args`` in at most one call: one result per
    argument, in its shape, read-only.  Empty blocks (the pair differences
    of one point) go to neither call, and an empty argument gets an empty
    result.  A kernel with a memo keeps the values of each distinct block,
    keyed by its shape and bytes, and evaluates only the blocks it has no
    values for; it keeps no outcome of a zero test.

    A ``margined`` kernel, a sampled instance's, is not zero-tested at all:
    every block a builder tests on its stack is, bit for bit, one the
    sampler measured at ``sep_min`` >= ``ZERO_TOL``.  Any other kernel
    tests every nonempty block it is given, on every call."""
    blocks = [] if kernel.margined else [t.ravel() for t in tested if t.size]
    if blocks and np.any(kernel.zero_distance(np.concatenate(blocks)) < ZERO_TOL):
        raise KernelZero(f"{what} hits a kernel zero")
    memo = {} if kernel.memo is None else kernel.memo  # without one, this call's own, by position
    keys = range(len(args)) if kernel.memo is None else [(a.shape, a.tobytes()) for a in args]
    todo = {k: a for k, a in zip(keys, args) if k not in memo}
    if todo:
        flat = np.concatenate([a.ravel() for a in todo.values()])
        flat = kernel(flat) if flat.size else np.empty(0, dtype=complex)
        flat.setflags(write=False)
        start = 0
        for k, a in todo.items():
            memo[k] = flat[start:start + a.size].reshape(a.shape)
            start += a.size
    return [memo[k] for k in keys]


@functools.lru_cache(maxsize=64)
def pair_indices(n):
    """Read-only index arrays (i, l) of the pairs i < l of n points."""
    pairs = np.triu_indices(n, 1)
    for a in pairs:
        a.setflags(write=False)
    return pairs


def _pair_diffs(pts):
    """The differences p_i - p_l on the pairs i < l (last axis), as a
    C-contiguous array: numpy rounds a product along a strided axis apart
    from one along a contiguous axis.  ``np.take`` gathers along the last
    axis into new C-contiguous arrays, faster than fancy indexing there on
    a sampler block of many rounds."""
    i, l = pair_indices(pts.shape[-1])
    return np.take(pts, i, axis=-1) - np.take(pts, l, axis=-1)


def _odd_table(n, f_pairs):
    """The table f(x_i - x_l) over n points from its values ``f_pairs`` on
    the pairs i < l (last axis), with f(x_l - x_i) = -f(x_i - x_l) and 1 on
    the diagonal."""
    i, l = pair_indices(n)
    table = np.ones(f_pairs.shape[:-1] + (n, n), dtype=complex)
    table[..., i, l] = f_pairs
    table[..., l, i] = -f_pairs
    return table


def _lagrange_den(n, f_pairs):
    """Row products prod_{l!=i} f(x_i - x_l) over n points, from the values
    ``f_pairs`` of f on the pairs i < l (last axis)."""
    return np.prod(_odd_table(n, f_pairs), axis=-1)


def _over_lagrange(kernel, x, what, cols):
    """``cols`` with row i divided by prod_{l!=i} f(x_i - x_l); a pair
    difference at a kernel zero raises :class:`KernelZero` naming ``what``."""
    diff = _pair_diffs(x)
    (f_pairs,) = _fused(kernel, what, [diff], diff)
    return cols / _lagrange_den(x.shape[-1], f_pairs)[..., :, None]


def _d_diagonal(f_pq, f_pairs):
    """The diagonal prod_k f(p_i - q_k) / prod_{l!=i} f(p_i - p_l) of D(p, q),
    from the zero-tested f(p_i - q_k) and f(p_i - p_l) on the pairs i < l."""
    return np.prod(f_pq, axis=-1) / _lagrange_den(f_pq.shape[-2], f_pairs)


def _scaled(kernel, x, y, lam, left, right, what):
    """D(x, y)^left C(x, y; lam) D(y, x)^right, with each diagonal
    broadcast over the rows or columns of C, from one kernel call and one
    zero test of x_i - y_j, lam and each scaled side's pair differences
    (a kernel zero raises :class:`KernelZero` naming ``what``)."""
    x, y = _sets(x, y, square=left or right)
    lam = _param(lam, x.shape[:-1])
    diff = x[..., :, None] - y[..., None, :]
    pairs = [_pair_diffs(pts) for pts, side in ((x, left), (y, right)) if side]
    num, f_lam, f_diff, *f_pairs = _fused(
        kernel, what, [diff, lam, *pairs], diff + lam[..., None, None], lam, diff, *pairs
    )
    c = num / (f_lam[..., None, None] * f_diff)
    if left:
        c = _d_diagonal(f_diff, f_pairs.pop(0))[..., :, None] * c
    if right:
        # f(y_j - x_k) = -f(x_k - y_j), multiplied along a contiguous row as in D(y, x)
        f_yx = np.ascontiguousarray(-_transposed(f_diff))
        c = c * _d_diagonal(f_yx, f_pairs.pop(0))[..., None, :]
    return c


def cauchy_matrix(kernel, x, y, lam):
    """Cauchy matrix f(x_i - y_j + lam) / (f(lam) f(x_i - y_j))."""
    return _scaled(kernel, x, y, lam, False, False, "x_i - y_j or lambda")


def classic_cauchy(x, y):
    """The classic matrix with entries 1 / (x_i - y_j)."""
    x, y = _sets(x, y, square=False)
    diff = x[..., :, None] - y[..., None, :]
    _fused(RATIONAL_KERNEL, "x_i - y_j", [diff])
    return 1.0 / diff


def classic_cauchy_det(x, y):
    """Closed-form determinant of the classic Cauchy matrix."""
    x, y = _sets(x, y)
    dxy = x[..., :, None] - y[..., None, :]
    _fused(RATIONAL_KERNEL, "x_a - y_b", [dxy])
    # as in frobenius_det, the products keep a last axis
    num = np.prod(_pair_diffs(x), axis=-1, keepdims=True) * np.prod(-_pair_diffs(y), axis=-1, keepdims=True)
    den = np.prod(dxy, axis=(-2, -1), keepdims=True)[..., 0]
    return as_result((num / den)[..., 0])


def d_matrix(kernel, x, y):
    """Diagonal matrix diag( f(x_i-y_i) prod_{k!=i} f(x_i-y_k)/f(x_i-x_k) )."""
    x, y = _sets(x, y)
    dxy = x[..., :, None] - y[..., None, :]
    dxx = _pair_diffs(x)
    return _diag(_d_diagonal(*_fused(kernel, "x_i - x_k or x_i - y_k", [dxy, dxx], dxy, dxx)))


def classic_cauchy_inverse(x, y):
    """Closed-form inverse of the classic Cauchy matrix.

    Entrywise: (x_i-y_i)(x_j-y_j)/(x_j-y_i)
    * prod_{k!=i} (y_i-x_k)/(y_i-y_k) * prod_{l!=j} (x_j-y_l)/(x_j-x_l),
    assembled here as D(y,x) C(y,x) D(x,y) with the identity kernel.
    """
    return d_matrix(RATIONAL_KERNEL, y, x) @ classic_cauchy(y, x) @ d_matrix(RATIONAL_KERNEL, x, y)


def frobenius_det(kernel, x, y, lam):
    """Closed-form determinant of the Cauchy matrix, for any kernel f.

    f(lam + X - Y)/f(lam)
    * prod_{a<b} f(x_a-x_b) f(y_b-y_a) / prod_{a,b} f(x_a-y_b)
    with X, Y the point-set sums.
    """
    x, y = _sets(x, y)
    lam = _param(lam, x.shape[:-1])
    shift = lam + x.sum(axis=-1) - y.sum(axis=-1)
    dxy = x[..., :, None] - y[..., None, :]
    what = "x_a - y_b, lambda or lambda + X - Y"
    s_shift, s_lam, dx, dy, s_xy = _fused(
        kernel, what, [dxy, lam, shift], shift, lam, _pair_diffs(x), _pair_diffs(y), dxy
    )
    # f(y_b - y_a) = -f(y_a - y_b); the products keep a last axis, so that
    # one trial is multiplied as an array, as a stack is (numpy rounds a
    # product of two complex scalars apart from the same product in an array)
    num = np.prod(dx, axis=-1, keepdims=True) * np.prod(-dy, axis=-1, keepdims=True)
    den = np.prod(s_xy, axis=(-2, -1), keepdims=True)[..., 0]
    return as_result((s_shift[..., None] / s_lam[..., None] * num / den)[..., 0])


def cauchy_inverse_closed(kernel, x, y, lam):
    """Closed-form inverse of the Cauchy matrix, for any kernel f.

    Entrywise, with mu = lam+X-Y:
    f(y_i-x_j+mu)/f(mu)
    * f(x_i-y_i) f(x_j-y_j)/f(x_j-y_i)
    * prod_{k!=i} f(y_i-x_k)/f(y_i-y_k)
    * prod_{l!=j} f(x_j-y_l)/f(x_j-x_l),
    that is D(y,x) C(y,x; mu) D(x,y), which the product identity yields for
    the inverse.  Every kernel is odd, so it is -(D(x,y) C(x,y; -mu) D(y,x))
    transposed: one scaled C over the f(x - y) table, whose parameter test
    covers the shift.
    """
    x, y = _sets(x, y)
    mu = _param(lam, x.shape[:-1]) + x.sum(axis=-1) - y.sum(axis=-1)
    what = "x_i - x_k, y_i - y_k, x_i - y_j or lambda + X - Y"
    return -_transposed(_scaled(kernel, x, y, -mu, True, True, what))


def g_matrix(kernel, x, y, lam):
    """G_lam(x, y) = D(x, y) C(x, y; lam)."""
    return _scaled(kernel, x, y, lam, True, False, "x_i - x_k, x_i - y_j or lambda")


def h_matrix(kernel, x, y, lam):
    """H_lam(x, y) = C(x, y; lam) D(y, x)."""
    return _scaled(kernel, x, y, lam, False, True, "y_i - y_k, x_i - y_j or lambda")


def k_matrix(x, y):
    """Large-parameter limit of the rational G matrix.

    K_ij = prod_{k!=j} (x_i - y_k) / prod_{l!=i} (x_i - x_l).
    """
    x, y = _sets(x, y, square=False)
    dxy = x[..., :, None] - y[..., None, :]
    _fused(RATIONAL_KERNEL, "x_i - y_k", [dxy])
    row_num = np.prod(dxy, axis=-1)  # prod over all k
    return _over_lagrange(RATIONAL_KERNEL, x, "x_i - x_l", row_num[..., :, None] / dxy)


def g_factor(kernel, x, lam):
    """Factorization factor g_lam(x)_{ik} = phi_k(x_i) / prod_{l!=i} f(x_i - x_l),
    for any kernel f: the columns phi_k are its variant's ``g_columns``,
    and the denominator is evaluated on ``kernel`` itself (on an instance's
    kernel, through its memo)."""
    x = _points(x)
    cols = kernel.spec.g_columns(kernel.lattice, x, _param(lam, x.shape[:-1]))
    return _over_lagrange(kernel, x, "x_i - x_l", cols)


def _over_n(lam, n):
    """lam / n with each part divided by n, as Python divides a complex by
    a real; numpy's complex division multiplies by 1/n and rounds apart."""
    lam = np.asarray(lam)
    return lam.real / n + 1j * (lam.imag / n)


def g_factor_elliptic(lat, x, lam):
    """Elliptic columns phi_k(x_i) = sigma_k(x_i + lam/N), k = 1..N."""
    n = x.shape[-1]
    return sigma_k(lat, n, np.arange(1, n + 1), x + _over_n(lam, n)[..., None])


def g_factor_trig(x, lam):
    """Trigonometric columns
    phi_k(x_i) = exp(-i N x_i) (exp(2ik(x_i + lam/N)) + (-1)^N delta_{kN})."""
    n = x.shape[-1]
    k = np.arange(1, n + 1)
    return np.exp(-1j * n * x[..., :, None]) * (
        np.exp(2j * k * (x[..., :, None] + _over_n(lam, n)[..., None, None]))
        + (-1.0) ** n * (k == n)
    )


def g_factor_rat(x, lam):
    """Rational columns phi_k(x_i) = (x_i + lam/N)^(k-1+delta_{kN}): the
    top degree skips from N-2 to N."""
    n = x.shape[-1]
    k = np.arange(1, n + 1)
    return (x[..., :, None] + _over_n(lam, n)[..., None, None]) ** (k - 1 + (k == n))


def w_matrix(x):
    """Row-scaled Vandermonde: x_i^(j-1) / prod_{l!=i} (x_i - x_l)."""
    x = _points(x)
    return _over_lagrange(RATIONAL_KERNEL, x, "x_i - x_l", x[..., :, None] ** np.arange(x.shape[-1]))


def gauss_lambda_ladder(x, y, lam):
    """lambda_j = lam + sum_{l>j} (x_l - y_l), with lambda_N = lam."""
    x, y = _sets(x, y)
    tail = np.zeros_like(x)
    tail[..., :-1] = np.cumsum((x - y)[..., :0:-1], axis=-1)[..., ::-1]
    return _param(lam, x.shape[:-1])[..., None] + tail


def gauss_udl(kernel, x, y, lam):
    """Triangular decomposition C = U D L of the Cauchy matrix, for any
    kernel f.

    U is unit upper triangular, L unit lower triangular, D diagonal.  On
    the ladder lambda_j = lam + sum_{l>j}(x_l-y_l), column j of U and row j
    of L are column j and row j of C(x,y;lambda_j), weighted by the suffix
    products below and scaled to a unit diagonal.
    """
    x, y = _sets(x, y)
    n = x.shape[-1]
    lams = gauss_lambda_ladder(x, y, lam)
    dxx = _pair_diffs(x)
    dxy = x[..., :, None] - y[..., None, :]
    dyy = _pair_diffs(y)
    what = "lambda_j, x_j - y_j + lambda_j, x_a - y_b, x_a - x_b or y_a - y_b"
    # U needs f(x_i - y_j + lam_j) for i <= j and L f(x_j - y_k + lam_j) for
    # k <= j: one table of f(x_r - y_c + lam_max(r,c)) holds both, with
    # their shared diagonal once; x_j - y_j + lam_j is tested, not evaluated
    rung = np.maximum.outer(np.arange(n), np.arange(n))
    fxx, sxy, fyy, s_tri, s_lams = _fused(
        kernel, what, [lams, x - y + lams, dxy, dxx, dyy], dxx, dxy, dyy, dxy + lams[..., rung], lams
    )
    # r_u[i, j] = prod_{l>j} f(x_i - x_l)/f(x_i - y_l) and r_l[k, j] =
    # prod_{l>j} f(y_k - y_l)/f(y_k - x_l), 1 at j = N: one cumulative
    # product over the reversed columns, with f(y_k - x_l) = -f(x_l - y_k)
    ratios = np.stack([_odd_table(n, fxx) / sxy, _odd_table(n, fyy) / -_transposed(sxy)], axis=-3)
    steps = np.concatenate([np.ones(ratios.shape[:-1] + (1,)), ratios[..., :0:-1]], axis=-1)
    r = np.cumprod(steps, axis=-1)[..., ::-1]
    r_u, r_l = r[..., 0, :, :], r[..., 1, :, :]
    # a[:, j] is column j and b[j, :] row j of C(x, y; lam_j), weighted, on
    # and above (a) and on and below (b) the diagonal; their other triangles
    # are dropped
    a = s_tri / (s_lams[..., None, :] * sxy) * r_u
    b = s_tri / (s_lams[..., :, None] * sxy) * _transposed(r_l)
    diag_a = np.diagonal(a, axis1=-2, axis2=-1)
    u = np.triu(a / diag_a[..., None, :])
    l = np.tril(b / np.diagonal(b, axis1=-2, axis2=-1)[..., :, None])
    d = _diag(diag_a * np.diagonal(r_l, axis1=-2, axis2=-1))
    return u, d, l


def bloch_eval(lat, poles, coeffs, lam, point):
    """Evaluate a double-Bloch function from its pole expansion.

    psi(w) = sum_i c_i sigma(w - x_i + lam) / (sigma(lam) sigma(w - x_i)),
    the row C(w, x; lam) c of the elliptic Cauchy matrix, which the one
    builder forms and zero-tests (a point within ``ZERO_TOL`` of a pole
    raises :class:`KernelZero`); under full-period shifts psi picks up the
    multipliers exp(2 eta lam) and exp(2 eta' lam).  Elementwise over
    ``point``.  For a stack of expansions (poles and coefficients of shape
    (B, N), lam of shape (B,)), ``point`` has the stack's axis in front.
    Poles, coefficients, lam or points that are not numbers raise TypeError.
    """
    poles = _points(poles)
    coeffs = as_numbers(coeffs, "the coefficients")
    if coeffs.shape != poles.shape:
        raise DimensionMismatch(f"{coeffs.size} coefficients for {poles.size} poles")
    stack = poles.shape[:-1]
    point = as_numbers(point, "an evaluation point")
    if point.shape[: len(stack)] != stack:
        raise DimensionMismatch(f"evaluation points of shape {point.shape} for a stack of shape {stack}")
    w = point.reshape(stack + (-1,))
    rows = _scaled(elliptic_kernel(lat), w, poles, lam, False, False, "w - x_i or lambda")
    return as_result((coeffs[..., None, :] * rows).sum(axis=-1).reshape(point.shape))


def bloch_transport(lat, x, y, lam, coeffs):
    """Transport pole-expansion coefficients from poles x to poles y.

    Returns b = G_lam(y, x) c; the transported expansion carries the
    shifted parameter lam - X + Y.  Input that is not numbers raises
    TypeError.
    """
    c = as_numbers(coeffs, "the coefficients")
    return (g_matrix(elliptic_kernel(lat), y, x, lam) @ c[..., None])[..., 0]
