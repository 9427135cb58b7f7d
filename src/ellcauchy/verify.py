"""Residual checkers for every closed-form matrix identity, and their judge.

Each checker takes a seeded random :class:`~ellcauchy.cauchy.Instance`, one
trial or a stack of them, and a kernel tag, and returns
``(abs_residual, reference_magnitude)`` for the two sides of an identity,
one of each per member of a stack, and the degeneration checker a rate
verdict as a third value.  The determinant is checked against the
pivoted-LU oracle in :mod:`ellcauchy.linalg`, which factors a whole stack
in one call.  Every matrix identity A B = R (the inverse as C X = I, the
product, transposed and factorization identities, and the Gauss
decomposition as (U D) L = C) is judged by one residual, its componentwise
backward error :func:`~ellcauchy.linalg.backward_error`, with no inverse
formed (the inverse also as X C = I).  All identities of a trial read one
instance (x, y, z, lambda); its determinant, inverse and Gauss checks
share its Cauchy matrix and closed determinant, and its product and
factorization checks G_{lambda+Y}(x, y) and, on the k-rational tag,
K(x, y), each computed once and kept in its store (:func:`_shared`).  The
sampler keeps one margin rule for every kernel and samples a whole stack
of trials in one call: it tests their rounds in blocks, as arrays, and
picks bit for bit the instances that a loop over single rounds would.
Those margins are the stack's zero test: the sampler marks the kernel of
each instance it returns, and the builders skip their own zero test on
it.  Its first block draws three rounds of each trial, and each later
block one more than the first pending trial has drawn.
Its close-pair screen tests every pair of a small block, and sorts and
sweeps the points of a large one, so its cost is linear in a block's
points.
:meth:`Identity.check` alone decides where a checker runs, times it and
judges a whole stack in one loop over its members, in Python floats, into
one :class:`Report` per member.  The sampler draws each trial's rounds
from a SplitMix64 stream defined here
(:func:`_stream`), not from ``numpy.random``, so its instances do not move
with the NumPy release; the checkers read only their instance and draw no
random numbers of their own, so everything is a pure function of (config,
seed), and suite runs are reproducible byte for byte (timings aside).
Degeneration is a registry entry like the rest, checked once, at a fixed
size and tolerance.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from . import cauchy, linalg
from ._input import as_integer, as_integers, as_number
from .cauchy import RATIONAL_KERNEL, TRIG_KERNEL, Instance, Kernel
from .errors import SamplingExhausted
from .weierstrass import lattice_new, sigma, sigma_k

#: rejection-sampling round limit before SamplingExhausted
_MAX_ROUNDS = 10_000

#: complex values one temporary of a margin test may hold: the points of a
#: sampler block (it caps the block's rounds, unless one round holds more),
#: the pair differences of an all-pairs screen, and those of one
#: zero-distance call (at least one round's).  Each is then at most
#: 512 KiB; on a 2-vCPU Xeon VM, when blocks were capped by their pair
#: differences, a budget of 65,536 made the exhausting
#: ``verify-all --n 20`` take twice as long, its temporaries outgrowing the
#: cache
_PAIR_BUDGET = 32_768

#: a closed determinant of modulus below this is judged by its absolute
#: difference: :func:`check_determinant` reports a reference magnitude of 1
_ABS_SWITCH = 1e-10


@dataclass(slots=True)
class Report:
    """Per-identity verification result for one instance, in slots.

    A plain slotted record, not a frozen one, so that a stack's records are
    cheap to build: its fields can be assigned, and it has no hash.
    ``elapsed_ms`` is the time of the check on its stack divided among the
    members.  The products several checks of one stack read (C(x,y;lam),
    its closed determinant, G_{lam+Y}(x,y) and K(x,y)) are computed once,
    and charged to the first check that asks for them, and a sampled
    stack's builders make no zero test; ``ellcauchy bench`` times each check
    in full, zero tests included, on a fresh, unmarked instance.
    """

    identity_name: str
    kernel: str
    n: int
    seed: int
    abs_residual: float
    rel_residual: float
    tolerance: float
    passed: bool
    elapsed_ms: float

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class SuiteConfig:
    """Parameters for a verification run."""

    n_values: tuple = tuple(range(1, 9))
    trials_per_n: int = 10
    base_seed: int = 42
    tolerance: float = 1e-8
    lattice_tau: complex = 0.3 + 0.7j
    sep_min: float = 0.05

    def __post_init__(self):
        try:
            n_values = tuple(as_integer(n, "each of n_values") for n in self.n_values)
            trials, base_seed = (as_integer(getattr(self, f), f) for f in ("trials_per_n", "base_seed"))
            tolerance, tau, sep_min = (as_number(getattr(self, f), f) for f in ("tolerance", "lattice_tau", "sep_min"))
        except TypeError as exc:
            raise ValueError(str(exc)) from None
        if not n_values or min(n_values) < 1 or trials < 1:
            raise ValueError("n_values must be nonempty, and its entries and trials_per_n >= 1")
        if len(set(n_values)) != len(n_values):
            raise ValueError(f"n_values repeats a size: {n_values}")
        # each trial's seed is one 32-bit word of its random stream's key
        if base_seed < 0 or base_seed + trials > 2**32:
            raise ValueError(f"the seeds base_seed .. base_seed + trials_per_n - 1 must lie in 0 .. {2**32 - 1}")
        if not (np.isfinite(tau) and tau.imag > 0):
            raise ValueError("lattice_tau must be finite with Im(lattice_tau) > 0")
        if tolerance.imag or not 0 < tolerance.real < math.inf:
            raise ValueError("tolerance must be real, finite and positive")
        # the builders' own zero test, which the sampler's margins stand in
        # for on a sampled stack: a smaller margin would let the sampler
        # accept an instance whose builders divide by a kernel zero
        if sep_min.imag or not cauchy.ZERO_TOL <= sep_min.real < math.inf:
            raise ValueError(f"sep_min must be real, finite and at least {cauchy.ZERO_TOL}")
        for f, value in zip(fields(self), (n_values, trials, base_seed, tolerance.real, tau, sep_min.real)):
            object.__setattr__(self, f.name, value)

    def lattice(self):
        return lattice_new(1.0, self.lattice_tau)


def _worst(residuals, stack=()):
    """Each member's largest residual, or NaN if any of its residuals is
    NaN (the built-in ``max(worst, nan)`` keeps ``worst``).  Each entry of
    ``residuals`` has the stack's shape in front, and any trailing axes."""
    flat = [np.reshape(r, stack + (-1,)) for r in residuals]
    return np.max(np.concatenate(flat, axis=-1), axis=-1)


# ---------------------------------------------------------------------------
# instance sampling
# ---------------------------------------------------------------------------


def _sorted_screen(pts, margin):
    """Whether each round of ``pts`` (rounds, points) has no two points
    closer than ``margin`` in the plane, by a sort and sweep (Hinrichs,
    Nievergelt and Schorn, IPL 26, 1988): each round's points are ordered
    by real part, and its k-th neighbours compared for k = 1, 2, ...,
    dropping the rounds already rejected, until no real-part gap of the
    rounds left is below ``margin``.  Rounding is monotone, so every
    real-part gap at a larger k is at least as large, and ``abs`` (a
    faithfully rounded hypot) never returns less than the real part of a
    difference: the pairs left untested are no closer than ``margin``.  So
    the verdicts are those of the all-pairs screen, which measures the same
    rounded differences, up to sign."""
    rounds, n = pts.shape
    pts = np.take_along_axis(pts, np.argsort(pts.real, axis=-1), axis=-1)
    alive = np.arange(rounds)
    for k in range(1, n):
        diff = pts[:, k:] - pts[:, :-k]
        if not (diff.real < margin).any():
            break
        keep = ~(np.abs(diff) < margin).any(axis=1)
        pts, alive = pts[keep], alive[keep]
    ok = np.zeros(rounds, dtype=bool)
    ok[alive] = True
    return ok


def _margins_ok(kernel, sets, lam, margin):
    """Whether each sampled round keeps every margin, one verdict per round.

    ``sets`` is a block of rounds, shape (sets, rounds, n), and ``lam``
    holds one parameter per round, shape (rounds,).  A round keeps its
    margins when the zero distance of each block its builders zero-test
    (see :func:`_kernel_margins`) is at least ``margin``.  The rule is the
    same for every kernel: the union over the registry's plans.

    Both screens read one round-major view of the points, (rounds, sets * n).
    A zero distance never exceeds the modulus (0 is a zero), so a pair
    closer than ``margin`` in the plane rejects its round without a kernel
    call.  A block whose pair differences fit ``_PAIR_BUDGET`` screens
    every pair of every round; a larger block screens by
    :func:`_sorted_screen`, in time and memory linear in its points, with
    the same verdicts.  Every margin of the rounds that pass the screen is
    then measured by zero-distance calls of at most ``_PAIR_BUDGET`` pair
    differences each (or of one round, where one round alone holds more),
    which also catch a pair that is close only across a period.  Both tests
    measure each unordered pair once: the zero distance is even.
    """
    n_sets, _, n = sets.shape
    pts = sets.transpose(1, 0, 2).reshape(-1, n_sets * n)
    pairs = math.comb(n_sets * n, 2)
    small = len(pts) * pairs <= _PAIR_BUDGET
    ok = ~(np.abs(cauchy._pair_diffs(pts)) < margin).any(axis=-1) if small else _sorted_screen(pts, margin)
    kept = np.flatnonzero(ok)
    chunk = max(1, _PAIR_BUDGET // pairs)  # rounds per zero-distance call
    for start in range(0, kept.size, chunk):
        rows = kept[start:start + chunk]
        # the chunk's temporaries live in the call, and are freed before the next
        ok[rows] = _kernel_margins(kernel, sets[:, rows], lam[rows], cauchy._pair_diffs(pts[rows])) >= margin
    return ok


def _kernel_margins(kernel, sets, lam, pairs):
    """Each round's smallest zero distance over exactly the blocks its
    builders zero-test, each formed as they form it: the differences of
    two of its points, ``pairs`` of shape (rounds, pairs); lambda + Y and
    lambda + Z; lambda - X and lambda - Y; (lambda + X) - Y; and the Gauss
    ladder lambda_j, whose last rung is lambda itself, with x_j - y_j + lambda_j."""
    x, y = sets[0], sets[1]
    sums = sets.sum(axis=-1).T
    lams = cauchy.gauss_lambda_ladder(x, y, lam)
    lam = lam[:, None]
    mu = lam + sums[:, :1] - sums[:, 1:2]
    args = np.concatenate([pairs, lam + sums[:, 1:], lam - sums[:, :2], mu, lams, x - y + lams], axis=-1)
    return kernel.zero_distance(args).min(axis=-1)


#: SplitMix64's increment, the odd integer nearest 2**64 over the golden ratio
_GAMMA = np.uint64(0x9E3779B97F4A7C15)

#: the same increment, and the 64-bit mask, for the Python-int fold
_GAMMA_INT, _MASK = int(_GAMMA), 2**64 - 1

#: (shift, multiplier) steps of SplitMix64's finalizer, Stafford's Mix13:
#: each xor-shifts and then multiplies, and the last only xor-shifts
_MIX_STEPS = ((30, np.uint64(0xBF58476D1CE4E5B9)), (27, np.uint64(0x94D049BB133111EB)), (31, None))


def _mix(z):
    """SplitMix64's finalizer, in place on the uint64 array ``z``.  Array
    products wrap modulo 2**64 silently, as the generator wants (a 0-d
    product would warn)."""
    t = np.empty_like(z)
    for shift, mult in _MIX_STEPS:
        np.right_shift(z, shift, out=t)
        z ^= t
        if mult is not None:
            z *= mult
    return z


def _stream_keys(shared, columns=()):
    """The SplitMix64 state of each row of ``columns``, a uint64 array with
    one state per row (one state if there are no columns).  A row's state
    starts at 0 and folds in its words in order, each as
    ``key = mix(key ^ (word + gamma))``: first the words of ``shared``,
    which every row has, as one Python-int fold, and then each column, a
    sequence of one word per row, as one array pass.  A word outside
    0 .. 2**32 - 1 raises OverflowError."""
    shared = [as_integer(w, "a key word") for w in shared]
    columns = [as_integers(col, "a key word").tolist() for col in columns]
    if any(not 0 <= w < 2**32 for col in (shared, *columns) for w in col):
        raise OverflowError("each word of a stream's key must lie in 0 .. 2**32 - 1")
    key = 0
    for w in shared:
        key ^= (w + _GAMMA_INT) & _MASK
        for shift, mult in _MIX_STEPS:
            key ^= key >> shift
            if mult is not None:
                key = key * int(mult) & _MASK
    keys = np.full(len(columns[0]) if columns else 1, key, dtype=np.uint64)
    for col in columns:
        col = np.array(col, dtype=np.uint64)
        col += _GAMMA
        keys ^= col
        _mix(keys)
    return keys


def _stream(keys, start, count):
    """Draws ``start`` .. ``start + count - 1`` of the SplitMix64 stream
    (Steele, Lea and Flood, OOPSLA 2014) of each state in ``keys``, one row
    of ``count`` uniform [0, 1) floats per state.

    Draw d is ``(mix(key + (d + 1) gamma) >> 11) * 2**-53``: SplitMix64's
    (d + 1)-th output for state ``key``, mapped to [0, 1) as
    ``Generator.random`` maps a 64-bit word.  ``start`` is one offset, or
    one per state.  Every row is evaluated at once, in place, in uint64
    arithmetic on arrays, so no draw depends on another row."""
    z = np.empty((keys.size, count), dtype=np.uint64)
    np.add(np.asarray(start, dtype=np.uint64)[..., None], np.arange(1, count + 1, dtype=np.uint64), out=z)
    z *= _GAMMA
    z += keys[:, None]
    _mix(z)
    z >>= 11
    return z * 2.0**-53


def random_instance(cfg, kernel, n, seed):
    """Deterministically sample an :class:`Instance` meeting all margins:
    one trial for an int ``seed``, and for a sequence of seeds their stack,
    with the members in seed order, each with point sets x, y, z.

    Each trial draws its rounds in order on its own SplitMix64 stream
    (:func:`_stream`), keyed by the words (kernel stream, n, 1, seed, base
    seed; the 1 once marked a third point set), so a trial's instance
    depends on these five words alone, whatever stack it is drawn in; the
    first three are the same for every trial of a call, and are folded
    once.  A round is one row of uniforms: for x, y and z, n draws for the
    first coordinate and then n for the second, and the parameter's two
    draws last.  The kernel's ``points`` and ``lam`` maps turn them into
    samples, and each trial takes its first admissible round.  Rounds are
    drawn and tested in blocks, as arrays, and the instances are bit for
    bit those of one round at a time.  One rule makes every block: the
    first ``cap // size``
    pending trials, in seed order, each draw ``size`` rounds, where ``cap``
    is the rounds that fit ``_PAIR_BUDGET`` points (at least one) and
    ``size`` is one more than the rounds the first pending trial has
    drawn, or 3 if it has drawn none, at most ``cap`` and at most what it
    has left of ``_MAX_ROUNDS``.  So a pending trial has drawn 3, 7,
    15, ... rounds after each block (the rule's first two blocks, 1 round
    and 2, drawn as one) until a block holds ``cap`` rounds, no block holds
    more than ``_PAIR_BUDGET`` points (or more than one round, where one
    round alone holds more), and :func:`_margins_ok` tests a block in time
    and memory linear in its points.  The first block is three rounds for
    each trial the cap admits, and a block shrinks to one trial as its
    rounds grow, so a stack that exhausts costs little more than its first
    exhausting trial.

    The instance's kernel copy is marked ``margined``: every block a
    builder zero-tests on it is one :func:`_margins_ok` measured at
    ``sep_min`` >= ``ZERO_TOL``, so the builders skip that test (see
    ``cauchy._fused``).

    Raises :class:`SamplingExhausted` if the separation requirement cannot
    be met in the sampling region (or after the round limit).  Before any
    draw, an ``n`` that is not one integer raises TypeError, a seed that is
    not an integer ValueError, and one outside 0 .. 2**32 - 1 OverflowError.
    """
    n, seeds = as_integer(n, "n"), cauchy._seeds(seed)
    if n < 1 or not seeds.size:
        raise ValueError("n must be >= 1, and a sequence of seeds nonempty")
    spec, lat = kernel.spec, kernel.lattice
    if 3 * n * cfg.sep_min**2 > spec.area(lat):
        raise SamplingExhausted(f"{n} points with separation {cfg.sep_min} cannot fit the sampling region")
    keys = _stream_keys([spec.stream, n, 1], [seeds.ravel(), np.full(seeds.size, cfg.base_seed)])
    width = 6 * n + 2  # x, y and z, each as two rows of n, and lambda's two
    cap = max(1, _PAIR_BUDGET // (3 * n))  # rounds per block
    sets = np.empty((3, len(keys), n), dtype=complex)
    lam = np.empty(len(keys), dtype=complex)
    ok = np.zeros(len(keys), dtype=bool)
    drawn = np.zeros(len(keys), dtype=int)  # rounds drawn per trial
    while not ok.all():
        # a prefix of the pending trials, in seed order, draws one block:
        # no later pending trial has drawn more rounds than the first
        pending = np.flatnonzero(~ok)
        head = drawn[pending[0]]
        if head >= _MAX_ROUNDS:
            raise SamplingExhausted(f"no admissible instance after {_MAX_ROUNDS} rounds")
        # the first block draws the rounds of the rule's first two, 1 and 2
        size = min(head + 1 if head else 1 + 2, cap, _MAX_ROUNDS - head)
        group = pending[:cap // size]
        draws = _stream(keys[group], drawn[group] * width, size * width).reshape(-1, width)
        uv = draws[:, :-2].reshape(len(draws), 3, 2, n)
        block_sets = spec.points(lat, uv[:, :, 0], uv[:, :, 1]).swapaxes(0, 1)
        block_lam = spec.lam(lat, draws[:, -2], draws[:, -1])
        passed = _margins_ok(kernel, block_sets, block_lam, cfg.sep_min).reshape(len(group), size)
        drawn[group] += size
        done = passed.any(axis=1)
        took, first = group[done], passed.argmax(axis=1)[done] + size * np.flatnonzero(done)
        sets[:, took], lam[took], ok[took] = block_sets[:, first], block_lam[first], True
    if seeds.ndim == 0:
        sets, lam = sets[:, 0], lam[0]
    inst = Instance(kernel=kernel, x=sets[0], y=sets[1], z=sets[2], lam=lam, seed=seeds.reshape(lam.shape))
    # every block a builder zero-tests on the stack was measured above
    object.__setattr__(inst.kernel, "margined", True)
    return inst


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


#: name of a ``cauchy`` function -> its arguments on an instance, for the
#: products that several checks read
_PRODUCTS = {
    "cauchy_matrix": lambda inst: (inst.kernel, inst.x, inst.y, inst.lam),
    "frobenius_det": lambda inst: (inst.kernel, inst.x, inst.y, inst.lam),
    "g_matrix": lambda inst: (inst.kernel, inst.x, inst.y, inst.lam + inst.y.sum(axis=-1)),
    "k_matrix": lambda inst: (inst.x, inst.y),
}


def _shared(inst, name):
    """The instance's product ``name``, computed on the first request and
    kept, read-only, in its store: C(x,y;lam) (``cauchy_matrix``), its
    closed determinant (``frobenius_det``), G_{lam+Y}(x,y) (``g_matrix``)
    and K(x,y) (``k_matrix``), with the arguments ``_PRODUCTS`` gives.  Each
    function is looked up by module name at call time, so a wrapper
    installed on the name sees the one call per instance."""
    store = inst._shared
    if name not in store:
        value = getattr(cauchy, name)(*_PRODUCTS[name](inst))
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        store[name] = value
    return store[name]


def check_determinant(inst, tag):
    """LU determinant of C(x,y;lam) against the closed Frobenius form, on
    the instance's kernel, at reference magnitude |closed|, or 1 where that
    is below ``_ABS_SWITCH`` (or NaN)."""
    mat = _shared(inst, "cauchy_matrix")
    closed = _shared(inst, "frobenius_det")
    ref = np.abs(closed)
    return np.abs(linalg.lu_det(mat) - closed), np.where(ref >= _ABS_SWITCH, ref, 1.0)


def check_inverse(inst, tag):
    """Closed-form inverse X of C: the worse backward error of C X and of
    X C as the identity."""
    inv = cauchy.cauchy_inverse_closed(inst.kernel, inst.x, inst.y, inst.lam)
    mat, eye = _shared(inst, "cauchy_matrix"), np.eye(inst.n)
    return np.maximum(linalg.backward_error(mat, inv, eye), linalg.backward_error(inv, mat, eye)), 1.0


def check_product_identity(inst, tag):
    """G_{lam+Y}(x,y) G_{lam+Z}(y,z) = G_{lam+Z}(x,z); under the k-rational
    tag the parameter-free limit matrices K satisfy K(x,y)K(y,z) = K(x,z)."""
    x, y, z = inst.x, inst.y, inst.z
    if tag == "k-rational":
        a, b, rhs = _shared(inst, "k_matrix"), cauchy.k_matrix(y, z), cauchy.k_matrix(x, z)
    else:
        lam_z, kern = inst.lam + z.sum(axis=-1), inst.kernel
        a, b = _shared(inst, "g_matrix"), cauchy.g_matrix(kern, y, z, lam_z)
        rhs = cauchy.g_matrix(kern, x, z, lam_z)
    return linalg.backward_error(a, b, rhs), 1.0


def check_transposed_identity(inst, tag):
    """Signed transposed identity H_{lam-X}(x,y) H_{lam-Y}(y,z) = -H_{lam-X}(x,z),
    exactly as displayed including the minus sign."""
    x, y, z = inst.x, inst.y, inst.z
    lam = inst.lam
    kern = inst.kernel
    x_sum = x.sum(axis=-1)
    a, b = cauchy.h_matrix(kern, x, y, lam - x_sum), cauchy.h_matrix(kern, y, z, lam - y.sum(axis=-1))
    return linalg.backward_error(a, b, -cauchy.h_matrix(kern, x, z, lam - x_sum)), 1.0


def check_factorization(inst, tag):
    """G_{lam+Y}(x,y) = g_lam(x) g_lam(y)^-1 with both on the instance's
    kernel, checked without an inverse as G g(y) = g(x); under the
    k-rational tag, K(x,y) W(y) = W(x)."""
    x, y = inst.x, inst.y
    if tag == "k-rational":
        lhs = _shared(inst, "k_matrix")
        gx, gy = cauchy.w_matrix(x), cauchy.w_matrix(y)
    else:
        lhs = _shared(inst, "g_matrix")
        gx, gy = cauchy.g_factor(inst.kernel, x, inst.lam), cauchy.g_factor(inst.kernel, y, inst.lam)
    return linalg.backward_error(lhs, gy, gx), 1.0


def check_gauss(inst, tag):
    """UDL decomposition: the worse of the backward error of (U D) L as C
    and the determinant consistency prod_j D_jj = Frobenius determinant.
    U and L are the triangles of matrices divided by their own diagonals,
    so their structure holds exactly and is not checked."""
    u, d, l = cauchy.gauss_udl(inst.kernel, inst.x, inst.y, inst.lam)
    product = linalg.backward_error(u @ d, l, _shared(inst, "cauchy_matrix"))
    det_closed = _shared(inst, "frobenius_det")
    det_diag = np.prod(np.diagonal(d, axis1=-2, axis2=-1), axis=-1)
    return _worst([product, np.abs(det_diag - det_closed) / np.abs(det_closed)], inst.x.shape[:-1]), 1.0


def check_monodromy(inst, tag):
    """Quasi-periodicity multipliers at the instance's points: sigma at x
    and y, the sigma_k family for k = 1..N at x_1 and y_1, and the Bloch
    multipliers of the expansion with poles x and coefficients y at the
    points y, under both period shifts.  The sampler keeps every x_i - y_j
    at least ``sep_min`` from the lattice, so no point is near a pole."""
    lat = inst.kernel.lattice
    x, y, n = inst.x, inst.y, inst.n
    pts = np.concatenate([x, y], axis=-1)
    firsts = pts[..., ::n]  # x_1 and y_1

    # axis -2 (after the stack): unshifted, shifted by 2 omega, shifted by 2 omega'
    shifts = np.array([0, 2 * lat.omega, 2 * lat.omega_prime])[:, None]
    s = sigma(lat, pts[..., None, :] + shifts)
    sks = sigma_k(lat, n, np.arange(1, n + 1), firsts[..., None, :] + shifts)
    psi = cauchy.bloch_eval(lat, x, y, inst.lam, y[..., None, :] + shifts)

    residuals = []
    sign = (-1.0) ** n
    for row, (half, eta) in enumerate(((lat.omega, lat.eta), (lat.omega_prime, lat.eta_prime)), 1):
        expect = -np.exp(2 * eta * (pts + half)) * s[..., 0, :]
        residuals.append(np.abs(s[..., row, :] - expect).max(axis=-1) / np.abs(expect).max(axis=-1))
        # sigma_k for every k at once, along the trailing axis
        b = (sign * np.exp(2 * eta * n * (firsts + half)))[..., None] * sks[..., 0, :, :]
        residuals.append(np.abs(sks[..., row, :, :] - b).max(axis=-2) / np.abs(b).max(axis=-2))
        mult = np.exp(2 * eta * np.asarray(inst.lam)[..., None])
        base = psi[..., 0, :]
        residuals.append(np.abs(psi[..., row, :] - mult * base) / np.abs(mult * base))
    return _worst(residuals, x.shape[:-1]), 1.0


def check_degeneration(inst, tag):
    """A directed limit check on a rational instance, with a convergence
    rate verdict as a third value.

    Under the rational tag the rational G matrix approaches K as the
    parameter grows, with error O(1/lambda); under the trig tag the
    trigonometric G matrix under uniform argument scaling approaches the
    rational one with error O(eps^2).
    """
    x, y = inst.x, inst.y
    if tag == "rational":
        ref = cauchy.k_matrix(x, y)
        limits = [cauchy.g_matrix(RATIONAL_KERNEL, x, y, np.full(np.shape(inst.lam), lam)) for lam in (1e6, 1e7)]
        rate = 0.25  # linear: a decade in lambda buys a decade of residual
    else:
        ref = cauchy.g_matrix(RATIONAL_KERNEL, x, y, inst.lam)
        limits = [cauchy.g_matrix(TRIG_KERNEL, eps * x, eps * y, eps * inst.lam) for eps in (1e-4, 1e-5)]
        rate = 0.05  # quadratic: a decade in eps buys ~two decades of residual
    scale = np.abs(ref).max(axis=(-2, -1))
    r = [linalg.max_abs_residual(g, ref) / scale for g in limits]
    return r[0] * scale, scale, r[1] < rate * r[0]


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Identity:
    """One catalogue entry: the claim, where it is checked, and how strictly."""

    name: str
    doc: str  # the catalogue line printed by ``ellcauchy list``
    plan: tuple  # (kernel tag, instance variant) pairs: the only kernels it runs on
    checker: Callable  # (inst, kernel tag) -> (abs residual, reference magnitude[, rate verdict]), per member
    n_cap: int | None = None  # larger point counts are not checked
    tol_factor: float = 1.0  # multiplies the base tolerance
    fixed_n: int | None = None  # checked once, on the base seed's instance of this size
    fixed_tol: dict | None = None  # kernel tag -> tolerance, whatever the base

    def tolerance(self, tag, n, base=SuiteConfig.tolerance):
        """Tolerance ladder: the fixed tolerance of the tag, if any, else the
        identity's factor times ``base`` (the determinant, factorization and
        monodromy checks involve no matrix inversion and are 10x tighter),
        with scalar N=1 cases capped at 1e-12."""
        if self.fixed_tol is not None:
            return self.fixed_tol[tag]
        t = base * self.tol_factor
        return min(t, 1e-12) if n == 1 else t

    def check(self, inst, tag, base_tol):
        """Run the checker once on an instance and judge the whole stack at
        this identity's tolerance: a list of :class:`Report`, one per member
        in stack order (one for a single trial), each with the stack's time
        divided among its members.  That time includes the shared products
        (C(x,y;lam), its closed determinant, G_{lam+Y}(x,y) and K(x,y)) this
        check is the first on the instance to ask for, and leaves out those
        an earlier check computed.  The checker's values become Python
        lists once, a value given once for the stack repeated for every
        member, and each member is judged in Python floats: its relative
        residual is its absolute residual over its reference magnitude, in
        the bits numpy's float64 division gives (a zero reference gives an
        infinite or NaN residual, with no warning), and it fails if that
        exceeds the tolerance, either is not finite or its rate verdict
        fails.  Raises ValueError for a kernel tag outside the plan, or an
        instance of another variant than the plan names for it."""
        plan = dict(self.plan)
        if tag not in plan:
            raise ValueError(f"{self.name} does not run on the {tag} kernel")
        if inst.kernel.variant != plan[tag]:
            raise ValueError(f"{self.name} on {tag} got a {inst.kernel.variant} instance")
        t0 = time.perf_counter()
        out = self.checker(inst, tag)
        seeds = np.ravel(inst.seed).tolist()
        size = len(seeds)
        elapsed_ms = (time.perf_counter() - t0) * 1e3 / size
        n = inst.n
        tol = float(self.tolerance(tag, n, base_tol))
        # a checker without a rate verdict passes it
        abs_res, ref_mag, rate_ok = (*out, True)[:3]
        columns = (_per_member(v, dtype, size) for v, dtype in ((abs_res, float), (ref_mag, float), (rate_ok, bool)))
        reports = []
        for seed, a, r, rate in zip(seeds, *columns):
            rel = _quotient(a, r)
            passed = rate and rel <= tol and math.isfinite(a) and math.isfinite(r)
            reports.append(Report(self.name, tag, n, seed, a, rel, tol, passed, elapsed_ms))
        return reports


def _per_member(value, dtype, size):
    """A checker's value as a list of ``size`` Python floats or bools, one
    per member of a stack: a value given once for the stack is repeated.
    Any other shape raises ValueError."""
    value = np.asarray(value, dtype=dtype)
    if value.ndim == 0:
        return [value.item()] * size
    if value.shape != (size,):
        raise ValueError(f"a checker value of shape {value.shape} for {size} members")
    return value.tolist()


def _quotient(a, r):
    """a / r in IEEE double arithmetic, the bits of numpy's float64
    division: Python divides two floats as C does, and only a zero ``r``,
    where Python raises, goes to numpy (x / 0 is inf of the sign of the
    quotient, 0 / 0 and NaN / 0 are NaN), with its warnings off."""
    if r:
        return a / r
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.float64(a) / r)


#: name -> identity, in catalogue order.  The checkers are looked up by
#: name at call time, so a wrapper installed on a module name sees every
#: check.  A kernel tag names the form checked; the k-rational tag runs
#: the parameter-free form on the rational kernel, and degeneration's trig
#: tag the trigonometric limit on a rational instance.
REGISTRY = {
    ident.name: ident
    for ident in (
        Identity(
            "determinant",
            "det C(x,y;L) = s(L+X-Y)/s(L) * prod_{a<b} s(x_a-x_b) s(y_b-y_a) / prod_{a,b} s(x_a-y_b)",
            (("elliptic", "elliptic"), ("rational", "rational")),
            lambda inst, tag: check_determinant(inst, tag),
            tol_factor=0.1,
        ),
        Identity(
            "inverse",
            "C(x,y;L)^-1 = D(y,x) C(y,x; L+X-Y) D(x,y), entrywise closed form",
            (("elliptic", "elliptic"), ("rational", "rational")),
            lambda inst, tag: check_inverse(inst, tag),
        ),
        Identity(
            "product",
            "G_{L+Y}(x,y) G_{L+Z}(y,z) = G_{L+Z}(x,z); K(x,y)K(y,z) = K(x,z) in the parameter-free limit",
            (("elliptic", "elliptic"), ("trig", "trig"), ("rational", "rational"), ("k-rational", "rational")),
            lambda inst, tag: check_product_identity(inst, tag),
        ),
        Identity(
            "transposed",
            "H_{L-X}(x,y) H_{L-Y}(y,z) = -H_{L-X}(x,z) with H_L(x,y) = C(x,y;L) D(y,x)",
            (("elliptic", "elliptic"),),
            lambda inst, tag: check_transposed_identity(inst, tag),
        ),
        Identity(
            "factorization",
            "G_{L+Y}(x,y) = g_L(x) g_L(y)^-1 (elliptic/trig/rational); K(x,y) = W(x) W(y)^-1",
            (("elliptic", "elliptic"), ("trig", "trig"), ("rational", "rational"), ("k-rational", "rational")),
            lambda inst, tag: check_factorization(inst, tag),
            n_cap=6,  # the record counts pinned in perfbench/workloads.py assume this cap
            tol_factor=0.1,
        ),
        Identity(
            "gauss",
            "C = U D L with unit upper/lower triangular U, L and diagonal D",
            (("elliptic", "elliptic"),),
            lambda inst, tag: check_gauss(inst, tag),
        ),
        Identity(
            "monodromy",
            "multipliers of sigma, sigma_k and Bloch expansions under full-period shifts",
            (("elliptic", "elliptic"),),
            lambda inst, tag: check_monodromy(inst, tag),
            n_cap=6,  # the record counts pinned in perfbench/workloads.py assume this cap
            tol_factor=0.1,
        ),
        Identity(
            "degeneration",
            "rational G_L(x,y) -> K(x,y) as L -> oo at O(1/L); trig G(ex,ey;eL) -> rational G as e -> 0 at O(e^2)",
            (("rational", "rational"), ("trig", "rational")),
            lambda inst, tag: check_degeneration(inst, tag),
            fixed_n=5,
            fixed_tol={"rational": 1e-4, "trig": 1e-3},
        ),
    )
}


def run_suite(cfg, identities=None, kernels=None):
    """Run the selected identities over n_values x trials_per_n seeded trials.

    ``kernels``, when given, is a set of kernel variants: each identity
    runs on the tags of its plan that, with any ``k-`` prefix removed, are
    in the set.  An unknown or repeated identity name, or an unknown kernel
    variant, raises ValueError naming it.  Each check is judged by
    :meth:`Identity.check` at base tolerance ``cfg.tolerance``.  The checks
    are grouped by stack, one per (instance variant, N), so every identity
    of one (kernel, N, seed) reads one instance; an identity with a fixed
    size checks only the stack's first member, the base seed's instance.
    Each stack is sampled in one :func:`random_instance` call, as one
    :class:`~ellcauchy.cauchy.Instance` with a leading trial axis, each
    trial on its own RNG stream, on the lattice ``cfg.lattice()``, which is
    built only if some stack is elliptic: the flat kernels read none.  Every identity and kernel tag that uses
    the stack checks it in one call, sharing its kernel memo and product
    store, and the stack is dropped before the next is sampled, so only
    one stack is held at a time.  A function patched on a
    module name reaches every check as long as it is in place before this
    call builds the instances.

    Returns reports sorted by (identity, kernel, n, seed).  A check whose
    residual misses its tolerance is recorded as a failed report, but any
    :class:`~ellcauchy.errors.EllCauchyError` raised while sampling or
    checking ends the whole run: it propagates and no reports are returned.
    """
    names = list(identities) if identities is not None else list(REGISTRY)
    unknown = sorted(set(names) - set(REGISTRY)) + sorted(set(kernels or ()) - set(cauchy.KERNELS))
    if unknown:
        raise ValueError(f"unknown identities or kernel variants: {unknown}")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"identities repeats a name: {repeated}")
    trials = [cfg.base_seed + trial for trial in range(cfg.trials_per_n)]
    jobs = {}  # (variant, n) -> (seeds, [(identity, kernel tag)] in the order of names)
    for name in names:
        ident = REGISTRY[name]
        if ident.fixed_n:
            sizes, seeds_of = [ident.fixed_n], trials[:1]
        else:
            sizes, seeds_of = [n for n in cfg.n_values if ident.n_cap is None or n <= ident.n_cap], trials
        for tag, variant in ident.plan:
            if kernels is not None and tag.removeprefix("k-") not in kernels:
                continue
            for n in sizes:
                seeds, todo = jobs.setdefault((variant, n), ({}, []))
                seeds.update(dict.fromkeys(seeds_of))
                todo.append((ident, tag))

    # only the elliptic kernel reads the lattice, so a run without it
    # builds none, and no lattice that lattice_new refuses aborts it
    lat = cfg.lattice() if any(variant == "elliptic" for variant, _ in jobs) else None
    reports = []
    for (variant, n), (seeds, todo) in jobs.items():
        stack = random_instance(cfg, Kernel(variant, lat), n, list(seeds))
        for ident, tag in todo:
            # every stack starts with the base seed, whichever entry made it
            reports.extend(ident.check(stack.member(0) if ident.fixed_n else stack, tag, cfg.tolerance))
        del stack  # dropped, with its memo, before the next stack is sampled
    reports.sort(key=lambda r: (r.identity_name, r.kernel, r.n, r.seed))
    return reports
