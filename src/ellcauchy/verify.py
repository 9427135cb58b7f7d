"""Residual checkers for every closed-form matrix identity, and their judge.

Each checker takes a seeded random :class:`~ellcauchy.cauchy.Instance`, one
trial or a stack of them, and a kernel tag, and returns
``(abs_residual, reference_magnitude)`` for the two sides of an identity,
one of each per member of a stack, and the degeneration checker a rate
verdict as a third value; determinant and inverse claims are
additionally cross-checked against the pivoted-LU oracle in
:mod:`ellcauchy.linalg`, which factors a whole stack in one call, and the
factorization is checked as a product, with no inverse, by its
componentwise residual.  The sampler keeps one margin rule for every kernel
and samples a whole stack of trials in one call: it tests their rounds in
blocks, as arrays, and picks bit for bit the instances that a loop over
single rounds would.  Its close-pair screen tests every pair of a small
block, and sorts and sweeps the points of a large one, so its cost is
linear in a block's points.
:meth:`Identity.check` alone decides where a checker runs, times it and
judges each member's residual into a :class:`Report`.  Everything is a pure
function of (config, seed), so suite runs are reproducible byte for byte
(timings aside).  Degeneration is a registry entry like the rest, checked
once, at a fixed size and tolerance.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import cauchy, linalg
from .cauchy import RATIONAL_KERNEL, TRIG_KERNEL, Instance, Kernel
from .errors import SamplingExhausted
from .weierstrass import lattice_distance, lattice_new, sigma, sigma_k

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

#: rounds the pending trials of a stack draw in shared blocks; past them the
#: first pending trial draws on alone, so a stack that exhausts costs little
#: more than its first exhausting trial
_SHARED_ROUNDS = 32

#: reference magnitudes below this switch the pass criterion to absolute
_ABS_SWITCH = 1e-10


@dataclass(frozen=True)
class Report:
    """Per-identity verification result for one instance."""

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
            n_values = tuple(operator.index(n) for n in self.n_values)
            trials = operator.index(self.trials_per_n)
            base_seed = operator.index(self.base_seed)
        except TypeError:
            raise ValueError("n_values, trials_per_n and base_seed must be integers") from None
        if not n_values or min(n_values) < 1 or trials < 1:
            raise ValueError("n_values must be nonempty, and its entries and trials_per_n >= 1")
        if len(set(n_values)) != len(n_values):
            raise ValueError(f"n_values repeats a size: {n_values}")
        # each trial's seed is one 32-bit word of its RNG seed
        if base_seed < 0 or base_seed + trials > 2**32:
            raise ValueError(f"the seeds base_seed .. base_seed + trials_per_n - 1 must lie in 0 .. {2**32 - 1}")
        object.__setattr__(self, "n_values", n_values)
        object.__setattr__(self, "trials_per_n", trials)
        object.__setattr__(self, "base_seed", base_seed)
        tau = complex(self.lattice_tau)
        if not (np.isfinite(tau) and tau.imag > 0):
            raise ValueError("lattice_tau must be finite with Im(lattice_tau) > 0")
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be finite and positive")
        # the builders' own zero test: a smaller margin would let the sampler
        # accept an instance that a builder refuses with KernelZero
        if not cauchy.ZERO_TOL <= self.sep_min < math.inf:
            raise ValueError(f"sep_min must be finite and at least {cauchy.ZERO_TOL}")

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

    ``sets`` holds the point sets with a leading round axis, shape
    (sets, rounds, n), and ``lam`` one parameter per round; one round may
    leave the round axis out.  A round keeps its margins when the zero
    distance of each difference of two of its points, of lambda, of lambda
    plus and minus each set sum and X - Y, and of the Gauss ladder lambda_j
    and lambda_j + x_j - y_j is at least ``margin``.  The rule is the same
    for every kernel.

    Both screens read one round-major view of the points, (rounds, sets * n).
    A zero distance never exceeds the modulus (0 is a zero), so a pair
    closer than ``margin`` in the plane rejects its round without a kernel
    call.  A block whose pair differences fit ``_PAIR_BUDGET`` screens
    every pair of every round, and keeps the differences for the kernel
    call; a larger block screens by :func:`_sorted_screen`, in time and
    memory linear in its points, with the same verdicts.  Every margin of
    the rounds that pass the screen is then measured by zero-distance
    calls of at most ``_PAIR_BUDGET`` pair differences each (or of one
    round, where one round alone holds more), which also catch a pair
    that is close only across a period.  Both tests measure each unordered
    pair once: the zero distance is even.
    """
    sets = np.asarray(sets, dtype=complex)
    n_sets, n = len(sets), sets.shape[-1]
    sets = sets.reshape(n_sets, -1, n)
    lam = np.reshape(lam, -1)
    pts = sets.transpose(1, 0, 2).reshape(-1, n_sets * n)
    pairs = math.comb(n_sets * n, 2)
    if len(pts) * pairs <= _PAIR_BUDGET:
        diff = cauchy._pair_diffs(pts)
        ok = ~(np.abs(diff) < margin).any(axis=-1)
    else:
        diff, ok = None, _sorted_screen(pts, margin)
    kept = np.flatnonzero(ok)
    chunk = max(1, _PAIR_BUDGET // pairs)  # rounds per zero-distance call
    for start in range(0, kept.size, chunk):
        rows = kept[start:start + chunk]
        # the chunk's temporaries live in the call, and are freed before the next
        ok[rows] = _kernel_margins(
            kernel, sets[:, rows], lam[rows], cauchy._pair_diffs(pts[rows]) if diff is None else diff[rows]
        ) >= margin
    return ok


def _kernel_margins(kernel, sets, lam, pairs):
    """Each round's smallest zero distance over the differences of two of
    its points, ``pairs`` of shape (rounds, pairs), lambda and its shifts,
    and the Gauss ladder."""
    x, y = sets[0], sets[1]
    sums = sets.sum(axis=-1)
    shifts = np.concatenate([np.zeros((1, lam.size)), sums, sums[:1] - sums[1:2]]).T
    lams = cauchy.gauss_lambda_ladder(x, y, lam)
    lam = lam[:, None]
    args = np.concatenate([pairs, lam + shifts, lam - shifts, lams, x - y + lams], axis=-1)
    return kernel.zero_distance(args).min(axis=-1)


def random_instance(cfg, kernel, n, seed, with_z=False):
    """Deterministically sample an :class:`Instance` meeting all margins:
    one trial for an int ``seed``, and for a sequence of seeds their stack,
    with the members in seed order.

    Each trial draws its rounds in order on its own RNG stream.  A round is
    one row of uniforms: for each point set, n draws for the first
    coordinate and then n for the second, and the parameter's two draws
    last.  The kernel's ``points`` and ``lam`` maps turn them into samples
    exactly as per-coordinate ``Generator.uniform`` calls would, and each
    trial takes its first admissible round.  Rounds are drawn and tested
    in blocks, as arrays, and the instances are bit for bit those of one
    round at a time.  The first block is one round for every trial; the
    trials still pending then draw blocks of rounds that double, together
    until they have drawn ``_SHARED_ROUNDS`` rounds, and after that the
    first pending trial alone, up to ``_MAX_ROUNDS`` rounds each.  No block
    holds more than ``_PAIR_BUDGET`` points (or more than one round, where
    one round alone holds more), and :func:`_margins_ok` tests it in time
    and memory linear in its points.

    Raises :class:`SamplingExhausted` if the separation requirement cannot
    be met in the sampling region (or after the round limit).
    """
    single = np.ndim(seed) == 0
    seeds = np.ravel(seed)
    if n < 1 or not seeds.size:
        raise ValueError("n must be >= 1, and a sequence of seeds nonempty")
    spec, lat = kernel.spec, kernel.lattice
    n_sets = 3 if with_z else 2
    if n * n_sets * cfg.sep_min**2 > spec.area(lat):
        raise SamplingExhausted(
            f"{n} points with separation {cfg.sep_min} cannot fit the sampling region"
        )
    # one 32-bit word per entry: the same entropy as the list of ints, which
    # numpy would coerce word by word, at about two thirds of the cost (a
    # seed outside 0 .. 2**32 - 1 raises OverflowError)
    entropy = np.array(
        [[spec.stream, n, int(with_z), s, cfg.base_seed] for s in seeds.tolist()], dtype=np.uint32
    )
    rngs = [np.random.default_rng(words) for words in entropy]
    width = 2 * n * n_sets + 2
    cap = max(1, _PAIR_BUDGET // (n * n_sets))  # rounds per block
    sets = np.empty((n_sets, len(rngs), n), dtype=complex)
    lam = np.empty(len(rngs), dtype=complex)
    ok = np.zeros(len(rngs), dtype=bool)
    drawn = np.zeros(len(rngs), dtype=int)  # rounds drawn per trial
    while not ok.all():
        # a prefix of the pending trials, in seed order, draws one block:
        # no later pending trial has drawn more rounds than the first
        pending = np.flatnonzero(~ok)
        head = drawn[pending[0]]
        if head >= _MAX_ROUNDS:
            raise SamplingExhausted(f"no admissible instance after {_MAX_ROUNDS} rounds")
        size = min(head + 1, cap, _MAX_ROUNDS - head)
        group = pending[:1] if head >= _SHARED_ROUNDS else pending[:cap // size]
        draws = np.concatenate([rngs[b].random((size, width)) for b in group])
        uv = draws[:, :-2].reshape(len(draws), n_sets, 2, n)
        block_sets = spec.points(lat, uv[:, :, 0], uv[:, :, 1]).swapaxes(0, 1)
        block_lam = spec.lam(lat, draws[:, -2], draws[:, -1])
        passed = _margins_ok(kernel, block_sets, block_lam, cfg.sep_min).reshape(len(group), size)
        drawn[group] += size
        done = passed.any(axis=1)
        took, first = group[done], passed.argmax(axis=1)[done] + size * np.flatnonzero(done)
        sets[:, took], lam[took], ok[took] = block_sets[:, first], block_lam[first], True
    if single:
        sets, lam, seeds = sets[:, 0], lam[0], seed
    return Instance(kernel=kernel, x=sets[0], y=sets[1], z=sets[2] if with_z else None, lam=lam, seed=seeds)


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def check_determinant(inst, tag):
    """LU determinant of C(x,y;lam) against the closed Frobenius form, on
    the instance's kernel."""
    x, y, kern = inst.x, inst.y, inst.kernel
    mat = cauchy.cauchy_matrix(kern, x, y, inst.lam)
    closed = cauchy.frobenius_det(kern, x, y, inst.lam)
    return np.abs(linalg.lu_det(mat) - closed), np.abs(closed)


def check_inverse(inst, tag):
    """Closed-form inverse: residual of C C^-1 against the identity, plus a
    cross-check against the LU inverse."""
    x, y, kern = inst.x, inst.y, inst.kernel
    mat = cauchy.cauchy_matrix(kern, x, y, inst.lam)
    inv = cauchy.cauchy_inverse_closed(kern, x, y, inst.lam)
    r_id = linalg.max_abs_residual(mat @ inv, np.broadcast_to(np.eye(inst.n), inv.shape))
    r_lu = linalg.rel_residual(inv, linalg.lu_inverse(mat))
    return _worst([r_id, r_lu], x.shape[:-1]), 1.0


def check_product_identity(inst, tag):
    """G_{lam+Y}(x,y) G_{lam+Z}(y,z) = G_{lam+Z}(x,z); under the k-rational
    tag the parameter-free limit matrices K satisfy K(x,y)K(y,z) = K(x,z)."""
    x, y, z = inst.x, inst.y, inst.z
    if tag == "k-rational":
        lhs = cauchy.k_matrix(x, y) @ cauchy.k_matrix(y, z)
        rhs = cauchy.k_matrix(x, z)
    else:
        lam = inst.lam
        kern = inst.kernel
        y_sum, z_sum = y.sum(axis=-1), z.sum(axis=-1)
        lhs = cauchy.g_matrix(kern, x, y, lam + y_sum) @ cauchy.g_matrix(kern, y, z, lam + z_sum)
        rhs = cauchy.g_matrix(kern, x, z, lam + z_sum)
    return linalg.max_abs_residual(lhs, rhs), np.abs(rhs).max(axis=(-2, -1))


def check_transposed_identity(inst, tag):
    """Signed transposed identity H_{lam-X}(x,y) H_{lam-Y}(y,z) = -H_{lam-X}(x,z),
    exactly as displayed including the minus sign."""
    x, y, z = inst.x, inst.y, inst.z
    lam = inst.lam
    kern = inst.kernel
    x_sum = x.sum(axis=-1)
    lhs = cauchy.h_matrix(kern, x, y, lam - x_sum) @ cauchy.h_matrix(kern, y, z, lam - y.sum(axis=-1))
    rhs = -cauchy.h_matrix(kern, x, z, lam - x_sum)
    return linalg.max_abs_residual(lhs, rhs), np.abs(rhs).max(axis=(-2, -1))


def check_factorization(inst, tag):
    """G_{lam+Y}(x,y) = g_lam(x) g_lam(y)^-1 with both on the instance's
    kernel, checked without an inverse as G g(y) = g(x); under the
    k-rational tag, K(x,y) W(y) = W(x).  The residual is componentwise, max |G g(y) - g(x)|
    over |G| |g(y)| (the Oettli-Prager backward error; Higham, Accuracy and
    Stability of Numerical Algorithms, sec. 7.2)."""
    x, y = inst.x, inst.y
    if tag == "k-rational":
        lhs = cauchy.k_matrix(x, y)
        gx, gy = cauchy.w_matrix(x), cauchy.w_matrix(y)
    else:
        kern = inst.kernel
        lhs = cauchy.g_matrix(kern, x, y, inst.lam + y.sum(axis=-1))
        gx, gy = cauchy.g_factor(kern, x, inst.lam), cauchy.g_factor(kern, y, inst.lam)
    return _worst([np.abs(lhs @ gy - gx) / (np.abs(lhs) @ np.abs(gy))], x.shape[:-1]), 1.0


def _member_rngs(tag, inst):
    """One seeded generator per member, in stack order: the checker tag and
    the member's (N, seed) pick its stream."""
    return [np.random.default_rng([tag, inst.n, int(seed)]) for seed in np.ravel(inst.seed)]


def check_gauss(inst, tag):
    """UDL decomposition: product residual, triangular/diagonal structure,
    the element-sum form of the decomposition at random entries, and the
    determinant consistency prod_j D_jj = Frobenius determinant."""
    x, y, kern = inst.x, inst.y, inst.kernel
    n = inst.n
    stack = x.shape[:-1]
    u, d, l = cauchy.gauss_udl(kern, x, y, inst.lam)
    mat = cauchy.cauchy_matrix(kern, x, y, inst.lam)
    scale = np.abs(mat).max(axis=(-2, -1))
    residuals = [linalg.max_abs_residual(u @ d @ l, mat) / scale]

    structured = (
        linalg.structure_check(u, "unit_upper", 1e-12)
        & linalg.structure_check(l, "unit_lower", 1e-12)
        & linalg.structure_check(d, "diagonal", 1e-12)
    )
    residuals.append(np.where(structured, 0.0, 1.0))

    # element-sum form: C_ik = sum_{j >= max(i,k)} U_ij D_jj L_jk, at three
    # seeded entries of each member
    sums = []
    members = zip(_member_rngs(3, inst), *(a.reshape((-1, n, n)) for a in (u, d, l, mat)), np.ravel(scale))
    for rng, ub, db, lb, cb, sb in members:
        for _ in range(3):
            i, k = int(rng.integers(n)), int(rng.integers(n))
            s = sum(ub[i, j] * db[j, j] * lb[j, k] for j in range(max(i, k), n))
            sums.append(abs(s - cb[i, k]) / sb)
    residuals.append(np.reshape(sums, stack + (3,)))

    det_closed = cauchy.frobenius_det(kern, x, y, inst.lam)
    det_diag = np.prod(np.diagonal(d, axis1=-2, axis2=-1), axis=-1)
    residuals.append(np.abs(det_diag - det_closed) / np.abs(det_closed))
    return _worst(residuals, stack), 1.0


def check_monodromy(inst, tag):
    """Quasi-periodicity multipliers: sigma under both period shifts, the
    sigma_k family for k = 1..N, and the Bloch multipliers of a random pole
    expansion, all at seeded random points."""
    lat = inst.kernel.lattice
    n = inst.n
    stack = inst.x.shape[:-1]
    poles = inst.x.reshape(-1, n)

    # per member: five points, N pole coefficients and three evaluation
    # points at least 0.05 from the poles
    pts, coeffs, ws = [], [], []
    for rng, member_poles in zip(_member_rngs(4, inst), poles):
        pts.append(2 * rng.uniform(-0.4, 0.4, 5) * lat.omega + 2 * rng.uniform(-0.4, 0.4, 5) * lat.omega_prime)
        coeffs.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        member_ws = []
        while len(member_ws) < 3:
            w = complex(2 * rng.uniform(-0.4, 0.4) * lat.omega + 2 * rng.uniform(-0.4, 0.4) * lat.omega_prime)
            if lattice_distance(lat, w - member_poles).min() >= 0.05:
                member_ws.append(w)
        ws.append(member_ws)
    pts, coeffs, ws = (np.reshape(a, stack + np.shape(a)[1:]) for a in (pts, coeffs, ws))

    # axis -2 (after the stack): unshifted, shifted by 2 omega, shifted by 2 omega'
    shifts = np.array([0, 2 * lat.omega, 2 * lat.omega_prime])[:, None]
    s = sigma(lat, pts[..., None, :] + shifts)
    sks = sigma_k(lat, n, np.arange(1, n + 1), pts[..., None, :2] + shifts)
    psi = cauchy.bloch_eval(lat, inst.x, coeffs, inst.lam, ws[..., None, :] + shifts)

    residuals = []
    sign = (-1.0) ** n
    for row, (half, eta) in enumerate(((lat.omega, lat.eta), (lat.omega_prime, lat.eta_prime)), 1):
        expect = -np.exp(2 * eta * (pts + half)) * s[..., 0, :]
        residuals.append(np.abs(s[..., row, :] - expect).max(axis=-1) / np.abs(expect).max(axis=-1))
        # sigma_k for every k at once, along the trailing axis
        b = (sign * np.exp(2 * eta * n * (pts[..., :2] + half)))[..., None] * sks[..., 0, :, :]
        residuals.append(np.abs(sks[..., row, :, :] - b).max(axis=-2) / np.abs(b).max(axis=-2))
        mult = np.exp(2 * eta * np.asarray(inst.lam)[..., None])
        base = psi[..., 0, :]
        residuals.append(np.abs(psi[..., row, :] - mult * base) / np.abs(mult * base))
    return _worst(residuals, stack), 1.0


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
    plan: tuple  # (kernel tag, instance variant, needs a third point set): the only kernels it runs on
    checker: Callable  # (inst, kernel tag) -> (abs residual, reference magnitude[, rate verdict]), per member
    n_cap: int | None = None  # larger point counts are not checked
    tol_factor: float = 1.0  # multiplies the base tolerance
    fixed_n: int | None = None  # checked once, on the base seed's instance of this size
    fixed_tol: dict | None = None  # kernel tag -> tolerance, whatever the base

    def tolerance(self, tag, n, base=SuiteConfig.tolerance):
        """Tolerance ladder: the fixed tolerance of the tag, if any, else the
        identity's factor times ``base`` (determinant and monodromy checks
        involve no matrix inversion and are 10x tighter), with scalar N=1
        cases capped at 1e-12."""
        if self.fixed_tol is not None:
            return self.fixed_tol[tag]
        t = base * self.tol_factor
        return min(t, 1e-12) if n == 1 else t

    def check(self, inst, tag, base_tol):
        """Run the checker once on an instance and judge each member's
        residual at this identity's tolerance: a list of :class:`Report`,
        one per member in stack order (one for a single trial), each with
        the stack's time divided among its members.  A residual or reference
        magnitude that is not finite fails, and so does a failed rate
        verdict.  Raises ValueError for a kernel tag outside the plan, an
        instance of another variant than the plan names for it, or a
        missing third point set."""
        plan = {t: (variant, with_z) for t, variant, with_z in self.plan}
        if tag not in plan:
            raise ValueError(f"{self.name} does not run on the {tag} kernel")
        variant, with_z = plan[tag]
        if inst.kernel.variant != variant:
            raise ValueError(f"{self.name} on {tag} got a {inst.kernel.variant} instance")
        if with_z and inst.z is None:
            raise ValueError(f"{self.name} needs a third point set")
        t0 = time.perf_counter()
        out = self.checker(inst, tag)
        seeds = np.ravel(inst.seed)
        elapsed_ms = (time.perf_counter() - t0) * 1e3 / seeds.size
        tol = float(self.tolerance(tag, inst.n, base_tol))
        # a checker without a rate verdict passes it
        abs_res, ref_mag, rate_ok = (np.broadcast_to(v, seeds.shape) for v in (*out, True)[:3])
        reports = []
        for seed, a, r, ok in zip(seeds, abs_res, ref_mag, rate_ok):
            rel = float(a / r if r >= _ABS_SWITCH else a)
            passed = bool(ok) and rel <= tol and math.isfinite(a) and math.isfinite(r)
            reports.append(Report(self.name, tag, inst.n, int(seed), float(a), rel, tol, passed, elapsed_ms))
        return reports


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
            (("elliptic", "elliptic", False), ("rational", "rational", False)),
            lambda inst, tag: check_determinant(inst, tag),
            tol_factor=0.1,
        ),
        Identity(
            "inverse",
            "C(x,y;L)^-1 = D(y,x) C(y,x; L+X-Y) D(x,y), entrywise closed form",
            (("elliptic", "elliptic", False), ("rational", "rational", False)),
            lambda inst, tag: check_inverse(inst, tag),
        ),
        Identity(
            "product",
            "G_{L+Y}(x,y) G_{L+Z}(y,z) = G_{L+Z}(x,z); K(x,y)K(y,z) = K(x,z) in the parameter-free limit",
            (
                ("elliptic", "elliptic", True),
                ("trig", "trig", True),
                ("rational", "rational", True),
                ("k-rational", "rational", True),
            ),
            lambda inst, tag: check_product_identity(inst, tag),
        ),
        Identity(
            "transposed",
            "H_{L-X}(x,y) H_{L-Y}(y,z) = -H_{L-X}(x,z) with H_L(x,y) = C(x,y;L) D(y,x)",
            (("elliptic", "elliptic", True),),
            lambda inst, tag: check_transposed_identity(inst, tag),
        ),
        Identity(
            "factorization",
            "G_{L+Y}(x,y) = g_L(x) g_L(y)^-1 (elliptic/trig/rational); K(x,y) = W(x) W(y)^-1",
            (
                ("elliptic", "elliptic", False),
                ("trig", "trig", False),
                ("rational", "rational", False),
                ("k-rational", "rational", False),
            ),
            lambda inst, tag: check_factorization(inst, tag),
            n_cap=6,  # the record counts pinned in perfbench/workloads.py assume this cap
        ),
        Identity(
            "gauss",
            "C = U D L with unit upper/lower triangular U, L and diagonal D",
            (("elliptic", "elliptic", False),),
            lambda inst, tag: check_gauss(inst, tag),
        ),
        Identity(
            "monodromy",
            "multipliers of sigma, sigma_k and Bloch expansions under full-period shifts",
            (("elliptic", "elliptic", False),),
            lambda inst, tag: check_monodromy(inst, tag),
            n_cap=6,  # the record counts pinned in perfbench/workloads.py assume this cap
            tol_factor=0.1,
        ),
        Identity(
            "degeneration",
            "rational G_L(x,y) -> K(x,y) as L -> oo at O(1/L); trig G(ex,ey;eL) -> rational G as e -> 0 at O(e^2)",
            (("rational", "rational", False), ("trig", "rational", False)),
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
    are grouped by stack (instance variant, N, third point set or not); an
    identity with a fixed size checks only the stack's first member, the
    base seed's instance.  Each stack is sampled in one
    :func:`random_instance` call, as one
    :class:`~ellcauchy.cauchy.Instance` with a leading trial axis, each
    trial on its own RNG stream.  Every
    identity and kernel tag that uses the stack checks it in one call, and
    the stack is dropped before the next is sampled, so only one stack, with
    its memo of kernel values, is held at a time.  A function patched on a
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
    lat = cfg.lattice()
    trials = [cfg.base_seed + trial for trial in range(cfg.trials_per_n)]
    jobs = {}  # stack key -> (seeds, [(identity, kernel tag)] in the order of names)
    for name in names:
        ident = REGISTRY[name]
        if ident.fixed_n:
            sizes, seeds_of = [ident.fixed_n], trials[:1]
        else:
            sizes, seeds_of = [n for n in cfg.n_values if ident.n_cap is None or n <= ident.n_cap], trials
        for tag, variant, with_z in ident.plan:
            if kernels and tag.removeprefix("k-") not in kernels:
                continue
            for n in sizes:
                seeds, todo = jobs.setdefault((variant, n, with_z), ({}, []))
                seeds.update(dict.fromkeys(seeds_of))
                todo.append((ident, tag))

    reports = []
    for (variant, n, with_z), (seeds, todo) in jobs.items():
        stack = random_instance(cfg, Kernel(variant, lat), n, list(seeds), with_z)
        for ident, tag in todo:
            # every stack starts with the base seed, whichever entry made it
            reports.extend(ident.check(stack.member(0) if ident.fixed_n else stack, tag, cfg.tolerance))
        del stack  # dropped, with its memo, before the next stack is sampled
    reports.sort(key=lambda r: (r.identity_name, r.kernel, r.n, r.seed))
    return reports
