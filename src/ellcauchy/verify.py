"""Residual checkers for every closed-form matrix identity, and their judge.

Each checker takes a seeded random :class:`~ellcauchy.cauchy.Instance`, one
trial or a stack of them, and a kernel tag, and returns
``(abs_residual, reference_magnitude)`` for the two sides of an identity,
one of each per member of a stack, and the degeneration checker a rate
verdict as a third value; determinant and inverse claims are
additionally cross-checked against the pivoted-LU oracle in
:mod:`ellcauchy.linalg`, which factors one member at a time, and the
factorization is checked as a product, with no inverse, by its
componentwise residual.  The sampler keeps one margin rule for every kernel.
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
        except TypeError:
            raise ValueError("n_values and trials_per_n must be integers") from None
        if not n_values or min(n_values) < 1 or trials < 1:
            raise ValueError("n_values must be nonempty, and its entries and trials_per_n >= 1")
        if len(set(n_values)) != len(n_values):
            raise ValueError(f"n_values repeats a size: {n_values}")
        object.__setattr__(self, "n_values", n_values)
        object.__setattr__(self, "trials_per_n", trials)
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


def _each(fn, mats):
    """``fn`` on each matrix of a stack, or on the one matrix, its results
    stacked: the LU oracle factors one member at a time."""
    results = [fn(m) for m in mats.reshape((-1,) + mats.shape[-2:])]
    return np.reshape(results, mats.shape[:-2] + np.shape(results[0]))


# ---------------------------------------------------------------------------
# instance sampling
# ---------------------------------------------------------------------------


def _margins_ok(kernel, sets, lam, margin):
    """Whether one sampled round keeps every margin: the zero distance of
    each difference of two points of the union of ``sets``, of lambda, of
    lambda plus and minus each set sum and X - Y, and of the Gauss ladder
    lambda_j and lambda_j + x_j - y_j.  The rule is the same for every kernel.

    A zero distance never exceeds the modulus (0 is a zero), so a pair
    closer than ``margin`` in the plane rejects the round without a kernel
    call.  Otherwise every margin is measured in one zero-distance call,
    which also catches a pair that is close only across a period.  Both
    tests measure each unordered pair once: the zero distance is even.
    """
    pts = np.ravel(sets)
    i, l = cauchy.pair_indices(len(pts))
    diff = pts[i] - pts[l]
    if (np.abs(diff) < margin).any():
        return False
    x, y = sets[0], sets[1]
    sums = [s.sum() for s in sets]
    shifts = np.array([0.0, *sums, sums[0] - sums[1]])
    lams = cauchy.gauss_lambda_ladder(x, y, lam)
    args = np.concatenate([diff, lam + shifts, lam - shifts, lams, x - y + lams])
    return kernel.zero_distance(args).min() >= margin


def random_instance(cfg, kernel, n, seed, with_z=False):
    """Deterministically sample an :class:`Instance` meeting all margins.

    Each rejection round draws one block of uniforms: for each point set,
    n draws for the first coordinate and then n for the second, and the
    parameter's two draws last.  The kernel's ``points`` and ``lam`` maps
    turn them into samples exactly as per-coordinate ``Generator.uniform``
    calls would.

    Raises :class:`SamplingExhausted` if the separation requirement cannot
    be met in the sampling region (or after the round limit).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    spec, lat = kernel.spec, kernel.lattice
    n_sets = 3 if with_z else 2
    if n * n_sets * cfg.sep_min**2 > spec.area(lat):
        raise SamplingExhausted(
            f"{n} points with separation {cfg.sep_min} cannot fit the sampling region"
        )
    rng = np.random.default_rng(
        [spec.stream, n, int(with_z), seed & 0xFFFFFFFF, cfg.base_seed & 0xFFFFFFFF]
    )
    for _ in range(_MAX_ROUNDS):
        draws = rng.random(2 * n * n_sets + 2)
        uv = draws[:-2].reshape(n_sets, 2, n)
        sets = spec.points(lat, uv[:, 0], uv[:, 1])
        lam = spec.lam(lat, *draws[-2:].tolist())
        if _margins_ok(kernel, sets, lam, cfg.sep_min):
            return Instance(
                kernel=kernel,
                x=sets[0],
                y=sets[1],
                z=sets[2] if with_z else None,
                lam=lam,
                seed=seed,
            )
    raise SamplingExhausted(f"no admissible instance after {_MAX_ROUNDS} rounds")


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def check_determinant(inst, tag):
    """LU determinant of C(x,y;lam) against the closed Frobenius form, on
    the instance's kernel."""
    x, y, kern = inst.x, inst.y, inst.kernel
    mat = cauchy.cauchy_matrix(kern, x, y, inst.lam)
    closed = cauchy.frobenius_det(kern, x, y, inst.lam)
    return np.abs(_each(linalg.lu_det, mat) - closed), np.abs(closed)


def check_inverse(inst, tag):
    """Closed-form inverse: residual of C C^-1 against the identity, plus a
    cross-check against the LU inverse."""
    x, y, kern = inst.x, inst.y, inst.kernel
    mat = cauchy.cauchy_matrix(kern, x, y, inst.lam)
    inv = cauchy.cauchy_inverse_closed(kern, x, y, inst.lam)
    r_id = linalg.max_abs_residual(mat @ inv, np.broadcast_to(np.eye(inst.n), inv.shape))
    r_lu = linalg.rel_residual(inv, _each(linalg.lu_inverse, mat))
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
    return [np.random.default_rng([tag, inst.n, int(seed) & 0xFFFFFFFF]) for seed in np.ravel(inst.seed)]


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
        for k in range(n):
            sk = sks[..., k]
            b = sign * np.exp(2 * eta * n * (pts[..., :2] + half)) * sk[..., 0, :]
            residuals.append(np.abs(sk[..., row, :] - b).max(axis=-1) / np.abs(b).max(axis=-1))
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
    base seed's instance.  Each trial is sampled once, on its own RNG
    stream, and the trials of a stack are stacked into one
    :class:`~ellcauchy.cauchy.Instance` with a leading trial axis.  Every
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
        kernel = Kernel(variant, lat)
        stack = Instance.stack([random_instance(cfg, kernel, n, seed, with_z) for seed in seeds])
        for ident, tag in todo:
            # every stack starts with the base seed, whichever entry made it
            reports.extend(ident.check(stack.member(0) if ident.fixed_n else stack, tag, cfg.tolerance))
        del stack  # dropped, with its memo, before the next stack is sampled
    reports.sort(key=lambda r: (r.identity_name, r.kernel, r.n, r.seed))
    return reports
