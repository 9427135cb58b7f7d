"""Residual checkers for every closed-form matrix identity, and their judge.

Each checker takes a seeded random :class:`~ellcauchy.cauchy.Instance` and a
kernel tag and returns ``(abs_residual, reference_magnitude)`` for the two
sides of an identity; determinant and inverse claims are additionally
cross-checked against the pivoted-LU oracle in :mod:`ellcauchy.linalg`.
:meth:`Identity.check` alone decides where a checker runs, times it and
judges its residual into a :class:`Report`.  Everything is a pure function
of (config, seed), so suite runs are reproducible byte for byte (timings aside).
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from . import cauchy, linalg
from .cauchy import RATIONAL_KERNEL, SEP_MIN_DEFAULT, TRIG_KERNEL, Instance, Kernel
from .errors import SamplingExhausted, SingularGFactor, SingularMatrix
from .weierstrass import lattice_distance, lattice_new, sigma, sigma_k, sigma_k_offsets

#: rejection-sampling round limit before SamplingExhausted
_MAX_ROUNDS = 10_000

#: margin (in kernel zero-distance) kept around every sigma_k factor argument
_SIGMA_K_MARGIN = 0.02

#: largest point count fed to the sigma_k-based checkers; the factor-argument
#: margins are only enforced (and only satisfiable) up to this size
_SIGMA_K_MAX_N = 6

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
        object.__setattr__(self, "n_values", n_values)
        object.__setattr__(self, "trials_per_n", trials)
        if complex(self.lattice_tau).imag <= 0:
            raise ValueError("Im(lattice_tau) must be positive")
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be finite and positive")
        # sampled instances must pass the Instance separation test
        if not SEP_MIN_DEFAULT <= self.sep_min < math.inf:
            raise ValueError(f"sep_min must be finite and at least {SEP_MIN_DEFAULT}")

    def lattice(self):
        return lattice_new(1.0, self.lattice_tau)


def tolerance_for(identity, n, base=SuiteConfig.tolerance):
    """Tolerance ladder: the identity's factor times ``base`` (determinant
    and monodromy checks involve no matrix inversion and are 10x tighter);
    scalar N=1 cases are capped at 1e-12."""
    t = base * REGISTRY[identity].tol_factor
    if n == 1:
        t = min(t, 1e-12)
    return t


def _worst(residuals):
    """The largest residual, or NaN if any residual is NaN (the built-in
    ``max(worst, nan)`` keeps ``worst``)."""
    return float(np.max(residuals))


def _report(name, kernel_tag, n, seed, abs_res, ref_mag, tol, t0):
    """Judge one residual; a residual or reference magnitude that is not
    finite fails."""
    rel = float(abs_res / ref_mag if ref_mag >= _ABS_SWITCH else abs_res)
    return Report(
        identity_name=name,
        kernel=kernel_tag,
        n=n,
        seed=seed,
        abs_residual=float(abs_res),
        rel_residual=rel,
        tolerance=float(tol),
        passed=rel <= tol and math.isfinite(abs_res) and math.isfinite(ref_mag),
        elapsed_ms=(time.perf_counter() - t0) * 1e3,
    )


# ---------------------------------------------------------------------------
# instance sampling
# ---------------------------------------------------------------------------


def _margins_ok(kernel, sets, lam, margin):
    """Whether one sampled round keeps every margin: the separation of the
    union of ``sets``, the parameter and its shifts by the set sums, and
    (elliptic) the Gauss ladder and the sigma_k factor arguments.

    A zero distance never exceeds the modulus, so the pairs closer than
    ``margin`` in the plane are the likely rejections.  Their zero
    distances are measured first; if none is below the margin, the
    all-pairs :meth:`~ellcauchy.cauchy.Kernel.separation` test decides,
    which also catches a pair that is close only across a period.
    """
    pts = np.ravel(sets)
    diff = pts[:, None] - pts[None, :]
    close = np.abs(diff) < margin
    np.fill_diagonal(close, False)
    if close.any() and kernel.zero_distance(diff[close]).min() < margin:
        return False
    if kernel.separation(pts) < margin:
        return False
    sums = [s.sum() for s in sets]
    x_sum, y_sum = sums[0], sums[1]
    shifts = [0.0, x_sum, -x_sum, y_sum, -y_sum, x_sum - y_sum, y_sum - x_sum]
    if len(sets) == 3:
        shifts += [sums[2], -sums[2]]
    if np.min(kernel.zero_distance(lam + np.asarray(shifts))) < margin:
        return False
    if kernel.variant == "elliptic":
        x, y = sets[0], sets[1]
        n = len(x)
        lams = cauchy.gauss_lambda_ladder(x, y, lam)
        if np.min(kernel.zero_distance(lams)) < margin:
            return False
        if np.min(kernel.zero_distance(x - y + lams)) < margin:
            return False
        if n > _SIGMA_K_MAX_N:
            return True
        # every sigma factor inside the elliptic g-columns must stay away
        # from lattice points, for each point of each set
        lat = kernel.lattice
        offsets = sigma_k_offsets(lat, n, np.arange(1, n + 1)).ravel()
        args = (pts + lam / n)[:, None] + offsets[None, :]
        if lattice_distance(lat, args).min() < _SIGMA_K_MARGIN:
            return False
    return True


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
    """LU determinant against the closed form (elliptic Frobenius form, or
    the classic formula for the rational kernel)."""
    x, y = inst.x, inst.y
    if tag == "elliptic":
        mat = cauchy.cauchy_matrix(inst.kernel, x, y, inst.lam)
        closed = cauchy.frobenius_det(inst.kernel.lattice, x, y, inst.lam)
    else:
        mat = cauchy.classic_cauchy(x, y)
        closed = cauchy.classic_cauchy_det(x, y)
    return abs(linalg.lu_det(mat) - closed), abs(closed)


def check_inverse(inst, tag):
    """Closed-form inverse: residual of C C^-1 against the identity, plus a
    cross-check against the LU inverse."""
    x, y = inst.x, inst.y
    if tag == "elliptic":
        mat = cauchy.cauchy_matrix(inst.kernel, x, y, inst.lam)
        inv = cauchy.cauchy_inverse_closed(inst.kernel.lattice, x, y, inst.lam)
    else:
        mat = cauchy.classic_cauchy(x, y)
        inv = cauchy.classic_cauchy_inverse(x, y)
    r_id = linalg.max_abs_residual(mat @ inv, np.eye(inst.n))
    r_lu = linalg.rel_residual(inv, linalg.lu_inverse(mat))
    return _worst([r_id, r_lu]), 1.0


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
        lhs = cauchy.g_matrix(kern, x, y, lam + y.sum()) @ cauchy.g_matrix(kern, y, z, lam + z.sum())
        rhs = cauchy.g_matrix(kern, x, z, lam + z.sum())
    return linalg.max_abs_residual(lhs, rhs), float(np.abs(rhs).max())


def check_transposed_identity(inst, tag):
    """Signed transposed identity H_{lam-X}(x,y) H_{lam-Y}(y,z) = -H_{lam-X}(x,z),
    exactly as displayed including the minus sign."""
    x, y, z = inst.x, inst.y, inst.z
    lam = inst.lam
    kern = inst.kernel
    lhs = cauchy.h_matrix(kern, x, y, lam - x.sum()) @ cauchy.h_matrix(kern, y, z, lam - y.sum())
    rhs = -cauchy.h_matrix(kern, x, z, lam - x.sum())
    return linalg.max_abs_residual(lhs, rhs), float(np.abs(rhs).max())


def check_factorization(inst, tag):
    """G_{lam+Y}(x,y) = g_lam(x) g_lam(y)^-1 for the kernel-matching factor;
    under the k-rational tag, K(x,y) = W(x) W(y)^-1."""
    x, y = inst.x, inst.y
    if tag == "k-rational":
        lhs = cauchy.k_matrix(x, y)
        gx, gy = cauchy.w_matrix(x), cauchy.w_matrix(y)
    else:
        kern = inst.kernel
        lhs = cauchy.g_matrix(kern, x, y, inst.lam + y.sum())
        gx = kern.spec.g_factor(kern.lattice, x, inst.lam)
        gy = kern.spec.g_factor(kern.lattice, y, inst.lam)
    try:
        rhs = gx @ linalg.lu_inverse(gy)
    except SingularMatrix as exc:
        raise SingularGFactor(str(exc)) from exc
    return linalg.max_abs_residual(lhs, rhs), float(np.abs(lhs).max())


def check_gauss(inst, tag):
    """UDL decomposition: product residual, triangular/diagonal structure,
    the element-sum form of the decomposition at random entries, and the
    determinant consistency prod_j D_jj = Frobenius determinant."""
    lat = inst.kernel.lattice
    x, y = inst.x, inst.y
    n = inst.n
    u, d, l = cauchy.gauss_udl(lat, x, y, inst.lam)
    mat = cauchy.cauchy_matrix(inst.kernel, x, y, inst.lam)
    scale = float(np.abs(mat).max())
    residuals = [linalg.max_abs_residual(u @ d @ l, mat) / scale]

    if not (
        linalg.structure_check(u, "unit_upper", 1e-12)
        and linalg.structure_check(l, "unit_lower", 1e-12)
        and linalg.structure_check(d, "diagonal", 1e-12)
    ):
        residuals.append(1.0)

    # element-sum form: C_ik = sum_{j >= max(i,k)} U_ij D_jj L_jk
    rng = np.random.default_rng([3, inst.n, inst.seed & 0xFFFFFFFF])
    for _ in range(3):
        i, k = int(rng.integers(n)), int(rng.integers(n))
        s = sum(u[i, j] * d[j, j] * l[j, k] for j in range(max(i, k), n))
        residuals.append(abs(s - mat[i, k]) / scale)

    det_closed = cauchy.frobenius_det(lat, x, y, inst.lam)
    residuals.append(abs(np.prod(np.diag(d)) - det_closed) / abs(det_closed))
    return _worst(residuals), 1.0


def check_monodromy(inst, tag):
    """Quasi-periodicity multipliers: sigma under both period shifts, the
    sigma_k family for k = 1..N, and the Bloch multipliers of a random pole
    expansion, all at seeded random points."""
    lat = inst.kernel.lattice
    n = inst.n
    rng = np.random.default_rng([4, n, inst.seed & 0xFFFFFFFF])

    # rows: unshifted, shifted by 2 omega, shifted by 2 omega'
    pts = 2 * rng.uniform(-0.4, 0.4, 5) * lat.omega + 2 * rng.uniform(-0.4, 0.4, 5) * lat.omega_prime
    shifts = np.array([0, 2 * lat.omega, 2 * lat.omega_prime])
    s = sigma(lat, pts + shifts[:, None])
    sks = [sigma_k(lat, n, k, pts[:2] + shifts[:, None]) for k in range(1, n + 1)]

    coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    poles = inst.x
    ws = []
    while len(ws) < 3:
        w = complex(2 * rng.uniform(-0.4, 0.4) * lat.omega + 2 * rng.uniform(-0.4, 0.4) * lat.omega_prime)
        if lattice_distance(lat, w - poles).min() >= 0.05:
            ws.append(w)
    psi = cauchy.bloch_eval(lat, poles, coeffs, inst.lam, np.array(ws) + shifts[:, None])

    residuals = []
    sign = (-1.0) ** n
    for row, (half, eta) in enumerate(((lat.omega, lat.eta), (lat.omega_prime, lat.eta_prime)), 1):
        expect = -np.exp(2 * eta * (pts + half)) * s[0]
        residuals.append(float(np.abs(s[row] - expect).max() / np.abs(expect).max()))
        for sk in sks:
            b = sign * np.exp(2 * eta * n * (pts[:2] + half)) * sk[0]
            residuals.append(float(np.abs(sk[row] - b).max() / np.abs(b).max()))
        mult = np.exp(2 * eta * inst.lam)
        for val, base in zip(psi[row], psi[0]):
            residuals.append(abs(val - mult * base) / abs(mult * base))
    return _worst(residuals), 1.0


def check_degeneration(cfg):
    """Two directed limit checks, each with a convergence-rate assertion.

    (a) the rational G matrix approaches K as the parameter grows, with
        error O(1/lambda); (b) the trigonometric G matrix under uniform
        argument scaling approaches the rational one with error O(eps^2).
    """
    t0 = time.perf_counter()
    inst = random_instance(cfg, RATIONAL_KERNEL, 5, cfg.base_seed, with_z=False)
    x, y = inst.x, inst.y
    k_mat = cauchy.k_matrix(x, y)
    scale = float(np.abs(k_mat).max())
    r6 = linalg.max_abs_residual(cauchy.g_matrix(RATIONAL_KERNEL, x, y, 1e6), k_mat) / scale
    r7 = linalg.max_abs_residual(cauchy.g_matrix(RATIONAL_KERNEL, x, y, 1e7), k_mat) / scale
    rep = _report("degeneration", "rational", 5, cfg.base_seed, r6 * scale, scale, 1e-4, t0)
    # the residual must also shrink linearly with the parameter
    rational = replace(rep, passed=rep.passed and r7 < 0.25 * r6)

    t0 = time.perf_counter()
    g_rat = cauchy.g_matrix(RATIONAL_KERNEL, x, y, inst.lam)
    scale = float(np.abs(g_rat).max())
    res = {}
    for eps in (1e-4, 1e-5):
        g_trig = cauchy.g_matrix(TRIG_KERNEL, eps * x, eps * y, eps * inst.lam)
        res[eps] = linalg.max_abs_residual(g_trig, g_rat) / scale
    rep = _report("degeneration", "trig", 5, cfg.base_seed, res[1e-4] * scale, scale, 1e-3, t0)
    # quadratic rate: a decade in eps buys ~two decades of residual
    return [rational, replace(rep, passed=rep.passed and res[1e-5] < 0.05 * res[1e-4])]


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Identity:
    """One catalogue entry: the claim, where it is checked, and how strictly."""

    name: str
    doc: str  # the catalogue line printed by ``ellcauchy list``
    plan: tuple  # (kernel tag, needs a third point set) pairs: the only kernels it runs on
    checker: Callable  # (inst, kernel tag) -> (abs residual, reference magnitude)
    n_cap: int | None = None  # larger point counts are not checked (factor conditioning)
    tol_factor: float = 1.0  # multiplies the base tolerance

    def check(self, inst, tag, base_tol):
        """Run the checker on one instance and judge its residual at this
        identity's tolerance.  Raises ValueError for a kernel tag outside the
        plan, an instance on another kernel, or a missing third point set."""
        plan = dict(self.plan)
        if tag not in plan:
            raise ValueError(f"{self.name} does not run on the {tag} kernel")
        if inst.kernel.variant != tag.removeprefix("k-"):
            raise ValueError(f"{self.name} on {tag} got a {inst.kernel.variant} instance")
        if plan[tag] and inst.z is None:
            raise ValueError(f"{self.name} needs a third point set")
        t0 = time.perf_counter()
        abs_res, ref_mag = self.checker(inst, tag)
        tol = tolerance_for(self.name, inst.n, base_tol)
        return _report(self.name, tag, inst.n, inst.seed, abs_res, ref_mag, tol, t0)


#: name -> identity, in catalogue order.  The checkers are looked up by
#: name at call time, so a wrapper installed on a module name sees every
#: check.  A kernel tag names a kernel variant; the k-rational tag runs
#: the parameter-free form on the rational kernel.
REGISTRY = {
    ident.name: ident
    for ident in (
        Identity(
            "determinant",
            "det C(x,y;L) = s(L+X-Y)/s(L) * prod_{a<b} s(x_a-x_b) s(y_b-y_a) / prod_{a,b} s(x_a-y_b)",
            (("elliptic", False), ("rational", False)),
            lambda inst, tag: check_determinant(inst, tag),
            tol_factor=0.1,
        ),
        Identity(
            "inverse",
            "C(x,y;L)^-1 = D(y,x) C(y,x; L+X-Y) D(x,y), entrywise closed form",
            (("elliptic", False), ("rational", False)),
            lambda inst, tag: check_inverse(inst, tag),
        ),
        Identity(
            "product",
            "G_{L+Y}(x,y) G_{L+Z}(y,z) = G_{L+Z}(x,z); K(x,y)K(y,z) = K(x,z) in the parameter-free limit",
            (("elliptic", True), ("trig", True), ("rational", True), ("k-rational", True)),
            lambda inst, tag: check_product_identity(inst, tag),
        ),
        Identity(
            "transposed",
            "H_{L-X}(x,y) H_{L-Y}(y,z) = -H_{L-X}(x,z) with H_L(x,y) = C(x,y;L) D(y,x)",
            (("elliptic", True),),
            lambda inst, tag: check_transposed_identity(inst, tag),
        ),
        Identity(
            "factorization",
            "G_{L+Y}(x,y) = g_L(x) g_L(y)^-1 (elliptic/trig/rational); K(x,y) = W(x) W(y)^-1",
            (("elliptic", False), ("trig", False), ("rational", False), ("k-rational", False)),
            lambda inst, tag: check_factorization(inst, tag),
            n_cap=_SIGMA_K_MAX_N,
        ),
        Identity(
            "gauss",
            "C = U D L with unit upper/lower triangular U, L and diagonal D",
            (("elliptic", False),),
            lambda inst, tag: check_gauss(inst, tag),
        ),
        Identity(
            "monodromy",
            "multipliers of sigma, sigma_k and Bloch expansions under full-period shifts",
            (("elliptic", False),),
            lambda inst, tag: check_monodromy(inst, tag),
            n_cap=_SIGMA_K_MAX_N,
            tol_factor=0.1,
        ),
    )
}

IDENTITIES = tuple(REGISTRY)


def run_suite(cfg, identities=None, kernels=None):
    """Run the selected identities over n_values x trials_per_n seeded trials.

    ``kernels``, when given, is a set of kernel variants: each identity
    runs on the tags of its plan whose variant is in the set.  Each check
    is judged by :meth:`Identity.check` at base tolerance ``cfg.tolerance``.

    Returns reports sorted by (identity, kernel, n, seed).  A check whose
    residual misses its tolerance is recorded as a failed report, but any
    :class:`~ellcauchy.errors.EllCauchyError` raised while sampling or
    checking ends the whole run: it propagates and no reports are returned.
    """
    names = list(identities) if identities is not None else list(IDENTITIES) + ["degeneration"]
    lat = cfg.lattice()
    reports = []
    for name in names:
        if name == "degeneration":
            reports.extend(
                r for r in check_degeneration(cfg) if not kernels or r.kernel in kernels
            )
            continue
        ident = REGISTRY[name]
        sizes = [n for n in cfg.n_values if ident.n_cap is None or n <= ident.n_cap]
        for tag, with_z in ident.plan:
            kern = Kernel(tag.removeprefix("k-"), lat)
            if kernels and kern.variant not in kernels:
                continue
            for n in sizes:
                for trial in range(cfg.trials_per_n):
                    seed = cfg.base_seed + trial
                    inst = random_instance(cfg, kern, n, seed, with_z)
                    reports.append(ident.check(inst, tag, cfg.tolerance))
    reports.sort(key=lambda r: (r.identity_name, r.kernel, r.n, r.seed))
    return reports
