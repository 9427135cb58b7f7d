"""Residual-reporting checkers for every closed-form matrix identity.

Each checker takes a seeded random :class:`~ellcauchy.cauchy.Instance` and
returns a :class:`Report` whose relative residual compares an identity's two
sides; determinant and inverse claims are additionally cross-checked against
the pivoted-LU oracle in :mod:`ellcauchy.linalg`.  Everything is a pure
function of (config, seed), so suite runs are reproducible byte for byte
(timings aside).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import cauchy, linalg
from .cauchy import (
    RATIONAL_KERNEL,
    TRIG_KERNEL,
    Instance,
    Kernel,
    PointSet,
    elliptic_kernel,
)
from .errors import SamplingExhausted, SingularGFactor, SingularMatrix
from .weierstrass import lattice_distance, lattice_new, sigma, sigma_k

IDENTITIES = (
    "determinant",
    "inverse",
    "product",
    "transposed",
    "factorization",
    "gauss",
    "monodromy",
)

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
        return {
            "identity_name": self.identity_name,
            "kernel": self.kernel,
            "n": self.n,
            "seed": self.seed,
            "abs_residual": self.abs_residual,
            "rel_residual": self.rel_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "elapsed_ms": self.elapsed_ms,
        }


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
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise ValueError("n_values must be nonempty with entries >= 1")
        if self.trials_per_n < 1:
            raise ValueError("trials_per_n must be >= 1")
        if complex(self.lattice_tau).imag <= 0:
            raise ValueError("Im(lattice_tau) must be positive")
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))

    def lattice(self):
        return lattice_new(1.0, self.lattice_tau)


def tolerance_for(identity, n, base=1e-8):
    """Tolerance ladder: scalar N=1 cases are tighter, as are determinant
    and monodromy checks (no matrix inversion involved)."""
    t = base
    if identity in ("determinant", "monodromy"):
        t = base * 0.1
    if n == 1:
        t = min(t, 1e-12)
    return t


def _residuals(abs_res, ref_mag):
    rel = abs_res / ref_mag if ref_mag >= _ABS_SWITCH else abs_res
    return float(abs_res), float(rel)


def _report(name, kernel_tag, n, seed, abs_res, ref_mag, tol, t0):
    abs_res, rel = _residuals(abs_res, ref_mag)
    return Report(
        identity_name=name,
        kernel=kernel_tag,
        n=n,
        seed=seed,
        abs_residual=abs_res,
        rel_residual=rel,
        tolerance=float(tol),
        passed=rel <= tol,
        elapsed_ms=(time.perf_counter() - t0) * 1e3,
    )


# ---------------------------------------------------------------------------
# instance sampling
# ---------------------------------------------------------------------------

_KERNEL_CODE = {"elliptic": 0, "trig": 1, "rational": 2}


def _sample_points(rng, kernel, cfg, count):
    if kernel.variant == "elliptic":
        lat = kernel.lattice
        a = rng.uniform(-0.35, 0.35, count)
        b = rng.uniform(-0.35, 0.35, count)
        return 2 * a * lat.omega + 2 * b * lat.omega_prime
    if kernel.variant == "trig":
        return rng.uniform(0.0, np.pi, count) + 1j * rng.uniform(0.0, 0.5, count)
    r = np.sqrt(rng.uniform(0.0, 1.0, count))
    phi = rng.uniform(0.0, 2 * np.pi, count)
    return r * np.exp(1j * phi)


def _sample_lambda(rng, kernel):
    if kernel.variant == "elliptic":
        lat = kernel.lattice
        return complex(
            2 * rng.uniform(-0.35, 0.35) * lat.omega
            + 2 * rng.uniform(-0.35, 0.35) * lat.omega_prime
        )
    if kernel.variant == "trig":
        return complex(rng.uniform(0.0, np.pi) + 1j * rng.uniform(0.15, 0.6))
    return complex(rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0.0, 2 * np.pi)))


def _region_area(kernel, cfg):
    if kernel.variant == "elliptic":
        lat = kernel.lattice
        cell = abs(np.imag(np.conj(2 * lat.omega) * 2 * lat.omega_prime))
        return 0.49 * cell
    if kernel.variant == "trig":
        return np.pi * 0.5
    return np.pi


def _margins_ok(kernel, sets, lam, margin):
    pts = np.concatenate(sets)
    # pairwise separation across the union of all sets, measured by
    # distance of the difference to the nearest kernel zero
    diff = pts[:, None] - pts[None, :]
    d = kernel.zero_distance(diff)
    np.fill_diagonal(d, np.inf)
    if d.min() < margin:
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
        k = np.arange(1, n + 1)
        l = np.arange(n)
        cell_shifts = (
            (n - 2 * l[None, :] - 1) / n * lat.omega
            - (2 * k[:, None] / n) * lat.omega_prime
        ).ravel()
        args = (pts + lam / n)[:, None] + cell_shifts[None, :]
        if lattice_distance(lat, args).min() < _SIGMA_K_MARGIN:
            return False
    return True


def random_instance(cfg, kernel, n, seed, with_z=False):
    """Deterministically sample an :class:`Instance` meeting all margins.

    Raises :class:`SamplingExhausted` if the separation requirement cannot
    be met in the sampling region (or after the round limit).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    n_sets = 3 if with_z else 2
    if n * n_sets * cfg.sep_min**2 > _region_area(kernel, cfg):
        raise SamplingExhausted(
            f"{n} points with separation {cfg.sep_min} cannot fit the sampling region"
        )
    rng = np.random.default_rng(
        [_KERNEL_CODE[kernel.variant], n, int(with_z), seed & 0xFFFFFFFF, cfg.base_seed & 0xFFFFFFFF]
    )
    for _ in range(_MAX_ROUNDS):
        sets = [_sample_points(rng, kernel, cfg, n) for _ in range(n_sets)]
        lam = _sample_lambda(rng, kernel)
        if not _margins_ok(kernel, sets, lam, cfg.sep_min):
            continue
        return Instance(
            kernel=kernel,
            x=PointSet(tuple(sets[0]), "x"),
            y=PointSet(tuple(sets[1]), "y"),
            z=PointSet(tuple(sets[2]), "z") if with_z else None,
            lam=lam,
            seed=seed,
            sep_min=min(cfg.sep_min, 1e-3),
        )
    raise SamplingExhausted(f"no admissible instance after {_MAX_ROUNDS} rounds")


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def check_determinant(inst, tol=None):
    """LU determinant against the closed form (elliptic Frobenius form, or
    the classic formula for the rational kernel)."""
    t0 = time.perf_counter()
    tol = tol if tol is not None else tolerance_for("determinant", inst.n)
    x, y = inst.x.array, inst.y.array
    if inst.kernel.variant == "elliptic":
        mat = cauchy.cauchy_matrix(inst.kernel, x, y, inst.lam)
        closed = cauchy.frobenius_det(inst.kernel.lattice, x, y, inst.lam)
    elif inst.kernel.variant == "rational":
        mat = cauchy.classic_cauchy(x, y)
        closed = cauchy.classic_cauchy_det(x, y)
    else:
        raise ValueError("determinant check supports elliptic and rational kernels")
    lu = linalg.lu_det(mat)
    return _report(
        "determinant", inst.kernel.variant, inst.n, inst.seed, abs(lu - closed), abs(closed), tol, t0
    )


def check_inverse(inst, tol=None):
    """Closed-form inverse: residual of C C^-1 against the identity, plus a
    cross-check against the LU inverse."""
    t0 = time.perf_counter()
    tol = tol if tol is not None else tolerance_for("inverse", inst.n)
    x, y = inst.x.array, inst.y.array
    if inst.kernel.variant == "elliptic":
        mat = cauchy.cauchy_matrix(inst.kernel, x, y, inst.lam)
        inv = cauchy.cauchy_inverse_closed(inst.kernel.lattice, x, y, inst.lam)
    elif inst.kernel.variant == "rational":
        mat = cauchy.classic_cauchy(x, y)
        inv = cauchy.classic_cauchy_inverse(x, y)
    else:
        raise ValueError("inverse check supports elliptic and rational kernels")
    eye = np.eye(inst.n)
    r_id = linalg.max_abs_residual(mat @ inv, eye)
    r_lu = linalg.rel_residual(inv, linalg.lu_inverse(mat))
    return _report(
        "inverse", inst.kernel.variant, inst.n, inst.seed, max(r_id, r_lu), 1.0, tol, t0
    )


def _g(inst, x, y, lam):
    return cauchy.g_matrix(inst.kernel, x, y, lam)


def check_product_identity(inst, tol=None, k_form=False):
    """G_{lam+Y}(x,y) G_{lam+Z}(y,z) = G_{lam+Z}(x,z); in the k_form the
    parameter-free limit matrices K satisfy K(x,y)K(y,z) = K(x,z)."""
    if inst.z is None:
        raise ValueError("product identity needs a third point set")
    t0 = time.perf_counter()
    tol = tol if tol is not None else tolerance_for("product", inst.n)
    x, y, z = inst.x.array, inst.y.array, inst.z.array
    if k_form:
        lhs = cauchy.k_matrix(x, y) @ cauchy.k_matrix(y, z)
        rhs = cauchy.k_matrix(x, z)
        tag = "k-rational"
    else:
        lam = inst.lam
        lhs = _g(inst, x, y, lam + y.sum()) @ _g(inst, y, z, lam + z.sum())
        rhs = _g(inst, x, z, lam + z.sum())
        tag = inst.kernel.variant
    return _report(
        "product", tag, inst.n, inst.seed,
        linalg.max_abs_residual(lhs, rhs), float(np.abs(rhs).max()), tol, t0,
    )


def check_transposed_identity(inst, tol=None):
    """Signed transposed identity H_{lam-X}(x,y) H_{lam-Y}(y,z) = -H_{lam-X}(x,z),
    exactly as displayed including the minus sign."""
    if inst.z is None:
        raise ValueError("transposed identity needs a third point set")
    t0 = time.perf_counter()
    tol = tol if tol is not None else tolerance_for("transposed", inst.n)
    x, y, z = inst.x.array, inst.y.array, inst.z.array
    lam = inst.lam
    kern = inst.kernel
    lhs = cauchy.h_matrix(kern, x, y, lam - x.sum()) @ cauchy.h_matrix(kern, y, z, lam - y.sum())
    rhs = -cauchy.h_matrix(kern, x, z, lam - x.sum())
    return _report(
        "transposed", kern.variant, inst.n, inst.seed,
        linalg.max_abs_residual(lhs, rhs), float(np.abs(rhs).max()), tol, t0,
    )


def _g_factor(inst, pts):
    if inst.kernel.variant == "elliptic":
        return cauchy.g_factor_elliptic(inst.kernel.lattice, pts, inst.lam)
    if inst.kernel.variant == "trig":
        return cauchy.g_factor_trig(pts, inst.lam)
    return cauchy.g_factor_rat(pts, inst.lam)


def check_factorization(inst, tol=None, k_form=False):
    """G_{lam+Y}(x,y) = g_lam(x) g_lam(y)^-1 for the kernel-matching factor;
    in the k_form, K(x,y) = W(x) W(y)^-1."""
    t0 = time.perf_counter()
    tol = tol if tol is not None else tolerance_for("factorization", inst.n)
    x, y = inst.x.array, inst.y.array
    if k_form:
        lhs = cauchy.k_matrix(x, y)
        gx, gy = cauchy.w_matrix(x), cauchy.w_matrix(y)
        tag = "k-rational"
    else:
        lhs = _g(inst, x, y, inst.lam + y.sum())
        gx, gy = _g_factor(inst, x), _g_factor(inst, y)
        tag = inst.kernel.variant
    try:
        rhs = gx @ linalg.lu_inverse(gy)
    except SingularMatrix as exc:
        raise SingularGFactor(str(exc)) from exc
    return _report(
        "factorization", tag, inst.n, inst.seed,
        linalg.max_abs_residual(lhs, rhs), float(np.abs(lhs).max()), tol, t0,
    )


def check_gauss(inst, tol=None):
    """UDL decomposition: product residual, triangular/diagonal structure,
    the element-sum form of the decomposition at random entries, and the
    determinant consistency prod_j D_jj = Frobenius determinant."""
    t0 = time.perf_counter()
    tol = tol if tol is not None else tolerance_for("gauss", inst.n)
    if inst.kernel.variant != "elliptic":
        raise ValueError("UDL decomposition is implemented for the elliptic kernel")
    lat = inst.kernel.lattice
    x, y = inst.x.array, inst.y.array
    n = inst.n
    u, d, l = cauchy.gauss_udl(lat, x, y, inst.lam)
    mat = cauchy.cauchy_matrix(inst.kernel, x, y, inst.lam)
    scale = float(np.abs(mat).max())
    worst = linalg.max_abs_residual(u @ d @ l, mat) / scale

    if not (
        linalg.structure_check(u, "unit_upper", 1e-12)
        and linalg.structure_check(l, "unit_lower", 1e-12)
        and linalg.structure_check(d, "diagonal", 1e-12)
    ):
        worst = max(worst, 1.0)

    # element-sum form: C_ik = sum_{j >= max(i,k)} U_ij D_jj L_jk
    rng = np.random.default_rng([3, inst.n, inst.seed & 0xFFFFFFFF])
    for _ in range(3):
        i, k = int(rng.integers(n)), int(rng.integers(n))
        s = sum(u[i, j] * d[j, j] * l[j, k] for j in range(max(i, k), n))
        worst = max(worst, abs(s - mat[i, k]) / scale)

    det_closed = cauchy.frobenius_det(lat, x, y, inst.lam)
    worst = max(worst, abs(np.prod(np.diag(d)) - det_closed) / abs(det_closed))
    return _report("gauss", "elliptic", inst.n, inst.seed, worst, 1.0, tol, t0)


def check_monodromy(inst, tol=None):
    """Quasi-periodicity multipliers: sigma under both period shifts, the
    sigma_k family for k = 1..N, and the Bloch multipliers of a random pole
    expansion, all at seeded random points."""
    t0 = time.perf_counter()
    tol = tol if tol is not None else tolerance_for("monodromy", inst.n)
    if inst.kernel.variant != "elliptic":
        raise ValueError("monodromy check applies to the elliptic kernel")
    lat = inst.kernel.lattice
    n = inst.n
    rng = np.random.default_rng([4, n, inst.seed & 0xFFFFFFFF])
    worst = 0.0

    pts = 2 * rng.uniform(-0.4, 0.4, 5) * lat.omega + 2 * rng.uniform(-0.4, 0.4, 5) * lat.omega_prime
    shifts = np.array([0, 2 * lat.omega, 2 * lat.omega_prime])
    s, shifted, shifted_prime = sigma(lat, pts + shifts[:, None])
    expect = -np.exp(2 * lat.eta * (pts + lat.omega)) * s
    worst = max(worst, float(np.abs(shifted - expect).max() / np.abs(expect).max()))
    expect = -np.exp(2 * lat.eta_prime * (pts + lat.omega_prime)) * s
    worst = max(worst, float(np.abs(shifted_prime - expect).max() / np.abs(expect).max()))

    sign = (-1.0) ** n
    for k in range(1, n + 1):
        sk = sigma_k(lat, n, k, pts[:2])
        a = sigma_k(lat, n, k, pts[:2] + 2 * lat.omega)
        b = sign * np.exp(2 * lat.eta * n * (pts[:2] + lat.omega)) * sk
        worst = max(worst, float(np.abs(a - b).max() / np.abs(b).max()))
        a = sigma_k(lat, n, k, pts[:2] + 2 * lat.omega_prime)
        b = sign * np.exp(2 * lat.eta_prime * n * (pts[:2] + lat.omega_prime)) * sk
        worst = max(worst, float(np.abs(a - b).max() / np.abs(b).max()))

    coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    poles = inst.x.array
    found = 0
    while found < 3:
        w = complex(
            2 * rng.uniform(-0.4, 0.4) * lat.omega + 2 * rng.uniform(-0.4, 0.4) * lat.omega_prime
        )
        if lattice_distance(lat, w - poles).min() < 0.05:
            continue
        found += 1
        base = cauchy.bloch_eval(lat, poles, coeffs, inst.lam, w)
        for period, mult in (
            (2 * lat.omega, np.exp(2 * lat.eta * inst.lam)),
            (2 * lat.omega_prime, np.exp(2 * lat.eta_prime * inst.lam)),
        ):
            val = cauchy.bloch_eval(lat, poles, coeffs, inst.lam, w + period)
            worst = max(worst, abs(val - mult * base) / abs(mult * base))

    return _report("monodromy", "elliptic", inst.n, inst.seed, worst, 1.0, tol, t0)


def check_degeneration(cfg):
    """Two directed limit checks, each with a convergence-rate assertion.

    (a) the rational G matrix approaches K as the parameter grows, with
        error O(1/lambda); (b) the trigonometric G matrix under uniform
        argument scaling approaches the rational one with error O(eps^2).
    """
    reports = []

    t0 = time.perf_counter()
    inst = random_instance(cfg, RATIONAL_KERNEL, 5, cfg.base_seed, with_z=False)
    x, y = inst.x.array, inst.y.array
    k_mat = cauchy.k_matrix(x, y)
    scale = float(np.abs(k_mat).max())
    r6 = linalg.max_abs_residual(cauchy.g_matrix(RATIONAL_KERNEL, x, y, 1e6), k_mat) / scale
    r7 = linalg.max_abs_residual(cauchy.g_matrix(RATIONAL_KERNEL, x, y, 1e7), k_mat) / scale
    rep = _report("degeneration", "rational", 5, cfg.base_seed, r6 * scale, scale, 1e-4, t0)
    # the residual must also shrink linearly with the parameter
    reports.append(
        Report(**{**rep.to_dict(), "passed": rep.passed and r7 < 0.25 * r6})
    )

    t0 = time.perf_counter()
    g_rat = cauchy.g_matrix(RATIONAL_KERNEL, x, y, inst.lam)
    scale = float(np.abs(g_rat).max())
    res = {}
    for eps in (1e-4, 1e-5):
        g_trig = cauchy.g_matrix(TRIG_KERNEL, eps * x, eps * y, eps * inst.lam)
        res[eps] = linalg.max_abs_residual(g_trig, g_rat) / scale
    rep = _report("degeneration", "trig", 5, cfg.base_seed, res[1e-4] * scale, scale, 1e-3, t0)
    # quadratic rate: a decade in eps buys ~two decades of residual
    reports.append(
        Report(**{**rep.to_dict(), "passed": rep.passed and res[1e-5] < 0.05 * res[1e-4]})
    )
    return reports


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

#: identity -> list of (kernel tag, needs third set)
_PLAN = {
    "determinant": (("elliptic", False), ("rational", False)),
    "inverse": (("elliptic", False), ("rational", False)),
    "product": (("elliptic", True), ("trig", True), ("rational", True), ("k-rational", True)),
    "transposed": (("elliptic", True),),
    "factorization": (
        ("elliptic", False),
        ("trig", False),
        ("rational", False),
        ("k-rational", False),
    ),
    "gauss": (("elliptic", False),),
    "monodromy": (("elliptic", False),),
}

#: point-count caps where conditioning of the factor matrices warrants them
_N_CAP = {"factorization": _SIGMA_K_MAX_N, "monodromy": _SIGMA_K_MAX_N}


def _kernel_for(tag, lat):
    if tag == "elliptic":
        return elliptic_kernel(lat)
    if tag == "trig":
        return TRIG_KERNEL
    return RATIONAL_KERNEL  # rational and k-rational share the sampler


def _dispatch(name, tag, inst, base_tol):
    tol = tolerance_for(name, inst.n, base_tol)
    if name == "determinant":
        return check_determinant(inst, tol)
    if name == "inverse":
        return check_inverse(inst, tol)
    if name == "product":
        return check_product_identity(inst, tol, k_form=(tag == "k-rational"))
    if name == "transposed":
        return check_transposed_identity(inst, tol)
    if name == "factorization":
        return check_factorization(inst, tol, k_form=(tag == "k-rational"))
    if name == "gauss":
        return check_gauss(inst, tol)
    if name == "monodromy":
        return check_monodromy(inst, tol)
    raise ValueError(f"unknown identity {name!r}")


def run_suite(cfg, identities=None, kernels=None):
    """Run the selected checkers over n_values x trials_per_n seeded trials.

    Returns reports sorted by (identity, kernel, n, seed).  Per-instance
    failures are recorded in their reports; the suite never aborts early.
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
        for tag, with_z in _PLAN[name]:
            if kernels and tag not in kernels:
                continue
            kern = _kernel_for(tag, lat)
            for n in cfg.n_values:
                if n > _N_CAP.get(name, 10**9):
                    continue
                for trial in range(cfg.trials_per_n):
                    seed = cfg.base_seed + trial
                    inst = random_instance(cfg, kern, n, seed, with_z)
                    reports.append(_dispatch(name, tag, inst, cfg.tolerance))
    reports.sort(key=lambda r: (r.identity_name, r.kernel, r.n, r.seed))
    return reports
