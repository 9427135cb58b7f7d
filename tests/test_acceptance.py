"""Acceptance gate: twelve go/no-go checks with pinned tolerances.

Each test prints one ``PASS``/``FAIL`` line (visible with ``pytest -s`` or on
failure) and asserts both the numerical bound and its runtime budget.
"""

import json
import time

import numpy as np
import pytest

from ellcauchy import (
    RATIONAL_KERNEL,
    SuiteConfig,
    TRIG_KERNEL,
    bloch_eval,
    bloch_transport,
    cli,
    elliptic_kernel,
    g_factor,
    lattice_new,
    linalg,
    random_instance,
    run_suite,
    sigma,
    sigma_k,
)
from ellcauchy import verify

CFG = SuiteConfig()  # defaults: n 1..8, 10 trials, seed 42, tau 0.3+0.7i, sep 0.05
LAT = CFG.lattice()


def _gate(num, label, ok, elapsed, budget):
    ok = bool(ok) and elapsed < budget
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {label} ({elapsed:.2f}s)")
    assert ok, f"criterion {num}: {label} (elapsed {elapsed:.2f}s, budget {budget}s)"


def _suite_worst(identities, kernels=None, cfg=CFG):
    reports = run_suite(cfg, identities=identities, kernels=kernels)
    assert reports and all(r.passed for r in reports)
    return max(r.rel_residual for r in reports)


def test_criterion_01_legendre_relation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10):
        tau = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(0.3, 3.0)
        lat = lattice_new(1.0, tau)
        res = abs(2 * lat.eta * lat.omega_prime - 2 * lat.eta_prime * lat.omega - 1j * np.pi)
        worst = max(worst, res)
    _gate(1, f"Legendre residual {worst:.2e} < 1e-12 on 10 lattices",
          worst < 1e-12, time.perf_counter() - t0, 1.0)


def test_criterion_02_sigma_monodromy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    pts = 2 * rng.uniform(-0.4, 0.4, 50) * LAT.omega + 2 * rng.uniform(-0.4, 0.4, 50) * LAT.omega_prime
    worst = 0.0
    s = sigma(LAT, pts)
    for period, eta in ((LAT.omega, LAT.eta), (LAT.omega_prime, LAT.eta_prime)):
        got = sigma(LAT, pts + 2 * period)
        want = -np.exp(2 * eta * (pts + period)) * s
        worst = max(worst, float(np.abs(got - want).max() / np.abs(want).max()))
    for n in range(1, 7):
        sign = (-1.0) ** n
        for k in range(1, n + 1):
            sk = sigma_k(LAT, n, k, pts)
            for period, eta in ((LAT.omega, LAT.eta), (LAT.omega_prime, LAT.eta_prime)):
                got = sigma_k(LAT, n, k, pts + 2 * period)
                want = sign * np.exp(2 * eta * n * (pts + period)) * sk
                worst = max(worst, float(np.abs(got - want).max() / np.abs(want).max()))
    _gate(2, f"sigma/sigma_k monodromy residual {worst:.2e} < 1e-10",
          worst < 1e-10, time.perf_counter() - t0, 2.0)


def test_criterion_03_frobenius_determinant():
    t0 = time.perf_counter()
    worst = _suite_worst(["determinant"], kernels={"elliptic"})
    _gate(3, f"determinant residual {worst:.2e} < 1e-9, N 1..8 x 10 trials",
          worst < 1e-9, time.perf_counter() - t0, 5.0)


def test_criterion_04_closed_inverse():
    t0 = time.perf_counter()
    worst = _suite_worst(["inverse"])  # C(x,y;L) on the elliptic and rational kernels
    _gate(4, f"inverse residual {worst:.2e} < 1e-8, both kernels",
          worst < 1e-8, time.perf_counter() - t0, 5.0)


def test_criterion_05_product_identity():
    t0 = time.perf_counter()
    worst = _suite_worst(["product"])  # elliptic, trig, rational, k-form
    _gate(5, f"product residual {worst:.2e} < 1e-8, four kernel forms",
          worst < 1e-8, time.perf_counter() - t0, 10.0)


def test_criterion_06_transposed_identity():
    t0 = time.perf_counter()
    worst = _suite_worst(["transposed"])
    _gate(6, f"transposed-identity residual {worst:.2e} < 1e-8 with exact sign",
          worst < 1e-8, time.perf_counter() - t0, 10.0)


def test_criterion_07_factorization_and_gauge():
    t0 = time.perf_counter()
    worst = _suite_worst(["factorization"])  # four variants, N capped at 6
    # gauge invariance: right-multiplying the factor by nonsingular S
    rng = np.random.default_rng(7)
    inst = random_instance(CFG, elliptic_kernel(LAT), 4, 7)
    gx = g_factor(inst.kernel, inst.x, inst.lam)
    gy = g_factor(inst.kernel, inst.y, inst.lam)
    s = np.eye(4) + 0.3 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    plain = gx @ linalg.lu_inverse(gy)
    gauged = (gx @ s) @ linalg.lu_inverse(gy @ s)
    gauge_shift = float(np.abs(plain - gauged).max() / np.abs(plain).max())
    _gate(7, f"factorization residual {worst:.2e} < 1e-8, gauge shift {gauge_shift:.2e} < 1e-10",
          worst < 1e-8 and gauge_shift < 1e-10, time.perf_counter() - t0, 10.0)


def test_criterion_08_gauss_decomposition():
    t0 = time.perf_counter()
    # check_gauss folds product, structure (at 1e-12), element sums and the
    # diagonal-product determinant into one residual
    worst = _suite_worst(["gauss"])
    _gate(8, f"UDL residual {worst:.2e} < 1e-8 incl. structure and det checks",
          worst < 1e-8, time.perf_counter() - t0, 10.0)


def test_criterion_09_degeneration_limits():
    t0 = time.perf_counter()
    inst = random_instance(CFG, RATIONAL_KERNEL, 5, CFG.base_seed)
    ident = verify.REGISTRY["degeneration"]
    # includes the rate assertions
    reports = [r for tag in ("rational", "trig") for r in ident.check(inst, tag, CFG.tolerance)]
    ok = all(r.passed for r in reports)
    res = {r.kernel: r.rel_residual for r in reports}
    _gate(9, f"rational->K {res['rational']:.2e} < 1e-4, trig->rational {res['trig']:.2e} < 1e-3, rates ok",
          ok and res["rational"] < 1e-4 and res["trig"] < 1e-3,
          time.perf_counter() - t0, 10.0)


def test_criterion_10_double_bloch():
    t0 = time.perf_counter()
    inst = random_instance(CFG, elliptic_kernel(LAT), 4, 10)
    rng = np.random.default_rng(10)
    x, y, lam = inst.x, inst.y, inst.lam
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w = 0.37 + 0.19j
    base = bloch_eval(LAT, x, c, lam, w)
    worst_mult = 0.0
    for period, eta in ((2 * LAT.omega, LAT.eta), (2 * LAT.omega_prime, LAT.eta_prime)):
        want = np.exp(2 * eta * lam) * base
        worst_mult = max(worst_mult, abs(bloch_eval(LAT, x, c, lam, w + period) - want) / abs(want))
    b = bloch_transport(LAT, x, y, lam, c)
    lam2 = lam - x.sum() + y.sum()
    worst_tr = 0.0
    for wpt in (0.37 + 0.21j, -0.3 + 0.05j, 0.11 - 0.27j, 0.45j, -0.15 - 0.1j):
        lhs = bloch_eval(LAT, x, c, lam, wpt) * np.prod(sigma(LAT, wpt - x) / sigma(LAT, wpt - y))
        rhs = bloch_eval(LAT, y, b, lam2, wpt)
        worst_tr = max(worst_tr, abs(lhs - rhs) / max(1.0, abs(rhs)))
    _gate(10, f"Bloch multipliers {worst_mult:.2e} < 1e-9, transport {worst_tr:.2e} < 1e-8",
          worst_mult < 1e-9 and worst_tr < 1e-8, time.perf_counter() - t0, 5.0)


def test_criterion_11_lagrange_power_sums():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for n in range(1, 9):
        while True:
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            d = np.abs(w[:, None] - w[None, :])
            np.fill_diagonal(d, np.inf)
            if d.min() > 0.2 and np.abs(w).min() > 0.1:
                break
        den = np.prod(w[:, None] - w[None, :] + np.eye(n), axis=1)
        for k in range(n - 1):
            worst = max(worst, abs(np.sum(w**k / den)))
        worst = max(worst, abs(np.sum(w ** (n - 1) / den) - 1))
        worst = max(worst, abs(np.sum(w**n / den) - w.sum()))
        inv = (-1.0) ** (n - 1) / np.prod(w)
        worst = max(worst, abs(np.sum(1 / (w * den)) - inv) / max(1.0, abs(inv)))
    _gate(11, f"Lagrange power-sum residual {worst:.2e} < 1e-10, N <= 8",
          worst < 1e-10, time.perf_counter() - t0, 5.0)


def test_criterion_12_cli_deterministic(tmp_path):
    t0 = time.perf_counter()
    runs = []
    for name in ("first.json", "second.json"):
        path = tmp_path / name
        code = cli.main(["verify-all", "--format", "json", "--out", str(path)])
        assert code == 0
        records = json.loads(path.read_text())
        for r in records:
            del r["elapsed_ms"]
        runs.append(records)
    elapsed = time.perf_counter() - t0
    ok = runs[0] == runs[1] and len(runs[0]) > 0
    _gate(12, f"verify-all exit 0, {len(runs[0])} reports, deterministic JSON, two runs in {elapsed:.1f}s",
          ok, elapsed, 60.0)
