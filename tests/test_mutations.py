"""Wrong formulas that the suite must reject.

Each row of ``MUTANTS`` replaces one function, in each package module
that binds it, by a wrong version of it and names the (identity, kernel
tag) pairs whose every record must then fail, by at least 1e3 times its
tolerance.  The checkers and builders look these functions up by module
name at call time, so a patched name reaches them.  The suite calls them on
stacks of trials (a leading trial axis), so each wrong version works on
the last axes.  A row that names no pair is an identity "mutant": it must
leave every record unchanged.

A wrong formula that no identity catches is a coverage gap of the
verifier; its row stays in the table.
"""

import dataclasses

import numpy as np
import pytest

from ellcauchy import DimensionMismatch, SuiteConfig, cauchy, linalg, run_suite, verify, weierstrass

CFG = SuiteConfig(n_values=(2, 3, 4), trials_per_n=2)

FLAT_TAGS = ("elliptic", "trig", "rational")


def at_shifted_lam(f):
    """The factor g evaluated at lambda + 1e-3."""
    return lambda *args: f(*args[:-1], args[-1] + 1e-3)


def last_rung_shifted(f):
    """The Gauss ladder with lambda_N moved by 1e-3."""
    return lambda x, y, lam: f(x, y, lam) + np.eye(np.shape(x)[-1])[-1] * 1e-3


def det_shift_flipped(f):
    """The closed determinant with f(lambda - X + Y) for f(lambda + X - Y)."""

    def wrong(kern, x, y, lam):
        shift = x.sum(axis=-1) - y.sum(axis=-1)
        return f(kern, x, y, lam) * (kern(lam - shift) / kern(lam + shift))

    return wrong


def d_scaled_transposed(f):
    """The scaled-C builder with every D-scaled result (G, H and the closed
    inverse; C itself is left alone) transposed."""

    def wrong(kern, x, y, lam, left, right, what):
        scaled = f(kern, x, y, lam, left, right, what)
        return np.swapaxes(scaled, -1, -2) if left or right else scaled

    return wrong


def u_below_diagonal(f):
    """The UDL decomposition with 1e-3 added to U's entry (N-1, 0), below
    its diagonal."""

    def wrong(kern, x, y, lam):
        u, d, l = f(kern, x, y, lam)
        u = u.copy()
        u[..., -1, 0] += 1e-3
        return u, d, l

    return wrong


def sign_flipped(f):
    """Pivoted LU that reports the wrong permutation parity."""

    def wrong(a):
        lu, perm, sign = f(a)
        return lu, perm, -sign

    return wrong


def eta_prime_flipped(f):
    """sigma on a lattice whose eta' has the wrong sign."""
    return lambda lat, z: f(dataclasses.replace(lat, eta_prime=-lat.eta_prime), z)


#: (name, modules that bind the patched name, patched attribute,
#:  original -> wrong implementation,
#:  identity -> kernel tags on which every record must fail)
MUTANTS = [
    ("g elliptic at lam+1e-3", (cauchy,), "g_factor_elliptic", at_shifted_lam, {"factorization": ("elliptic",)}),
    ("g trig at lam+1e-3", (cauchy,), "g_factor_trig", at_shifted_lam, {"factorization": ("trig",)}),
    ("g rational at lam+1e-3", (cauchy,), "g_factor_rat", at_shifted_lam, {"factorization": ("rational",)}),
    (
        # G, H and the closed inverse are all the one scaled-C builder
        "G transposed",
        (cauchy,),
        "_scaled",
        d_scaled_transposed,
        {
            "factorization": FLAT_TAGS,
            "product": FLAT_TAGS,
            "inverse": ("elliptic", "rational"),
            "transposed": ("elliptic",),
            "degeneration": ("rational",),
        },
    ),
    (
        "K transposed",
        (cauchy,),
        "k_matrix",
        lambda f: lambda x, y: np.swapaxes(f(x, y), -1, -2),
        {"factorization": ("k-rational",), "product": ("k-rational",), "degeneration": ("rational",)},
    ),
    (
        "G at lam-Y for lam+Y",
        (cauchy,),
        "g_matrix",
        lambda f: lambda kern, x, y, lam: f(kern, x, y, lam - 2 * y.sum(axis=-1)),
        {"factorization": FLAT_TAGS, "product": FLAT_TAGS},
    ),
    (
        "lam-2Y for lam in cauchy_inverse_closed",
        (cauchy,),
        "cauchy_inverse_closed",
        lambda f: lambda kern, x, y, lam: f(kern, x, y, lam - 2 * y.sum(axis=-1)),
        {"inverse": ("elliptic", "rational")},
    ),
    (
        "closed inverse at lam(1+1e-3)",
        (cauchy,),
        "cauchy_inverse_closed",
        lambda f: lambda kern, x, y, lam: f(kern, x, y, lam * (1 + 1e-3)),
        {"inverse": ("elliptic", "rational")},
    ),
    ("lambda_N shifted by 1e-3", (cauchy,), "gauss_lambda_ladder", last_rung_shifted, {"gauss": ("elliptic",)}),
    # the sizes of CFG start at 2, so the entry is off the diagonal
    ("U nonzero below its diagonal", (cauchy,), "gauss_udl", u_below_diagonal, {"gauss": ("elliptic",)}),
    (
        "squared Lagrange denominator",
        (cauchy,),
        "_lagrange_den",
        lambda f: lambda *args, **kwargs: f(*args, **kwargs) ** 2,
        {
            "factorization": (*FLAT_TAGS, "k-rational"),
            "product": (*FLAT_TAGS, "k-rational"),
            "inverse": ("elliptic", "rational"),
            "transposed": ("elliptic",),
            "degeneration": ("trig",),
        },
    ),
    (
        "lam-X+Y in frobenius_det",
        (cauchy,),
        "frobenius_det",
        det_shift_flipped,
        {"determinant": ("elliptic", "rational"), "gauss": ("elliptic",)},
    ),
    (
        "lam-X+Y in cauchy_inverse_closed",
        (cauchy,),
        "cauchy_inverse_closed",
        lambda f: lambda kern, x, y, lam: f(kern, x, y, lam - 2 * (x.sum(axis=-1) - y.sum(axis=-1))),
        {"inverse": ("elliptic", "rational")},
    ),
    ("flipped sign from _lu_factor", (linalg,), "_lu_factor", sign_flipped, {"determinant": ("elliptic", "rational")}),
    (
        # it also fails 5 of 6 records of determinant, inverse, gauss and
        # transposed; not every record, so those are not listed
        "sigma with -eta'",
        (weierstrass, cauchy, verify),
        "sigma",
        eta_prime_flipped,
        {"monodromy": ("elliptic",), "factorization": ("elliptic",), "product": ("elliptic",)},
    ),
    ("identity", (cauchy,), "g_matrix", lambda f: lambda *args: f(*args), {}),
]


def strip_timing(reports):
    return [{k: v for k, v in r.to_dict().items() if k != "elapsed_ms"} for r in reports]


@pytest.fixture(scope="module")
def baseline():
    return run_suite(CFG)


@pytest.mark.parametrize("name, modules, attr, wrong, catches", MUTANTS, ids=[row[0] for row in MUTANTS])
def test_mutant_is_caught(monkeypatch, baseline, name, modules, attr, wrong, catches):
    for module in modules:
        monkeypatch.setattr(module, attr, wrong(getattr(module, attr)))
    reports = run_suite(CFG)
    if not catches:
        assert strip_timing(reports) == strip_timing(baseline)
    for identity, tags in catches.items():
        for tag in tags:
            records = [r for r in reports if (r.identity_name, r.kernel) == (identity, tag)]
            assert records, (identity, tag)
            missed = [r for r in records if r.passed or not r.rel_residual >= 1e3 * r.tolerance]
            assert not missed, (identity, tag, missed)


def test_extra_g_column_ends_the_run(monkeypatch):
    # rational columns with an (N + 1)-th: G g(y) = g(x) holds column by
    # column, so every record would pass; the residual refuses a factor
    # that is not square, and the run ends there
    def wrong(x, lam, f=cauchy.g_factor_rat):
        cols = f(x, lam)
        return np.concatenate([cols, cols[..., :1]], axis=-1)

    monkeypatch.setattr(cauchy, "g_factor_rat", wrong)
    with pytest.raises(DimensionMismatch, match="expected square matrix"):
        run_suite(CFG)


def test_baseline_passes(baseline):
    # every catch above is a change from an all-passing run
    assert len(baseline) == 92 and all(r.passed for r in baseline)
