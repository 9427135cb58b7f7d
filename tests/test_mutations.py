"""Wrong formulas that the suite must reject.

Each row of ``MUTANTS`` replaces one function of :mod:`ellcauchy.cauchy`
by a wrong version of it and names the (identity, kernel tag) pairs whose
every record must then fail, by at least 1e3 times its tolerance.  The
checkers look ``cauchy`` functions up at call time, so a patched name
reaches them.  A row that names no pair is an identity "mutant": it must
leave every record unchanged.

A wrong formula that no identity catches is a coverage gap of the
verifier; its row stays in the table.
"""

import numpy as np
import pytest

from ellcauchy import SuiteConfig, cauchy, run_suite

CFG = SuiteConfig(n_values=(2, 3, 4), trials_per_n=2)

FLAT_TAGS = ("elliptic", "trig", "rational")


def at_shifted_lam(f):
    """The factor g evaluated at lambda + 1e-3."""
    return lambda *args: f(*args[:-1], args[-1] + 1e-3)


def last_rung_shifted(f):
    """The Gauss ladder with lambda_N moved by 1e-3."""
    return lambda x, y, lam: f(x, y, lam) + np.eye(len(x))[-1] * 1e-3


#: (name, patched cauchy attribute, original -> wrong implementation,
#:  identity -> kernel tags on which every record must fail)
MUTANTS = [
    ("g elliptic at lam+1e-3", "g_factor_elliptic", at_shifted_lam, {"factorization": ("elliptic",)}),
    ("g trig at lam+1e-3", "g_factor_trig", at_shifted_lam, {"factorization": ("trig",)}),
    ("g rational at lam+1e-3", "g_factor_rat", at_shifted_lam, {"factorization": ("rational",)}),
    (
        "G transposed",
        "g_matrix",
        lambda f: lambda kern, x, y, lam: f(kern, x, y, lam).T,
        {
            "factorization": FLAT_TAGS,
            "product": FLAT_TAGS,
            "inverse": ("elliptic", "rational"),
            "degeneration": ("rational",),
        },
    ),
    (
        "K transposed",
        "k_matrix",
        lambda f: lambda x, y: f(x, y).T,
        {"factorization": ("k-rational",), "product": ("k-rational",), "degeneration": ("rational",)},
    ),
    (
        "G at lam-Y for lam+Y",
        "g_matrix",
        lambda f: lambda kern, x, y, lam: f(kern, x, y, lam - 2 * y.sum()),
        {"factorization": FLAT_TAGS, "product": FLAT_TAGS, "inverse": ("elliptic", "rational")},
    ),
    ("lambda_N shifted by 1e-3", "gauss_lambda_ladder", last_rung_shifted, {"gauss": ("elliptic",)}),
    (
        "squared Lagrange denominator",
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
    ("identity", "g_matrix", lambda f: lambda *args: f(*args), {}),
]


def strip_timing(reports):
    return [{k: v for k, v in r.to_dict().items() if k != "elapsed_ms"} for r in reports]


@pytest.fixture(scope="module")
def baseline():
    return run_suite(CFG)


@pytest.mark.parametrize("name, attr, wrong, catches", MUTANTS, ids=[row[0] for row in MUTANTS])
def test_mutant_is_caught(monkeypatch, baseline, name, attr, wrong, catches):
    monkeypatch.setattr(cauchy, attr, wrong(getattr(cauchy, attr)))
    reports = run_suite(CFG)
    if not catches:
        assert strip_timing(reports) == strip_timing(baseline)
    for identity, tags in catches.items():
        for tag in tags:
            records = [r for r in reports if (r.identity_name, r.kernel) == (identity, tag)]
            assert records, (identity, tag)
            missed = [r for r in records if r.passed or not r.rel_residual >= 1e3 * r.tolerance]
            assert not missed, (identity, tag, missed)


def test_baseline_passes(baseline):
    # every catch above is a change from an all-passing run
    assert len(baseline) == 92 and all(r.passed for r in baseline)
