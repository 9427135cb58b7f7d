"""Sampler determinism, checker dispatch, and suite reproducibility."""

import math
import time
from collections import Counter

import numpy as np
import pytest

from ellcauchy import (
    RATIONAL_KERNEL,
    TRIG_KERNEL,
    Kernel,
    Report,
    SamplingExhausted,
    SuiteConfig,
    random_instance,
    run_suite,
)
from ellcauchy.verify import REGISTRY, check_degeneration, tolerance_for


@pytest.fixture(scope="module")
def cfg():
    return SuiteConfig()


def strip_timing(reports):
    return [{k: v for k, v in r.to_dict().items() if k != "elapsed_ms"} for r in reports]


class TestSuiteConfig:
    def test_defaults(self, cfg):
        assert cfg.n_values == tuple(range(1, 9))
        assert cfg.lattice().omega == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials_per_n": 0},
            {"n_values": ()},
            {"n_values": (0, 1)},
            {"lattice_tau": 0.5 - 0.5j},
            {"tolerance": -1.0},
            {"tolerance": math.nan},
            {"tolerance": math.inf},
            {"sep_min": 0.0},
            {"sep_min": math.nan},
            {"n_values": (2.5,)},
            {"n_values": (3, 2.5)},
            {"trials_per_n": 2.5},
            {"trials_per_n": "3"},
            {"sep_min": 1e-7},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            SuiteConfig(**kwargs)

    def test_integer_sizes_become_ints(self):
        cfg = SuiteConfig(n_values=(np.int64(3), 1), trials_per_n=np.int64(2))
        assert cfg.n_values == (3, 1) and cfg.trials_per_n == 2
        assert all(type(n) is int for n in (*cfg.n_values, cfg.trials_per_n))


class TestToleranceLadder:
    def test_matrix_identities_use_base(self):
        assert tolerance_for("inverse", 4) == 1e-8
        assert tolerance_for("product", 8, base=1e-6) == 1e-6

    def test_determinant_and_monodromy_are_tighter(self):
        assert tolerance_for("determinant", 4) == 1e-9
        assert tolerance_for("monodromy", 4) == 1e-9

    def test_scalar_case_is_tightest(self):
        assert tolerance_for("inverse", 1) == 1e-12
        assert tolerance_for("determinant", 1) == 1e-12


class TestRandomInstance:
    def test_deterministic(self, cfg, kern):
        a = random_instance(cfg, kern, 4, 7, with_z=True)
        b = random_instance(cfg, kern, 4, 7, with_z=True)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.z, b.z)
        assert a.lam == b.lam

    def test_seed_changes_instance(self, cfg, kern):
        a = random_instance(cfg, kern, 4, 7)
        b = random_instance(cfg, kern, 4, 8)
        assert not np.array_equal(a.x, b.x)

    def test_margins_enforced(self, cfg, kern):
        for seed in range(5):
            inst = random_instance(cfg, kern, 5, seed)
            pts = np.concatenate([inst.x, inst.y])
            d = kern.zero_distance(pts[:, None] - pts[None, :])
            np.fill_diagonal(d, np.inf)
            assert d.min() >= cfg.sep_min
            assert kern.zero_distance(inst.lam) >= cfg.sep_min

    def test_exhaustion_is_fast_for_impossible_counts(self, cfg, kern):
        t0 = time.perf_counter()
        with pytest.raises(SamplingExhausted):
            random_instance(cfg, kern, 10**6, 0)
        assert time.perf_counter() - t0 < 1.0

    def test_rejects_nonpositive_n(self, cfg, kern):
        with pytest.raises(ValueError):
            random_instance(cfg, kern, 0, 0)


class TestCheckers:
    def test_scalar_cases_are_exact(self, cfg):
        # every identity reduces to a scalar statement at n=1; residuals
        # must sit at rounding level, well under the 1e-12 scalar tolerance
        lat = cfg.lattice()
        for name, ident in REGISTRY.items():
            for tag, with_z in ident.plan:
                kern = Kernel(tag.removeprefix("k-"), lat)
                inst = random_instance(cfg, kern, 1, 3, with_z)
                rep = ident.check(inst, tag, cfg.tolerance)
                assert rep.passed, (name, tag)
                assert rep.rel_residual <= 1e-12, (name, tag)

    def test_determinant_report_fields(self, cfg, kern):
        inst = random_instance(cfg, kern, 4, 11)
        rep = REGISTRY["determinant"].check(inst, "elliptic", cfg.tolerance)
        assert rep.identity_name == "determinant"
        assert rep.kernel == "elliptic"
        assert (rep.n, rep.seed) == (4, 11)
        assert rep.passed and rep.rel_residual <= rep.tolerance
        assert rep.tolerance == tolerance_for("determinant", 4)
        assert rep.elapsed_ms >= 0.0

    def test_inverse_rational(self, cfg):
        inst = random_instance(cfg, RATIONAL_KERNEL, 5, 2)
        rep = REGISTRY["inverse"].check(inst, "rational", cfg.tolerance)
        assert rep.kernel == "rational" and rep.passed

    def test_gauss_rejects_non_elliptic(self, cfg):
        # a kernel tag outside the plan
        inst = random_instance(cfg, RATIONAL_KERNEL, 3, 2)
        with pytest.raises(ValueError, match="does not run on the rational kernel"):
            REGISTRY["gauss"].check(inst, "rational", cfg.tolerance)

    @pytest.mark.parametrize("tag", ["elliptic", "k-rational"])
    def test_check_rejects_mismatched_kernel(self, cfg, tag):
        inst = random_instance(cfg, TRIG_KERNEL, 3, 2)
        with pytest.raises(ValueError, match="got a trig instance"):
            REGISTRY["factorization"].check(inst, tag, cfg.tolerance)

    @pytest.mark.parametrize("name", ["product", "transposed"])
    def test_check_rejects_missing_third_set(self, cfg, kern, name):
        inst = random_instance(cfg, kern, 3, 2, with_z=False)
        with pytest.raises(ValueError, match="needs a third point set"):
            REGISTRY[name].check(inst, "elliptic", cfg.tolerance)

    def test_degeneration_reports(self, cfg):
        reports = check_degeneration(cfg)
        tags = sorted(r.kernel for r in reports)
        assert tags == ["rational", "trig"]
        assert all(r.passed for r in reports)

    def test_report_roundtrip(self, cfg, kern):
        rep = REGISTRY["determinant"].check(random_instance(cfg, kern, 2, 0), "elliptic", 1e-8)
        assert Report(**rep.to_dict()) == rep


@pytest.fixture(scope="module")
def small():
    return SuiteConfig(n_values=(1, 3), trials_per_n=2)


class TestRunSuite:
    def test_all_pass_and_sorted(self, small):
        reports = run_suite(small)
        assert reports
        assert all(r.passed for r in reports)
        keys = [(r.identity_name, r.kernel, r.n, r.seed) for r in reports]
        assert keys == sorted(keys)

    def test_deterministic_modulo_timing(self, small):
        a = strip_timing(run_suite(small, identities=["determinant", "gauss"]))
        b = strip_timing(run_suite(small, identities=["determinant", "gauss"]))
        assert a == b

    def test_kernel_filter(self, small):
        reports = run_suite(small, identities=["product"], kernels={"trig"})
        assert reports and {r.kernel for r in reports} == {"trig"}

    def test_kernel_filter_selects_by_variant(self, small):
        # the rational variant runs both the rational and the k-rational tags
        reports = run_suite(small, identities=["product", "degeneration"], kernels={"rational"})
        assert {r.kernel for r in reports} == {"rational", "k-rational"}

    def test_default_plan(self, cfg):
        # the registry's plan: identity x kernel tag x size, after the n-caps
        reports = run_suite(cfg)
        assert len(reports) == 1102
        counts = Counter((r.identity_name, r.kernel) for r in reports)
        assert counts == {
            ("determinant", "elliptic"): 80,
            ("determinant", "rational"): 80,
            ("inverse", "elliptic"): 80,
            ("inverse", "rational"): 80,
            **{("product", tag): 80 for tag in ("elliptic", "trig", "rational", "k-rational")},
            ("transposed", "elliptic"): 80,
            **{("factorization", tag): 60 for tag in ("elliptic", "trig", "rational", "k-rational")},
            ("gauss", "elliptic"): 80,
            ("monodromy", "elliptic"): 60,
            ("degeneration", "rational"): 1,
            ("degeneration", "trig"): 1,
        }
        for r in reports:
            if r.identity_name != "degeneration":
                assert r.tolerance == tolerance_for(r.identity_name, r.n), r

    def test_size_caps(self, small):
        cfg = SuiteConfig(n_values=(8,), trials_per_n=1)
        assert run_suite(cfg, identities=["factorization"]) == []

    def test_tight_separation_does_not_hurt(self):
        # residuals with generous separation should not be wildly worse
        # than with the default margin (conditioning sanity check)
        loose = SuiteConfig(n_values=(4,), trials_per_n=5, sep_min=0.1)
        tight = SuiteConfig(n_values=(4,), trials_per_n=5, sep_min=0.05)
        worst = lambda cfg: max(r.rel_residual for r in run_suite(cfg, identities=["determinant"]))
        assert worst(loose) < 1e-11
        assert worst(tight) < 1e-10
