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
    elliptic_kernel,
    random_instance,
    run_suite,
    verify,
)
from ellcauchy.cauchy import gauss_lambda_ladder
from ellcauchy.verify import REGISTRY, check_degeneration, tolerance_for
from ellcauchy.weierstrass import lattice_distance, sigma_k_offsets


@pytest.fixture(scope="module")
def cfg():
    return SuiteConfig()


def strip_timing(reports):
    return [{k: v for k, v in r.to_dict().items() if k != "elapsed_ms"} for r in reports]


# ---------------------------------------------------------------------------
# reference sampler: one Generator.uniform call per coordinate array and per
# parameter coordinate, and an all-pairs separation test first
# ---------------------------------------------------------------------------


def _ref_cell(rng, lat, count=None):
    a = rng.uniform(-0.35, 0.35, count)
    b = rng.uniform(-0.35, 0.35, count)
    return 2 * a * lat.omega + 2 * b * lat.omega_prime


#: variant -> (points(rng, lat, count), lam(rng, lat))
REF_SAMPLERS = {
    "elliptic": (_ref_cell, lambda rng, lat: complex(_ref_cell(rng, lat))),
    "trig": (
        lambda rng, lat, count: rng.uniform(0.0, np.pi, count) + 1j * rng.uniform(0.0, 0.5, count),
        lambda rng, lat: complex(rng.uniform(0.0, np.pi) + 1j * rng.uniform(0.15, 0.6)),
    ),
    "rational": (
        lambda rng, lat, count: (
            np.sqrt(rng.uniform(0.0, 1.0, count)) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, count))
        ),
        lambda rng, lat: complex(rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))),
    ),
}


def reference_margins_ok(kernel, sets, lam, margin):
    """The margin test with no close-pair screen before the all-pairs
    separation test."""
    pts = np.concatenate(sets)
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
        lams = gauss_lambda_ladder(x, y, lam)
        if np.min(kernel.zero_distance(lams)) < margin:
            return False
        if np.min(kernel.zero_distance(x - y + lams)) < margin:
            return False
        if n > verify._SIGMA_K_MAX_N:
            return True
        lat = kernel.lattice
        offsets = sigma_k_offsets(lat, n, np.arange(1, n + 1)).ravel()
        args = (pts + lam / n)[:, None] + offsets[None, :]
        if lattice_distance(lat, args).min() < verify._SIGMA_K_MARGIN:
            return False
    return True


def reference_sample(cfg, kernel, n, seed, with_z=False):
    """``(sets, lam, rounds)`` of the reference rejection loop; raises
    SamplingExhausted like :func:`random_instance`."""
    spec, lat = kernel.spec, kernel.lattice
    points, lam_of = REF_SAMPLERS[kernel.variant]
    n_sets = 3 if with_z else 2
    if n * n_sets * cfg.sep_min**2 > spec.area(lat):
        raise SamplingExhausted(
            f"{n} points with separation {cfg.sep_min} cannot fit the sampling region"
        )
    rng = np.random.default_rng(
        [spec.stream, n, int(with_z), seed & 0xFFFFFFFF, cfg.base_seed & 0xFFFFFFFF]
    )
    for rounds in range(1, verify._MAX_ROUNDS + 1):
        sets = [points(rng, lat, n) for _ in range(n_sets)]
        lam = lam_of(rng, lat)
        if reference_margins_ok(kernel, sets, lam, cfg.sep_min):
            return sets, lam, rounds
    raise SamplingExhausted(f"no admissible instance after {verify._MAX_ROUNDS} rounds")


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


class TestSamplerReference:
    """The block-drawn sampler with its close-pair screen reproduces the
    per-call reference loop bit for bit."""

    SIZES = (*range(1, 9), 12, 16, 20)
    TAUS = (0.3 + 0.7j, 0.1 + 1.3j, 7.3 + 0.9j, 0.08j)

    @staticmethod
    def outcome(sample):
        try:
            return sample()
        except SamplingExhausted as exc:
            return str(exc)

    @pytest.mark.parametrize(
        "variant, tau",
        [("elliptic", tau) for tau in TAUS] + [("trig", TAUS[0]), ("rational", TAUS[0])],
    )
    def test_bit_identical(self, monkeypatch, variant, tau):
        # a lower round limit keeps the exhausting thin-lattice cases
        # cheap; both loops read it, and no instance at the other lattices
        # needs more than 91 rounds
        monkeypatch.setattr(verify, "_MAX_ROUNDS", 100)
        accepted = 0
        for n in self.SIZES:
            # the elliptic-dense separation scaling; 0.05 up to n = 12
            cfg = SuiteConfig(lattice_tau=tau, sep_min=min(0.05, 0.6 / n))
            kern = Kernel(variant, cfg.lattice())
            for with_z in (False, True):
                for seed in range(10):
                    got = self.outcome(lambda: random_instance(cfg, kern, n, seed, with_z))
                    want = self.outcome(lambda: reference_sample(cfg, kern, n, seed, with_z))
                    case = (n, with_z, seed)
                    if isinstance(want, str):
                        assert got == want, case
                        continue
                    accepted += 1
                    sets, lam, _ = want
                    got_sets = [got.x, got.y] + ([got.z] if with_z else [])
                    assert [s.tobytes() for s in got_sets] == [s.tobytes() for s in sets], case
                    assert with_z or got.z is None, case
                    assert np.array([got.lam]).tobytes() == np.array([lam]).tobytes(), case
        assert accepted


class TestMarginScreen:
    """A pair closer than the margin only across a period is rejected by
    the all-pairs test after the plane-distance screen."""

    CASES = {
        # real parts 0.01 and pi - 0.01: 0.02 apart modulo pi
        "trig": (
            TRIG_KERNEL,
            [np.array([0.01 + 0.2j, 1.0 + 0.3j]), np.array([np.pi - 0.01 + 0.2j, 2.0 + 0.4j])],
            1.0 + 0.3j,
        ),
        # p and p + 2 omega - 0.02 at the default lattice (omega = 1)
        "elliptic": (
            elliptic_kernel(SuiteConfig().lattice()),
            [np.array([-0.9 + 0.1j]), np.array([1.08 + 0.1j])],
            0.37 + 0.21j,
        ),
    }

    @pytest.mark.parametrize("variant", list(CASES))
    def test_rejects_pair_a_period_apart(self, variant):
        kern, sets, lam = self.CASES[variant]
        margin = SuiteConfig().sep_min
        pts = np.concatenate(sets)
        diff = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(diff, np.inf)
        assert diff.min() > 10 * margin
        assert kern.separation(pts) == pytest.approx(0.02)
        assert not verify._margins_ok(kern, sets, lam, margin)
        # the same round with the partner moved off the period passes
        moved = [sets[0], sets[1] - 0.3]
        assert verify._margins_ok(kern, moved, lam, margin)


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

    @pytest.mark.parametrize(
        "abs_res, ref_mag", [(math.nan, 1.0), (math.inf, 1.0), (1e-20, math.inf), (1e-20, math.nan)]
    )
    def test_non_finite_residual_fails(self, abs_res, ref_mag):
        rep = verify._report("inverse", "elliptic", 2, 0, abs_res, ref_mag, 1e-8, time.perf_counter())
        assert not rep.passed

    @pytest.mark.parametrize("residuals", [[math.nan, 1.0], [1.0, math.nan], [0.0, math.nan, 2.0]])
    def test_worst_keeps_nan(self, residuals):
        assert math.isnan(verify._worst(residuals))

    def test_nan_monodromy_residuals_fail(self):
        # on the thin lattice sigma_k underflows to 0 at two instances, and
        # its multiplier comparison divides 0 by 0
        cfg = SuiteConfig(lattice_tau=0.08j, n_values=(1, 2, 3, 4), trials_per_n=3)
        with pytest.warns(RuntimeWarning, match="invalid value encountered in scalar divide"):
            reports = run_suite(cfg, identities=["monodromy"])
        failed = [r for r in reports if not r.passed]
        assert {(r.n, r.seed) for r in failed} == {(3, 43), (4, 44)}
        assert all(math.isnan(r.rel_residual) for r in failed)
        assert len(reports) == 12

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
