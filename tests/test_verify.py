"""Sampler determinism, checker dispatch, and suite reproducibility."""

import dataclasses
import math
import time
import weakref
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
    cauchy,
    elliptic_kernel,
    frobenius_det,
    random_instance,
    run_suite,
    verify,
)
from ellcauchy.cauchy import gauss_lambda_ladder
from ellcauchy.verify import REGISTRY


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


def separation(kernel, pts):
    """Smallest zero distance of a difference of two points of ``pts``
    (inf for a single point)."""
    pts = np.asarray(pts, dtype=complex)
    i, l = np.triu_indices(len(pts), 1)
    return kernel.zero_distance(pts[i] - pts[l]).min(initial=np.inf)


def reference_margins_ok(kernel, sets, lam, margin):
    """The margin test with no close-pair screen before the all-pairs
    separation test."""
    pts = np.concatenate(sets)
    if separation(kernel, pts) < margin:
        return False
    sums = [s.sum() for s in sets]
    x_sum, y_sum = sums[0], sums[1]
    shifts = [0.0, x_sum, -x_sum, y_sum, -y_sum, x_sum - y_sum, y_sum - x_sum]
    if len(sets) == 3:
        shifts += [sums[2], -sums[2]]
    if np.min(kernel.zero_distance(lam + np.asarray(shifts))) < margin:
        return False
    x, y = sets[0], sets[1]
    lams = gauss_lambda_ladder(x, y, lam)
    if np.min(kernel.zero_distance(lams)) < margin:
        return False
    return np.min(kernel.zero_distance(x - y + lams)) >= margin


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
            {"lattice_tau": complex(math.inf, 0.7)},
            {"lattice_tau": complex(0.3, math.inf)},
            {"lattice_tau": complex(0.3, math.nan)},
            {"tolerance": -1.0},
            {"tolerance": math.nan},
            {"tolerance": math.inf},
            {"sep_min": 0.0},
            {"sep_min": math.nan},
            {"n_values": (2.5,)},
            {"n_values": (3, 2.5)},
            {"trials_per_n": 2.5},
            {"trials_per_n": "3"},
            {"sep_min": 1e-13},
            {"n_values": (2, 2)},
            {"base_seed": 1.5},
            {"base_seed": "42"},
            {"base_seed": -1},
            {"base_seed": 2**32},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            SuiteConfig(**kwargs)

    def test_seed_range(self):
        # every trial's seed is a 32-bit word, so seeds never alias modulo 2**32
        assert SuiteConfig(base_seed=2**32 - 10, trials_per_n=10).base_seed == 2**32 - 10
        with pytest.raises(ValueError, match="seeds"):
            SuiteConfig(base_seed=2**32 - 10, trials_per_n=11)
        cfg = SuiteConfig(n_values=(3,))
        for seed in (-5, 2**32 + 42):
            with pytest.raises(OverflowError):
                random_instance(cfg, RATIONAL_KERNEL, 3, seed)

    def test_margin_floor_is_the_builders_zero_test(self):
        # any margin down to the builders' own zero test samples an instance
        cfg = SuiteConfig(sep_min=1e-7)
        inst = random_instance(cfg, elliptic_kernel(cfg.lattice()), 4, 42)
        assert inst.n == 4
        SuiteConfig(sep_min=cauchy.ZERO_TOL)

    def test_integer_sizes_become_ints(self):
        cfg = SuiteConfig(n_values=(np.int64(3), 1), trials_per_n=np.int64(2))
        assert cfg.n_values == (3, 1) and cfg.trials_per_n == 2
        assert all(type(n) is int for n in (*cfg.n_values, cfg.trials_per_n))


def tolerance_for(name, n, base=SuiteConfig.tolerance, tag="elliptic"):
    return REGISTRY[name].tolerance(tag, n, base)


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

    @pytest.mark.parametrize("n, base", [(5, 1e-8), (1, 1e-8), (5, 1e-6)])
    def test_degeneration_tolerances_are_fixed(self, n, base):
        # neither the base tolerance nor the scalar cap moves them
        assert tolerance_for("degeneration", n, base, tag="rational") == 1e-4
        assert tolerance_for("degeneration", n, base, tag="trig") == 1e-3


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

    def test_rejects_empty_seed_list(self, cfg, kern):
        with pytest.raises(ValueError):
            random_instance(cfg, kern, 3, [])


class TestSamplerReference:
    """The block-drawn sampler with its close-pair screen reproduces the
    per-call reference loop bit for bit, one seed at a time and for a
    stack of seeds in one call."""

    SIZES = (*range(1, 9), 12, 16, 20)
    TAUS = (0.3 + 0.7j, 0.1 + 1.3j, 7.3 + 0.9j, 0.08j)
    SEEDS = range(10)

    @staticmethod
    def outcome(sample):
        try:
            return sample()
        except SamplingExhausted as exc:
            return str(exc)

    @staticmethod
    def assert_member(got, want, with_z, case):
        sets, lam, _ = want
        got_sets = [got.x, got.y] + ([got.z] if with_z else [])
        assert [s.tobytes() for s in got_sets] == [s.tobytes() for s in sets], case
        assert with_z or got.z is None, case
        assert np.array([got.lam]).tobytes() == np.array([lam]).tobytes(), case

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
                wants = [self.outcome(lambda: reference_sample(cfg, kern, n, seed, with_z)) for seed in self.SEEDS]
                for seed, want in zip(self.SEEDS, wants):
                    got = self.outcome(lambda: random_instance(cfg, kern, n, seed, with_z))
                    case = (n, with_z, seed)
                    if isinstance(want, str):
                        assert got == want, case
                        continue
                    accepted += 1
                    self.assert_member(got, want, with_z, case)
                # the stack raises the message of its first exhausted seed
                stack = self.outcome(lambda: random_instance(cfg, kern, n, list(self.SEEDS), with_z))
                exhausted = [want for want in wants if isinstance(want, str)]
                if exhausted:
                    assert stack == exhausted[0], (n, with_z)
                    continue
                assert list(stack.seed) == list(self.SEEDS)
                for b, want in enumerate(wants):
                    self.assert_member(stack.member(b), want, with_z, (n, with_z, "stack", b))
        assert accepted

    def test_bit_identical_on_the_sorted_screen(self, monkeypatch):
        # no pair difference fits a budget of 0: every block is one round of
        # one trial, and takes the sorted screen
        screens, sorted_screen = [], verify._sorted_screen
        monkeypatch.setattr(verify, "_PAIR_BUDGET", 0)
        monkeypatch.setattr(verify, "_sorted_screen", lambda *a: screens.append(1) or sorted_screen(*a))
        self.test_bit_identical(monkeypatch, "elliptic", self.TAUS[0])
        assert screens


def test_blocks_keep_the_pair_budget(monkeypatch):
    # a 100-trial stack at N = 20, whose blocks outgrow the pair budget and
    # take the sorted screen, and a stack whose one round alone holds more
    # pair differences than the budget
    blocks, calls, per_call = [], [], []
    margins_ok, zero_distance = verify._margins_ok, Kernel.zero_distance

    def recorded(kernel, sets, lam, margin):
        n_sets, rounds, n = np.shape(sets)
        blocks.append((rounds, n_sets * n))
        per_call.append(max(1, verify._PAIR_BUDGET // math.comb(n_sets * n, 2)))
        try:
            return margins_ok(kernel, sets, lam, margin)
        finally:
            per_call.pop()

    def counted(self, z):
        if per_call:  # inside a margin test: z is (rounds, margins)
            calls.append((np.shape(z)[0], per_call[-1]))
        return zero_distance(self, z)

    monkeypatch.setattr(verify, "_margins_ok", recorded)
    monkeypatch.setattr(Kernel, "zero_distance", counted)
    cfg = SuiteConfig(n_values=(20,), base_seed=1, sep_min=0.03)
    for with_z in (False, True):
        stack = random_instance(cfg, elliptic_kernel(cfg.lattice()), 20, range(100), with_z)
        assert stack.x.shape == (100, 20)
    assert all(rounds * points <= verify._PAIR_BUDGET or rounds == 1 for rounds, points in blocks)
    assert max(rounds * points for rounds, points in blocks) > verify._PAIR_BUDGET // 2
    assert max(rounds * math.comb(points, 2) for rounds, points in blocks) > verify._PAIR_BUDGET
    assert calls and all(rounds <= cap for rounds, cap in calls)
    blocks.clear()
    calls.clear()
    wide = SuiteConfig(sep_min=1e-6)
    random_instance(wide, RATIONAL_KERNEL, 200, range(3), with_z=True)
    assert all(rounds * points <= verify._PAIR_BUDGET for rounds, points in blocks)
    assert math.comb(600, 2) > verify._PAIR_BUDGET
    assert calls and all(rounds == cap == 1 for rounds, cap in calls)


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
        assert separation(kern, pts) == pytest.approx(0.02)
        assert not verify._margins_ok(kern, sets, lam, margin)
        # the same round with the partner moved off the period passes
        moved = [sets[0], sets[1] - 0.3]
        assert verify._margins_ok(kern, moved, lam, margin)


class TestSortedScreen:
    """The sorted close-pair screen of a large block gives the verdicts of
    the all-pairs screen of a small one, round by round."""

    MARGIN = 0.0625  # a power of two, so a difference can equal it exactly
    ROUNDS = {
        "equal real parts": (
            [0.25, 0.25 + 0.25j, -0.5 + 0.1j, 0.5 - 0.2j],
            [0.25 - 0.25j, -0.25 + 0.5j, 0.75 + 0.3j, -0.75 - 0.1j],
        ),
        "equal real parts, close": (
            [0.25, 0.25 + 0.25j, -0.5 + 0.1j, 0.5 - 0.2j],
            [0.25 + 0.03125j, -0.25 + 0.5j, 0.75 + 0.3j, -0.75 - 0.1j],
        ),
        "exactly the margin apart": (
            [0.25, 0.5 + 0.5j, -0.5 + 0.1j, 0.5 - 0.2j],
            [0.3125, 0.5 + 0.5625j, 0.75 + 0.3j, -0.75 - 0.1j],
        ),
        # 0 and 0.04 are close, with three points between them by real part
        "close across three neighbours": (
            [0.0, 0.01 + 0.3j, 0.02 + 0.6j, 0.5 - 0.2j],
            [0.03 - 0.3j, 0.04, 0.75 + 0.3j, -0.75 - 0.1j],
        ),
        # every real-part gap is 0, so the sweep runs to k = P - 1
        "vertical column": (
            [0.1, 0.1 + 0.1j, 0.1 + 0.2j, 0.1 + 0.3j],
            [0.1 - 0.1j, 0.1 - 0.2j, 0.1 - 0.3j, 0.1 + 0.4j],
        ),
        "duplicate points": (
            [0.25, 0.5 + 0.5j, -0.5 + 0.1j, 0.5 - 0.2j],
            [0.25, -0.25 + 0.5j, 0.75 + 0.3j, -0.75 - 0.1j],
        ),
        # 0 and 0.02 + 0.03i are close; ordered by imaginary part instead,
        # -5 + 0.01i lies between them and every real-part gap at k = 2
        # is at least the margin, so a sweep in that order would stop there
        "close, out of imaginary order": (
            [0.0, -5 + 0.01j, 0.3 + 0.02j, 0.02 + 0.03j],
            [0.5 + 2j, 0.6 + 2.5j, 1.0 + 3j, 1.2 + 3.5j],
        ),
    }
    WANT = [True, False, True, False, True, False, False]

    @pytest.mark.parametrize("budget", [10**6, 0], ids=["all-pairs", "sorted"])
    def test_crafted_rounds(self, monkeypatch, kern, budget):
        sets = np.array(list(self.ROUNDS.values()), dtype=complex).transpose(1, 0, 2)
        lam = np.full(len(self.ROUNDS), 0.37 + 0.21j)
        want = [reference_margins_ok(kern, list(sets[:, r]), lam[r], self.MARGIN) for r in range(len(lam))]
        assert want == self.WANT
        screens, sorted_screen = [], verify._sorted_screen
        monkeypatch.setattr(verify, "_PAIR_BUDGET", budget)
        monkeypatch.setattr(verify, "_sorted_screen", lambda *a: screens.append(1) or sorted_screen(*a))
        got = verify._margins_ok(kern, sets, lam, self.MARGIN)
        assert got.tolist() == want
        assert len(screens) == (budget == 0)

    @staticmethod
    def plane_ok(pts, margin):
        """The all-pairs close-pair screen: no two points of a round closer
        than ``margin`` in the plane."""
        i, l = np.triu_indices(pts.shape[-1], 1)
        return ~(np.abs(pts[:, i] - pts[:, l]) < margin).any(axis=1)

    @staticmethod
    def assert_screens_agree(pts, margin, want):
        # the block at once, and each round alone, so that no round's sweep
        # runs deeper for another's sake
        assert verify._sorted_screen(pts, margin).tolist() == want.tolist()
        alone = [verify._sorted_screen(pts[r:r + 1], margin)[0] for r in range(len(pts))]
        assert alone == want.tolist()

    def test_screen_on_crafted_rounds(self):
        # round-major, as the margin test hands points to the screens: each
        # round's sets one after the other
        pts = np.array(list(self.ROUNDS.values()), dtype=complex).reshape(len(self.ROUNDS), -1)
        want = self.plane_ok(pts, self.MARGIN)
        assert want.tolist() == self.WANT
        self.assert_screens_agree(pts, self.MARGIN, want)

    def test_screen_on_a_grid(self):
        # points on a grid of step margin / 2, few columns wide and tall
        # enough that about half the rounds pass: ties in real part, pairs
        # exactly the margin apart and duplicates are common, and sweeps go
        # deep, most of all on the three-column grid
        rng = np.random.default_rng(5)
        margin = 0.25
        for n_sets, n, re_half, im_half in ((2, 1, 1, 2), (2, 5, 2, 60), (3, 8, 1, 500)):
            nodes = [rng.integers(-half, half + 1, (n_sets, 200, n)) for half in (re_half, im_half)]
            sets = (nodes[0] + 1j * nodes[1]) * (margin / 2)
            pts = sets.transpose(1, 0, 2).reshape(200, n_sets * n)
            want = self.plane_ok(pts, margin)
            assert 0.3 < want.mean() < 0.7
            self.assert_screens_agree(pts, margin, want)


class TestCheckers:
    def test_scalar_cases_are_exact(self, cfg):
        # every identity reduces to a scalar statement at n=1; residuals
        # must sit at rounding level, well under the 1e-12 scalar tolerance
        # (degeneration is a limit, checked at its fixed size)
        lat = cfg.lattice()
        for name, ident in REGISTRY.items():
            if ident.fixed_n is not None:
                continue
            for tag, variant, with_z in ident.plan:
                inst = random_instance(cfg, Kernel(variant, lat), 1, 3, with_z)
                (rep,) = ident.check(inst, tag, cfg.tolerance)
                assert rep.passed, (name, tag)
                assert rep.rel_residual <= 1e-12, (name, tag)

    def test_determinant_report_fields(self, cfg, kern):
        inst = random_instance(cfg, kern, 4, 11)
        (rep,) = REGISTRY["determinant"].check(inst, "elliptic", cfg.tolerance)
        assert rep.identity_name == "determinant"
        assert rep.kernel == "elliptic"
        assert (rep.n, rep.seed) == (4, 11)
        assert rep.passed and rep.rel_residual <= rep.tolerance
        assert rep.tolerance == tolerance_for("determinant", 4)
        assert rep.elapsed_ms >= 0.0

    def test_inverse_rational(self, cfg):
        inst = random_instance(cfg, RATIONAL_KERNEL, 5, 2)
        (rep,) = REGISTRY["inverse"].check(inst, "rational", cfg.tolerance)
        assert rep.kernel == "rational" and rep.passed

    def test_determinant_rational_checks_lambda_form(self, cfg):
        # the rational record checks C(x,y;lam) with f(z) = z, not the
        # classic 1/(x-y) matrix
        inst = random_instance(cfg, RATIONAL_KERNEL, 4, 2)
        _, ref_mag = verify.check_determinant(inst, "rational")
        assert ref_mag == abs(frobenius_det(RATIONAL_KERNEL, inst.x, inst.y, inst.lam))

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
        inst = random_instance(cfg, RATIONAL_KERNEL, 5, cfg.base_seed)
        ident = REGISTRY["degeneration"]
        reports = [r for tag in ("rational", "trig") for r in ident.check(inst, tag, cfg.tolerance)]
        tags = sorted(r.kernel for r in reports)
        assert tags == ["rational", "trig"]
        assert all(r.passed for r in reports)
        assert {(r.n, r.seed) for r in reports} == {(5, cfg.base_seed)}
        # the trig limit runs on the rational instance, and on no other
        with pytest.raises(ValueError, match="got a trig instance"):
            ident.check(random_instance(cfg, TRIG_KERNEL, 5, cfg.base_seed), "trig", cfg.tolerance)

    def test_failed_rate_fails_within_tolerance(self, cfg, monkeypatch):
        # a constant offset in the rational G at large parameter stays within
        # tolerance but stops the residual from shrinking with the parameter
        inst = random_instance(cfg, RATIONAL_KERNEL, 5, cfg.base_seed)
        ident = REGISTRY["degeneration"]
        before = {tag: ident.check(inst, tag, cfg.tolerance) for tag in ("rational", "trig")}
        assert all(r.passed for reports in before.values() for r in reports)
        g_matrix = cauchy.g_matrix

        def offset(kern, x, y, lam):
            g = g_matrix(kern, x, y, lam)
            if kern.variant == "rational" and np.abs(lam) > 1e5:
                g = g + 1e-6 * np.abs(g).max()
            return g

        monkeypatch.setattr(cauchy, "g_matrix", offset)
        (rational,) = ident.check(inst, "rational", cfg.tolerance)
        assert rational.rel_residual == pytest.approx(1e-6, rel=0.1)
        assert rational.rel_residual <= rational.tolerance and not rational.passed
        assert strip_timing(ident.check(inst, "trig", cfg.tolerance)) == strip_timing(before["trig"])

    @pytest.mark.parametrize(
        "abs_res, ref_mag", [(math.nan, 1.0), (math.inf, 1.0), (1e-20, math.inf), (1e-20, math.nan)]
    )
    def test_non_finite_residual_fails(self, cfg, kern, abs_res, ref_mag):
        ident = dataclasses.replace(REGISTRY["inverse"], checker=lambda inst, tag: (abs_res, ref_mag))
        (rep,) = ident.check(random_instance(cfg, kern, 2, 0), "elliptic", 1e-8)
        assert not rep.passed

    @pytest.mark.parametrize("residuals", [[math.nan, 1.0], [1.0, math.nan], [0.0, math.nan, 2.0]])
    def test_worst_keeps_nan(self, residuals):
        assert math.isnan(verify._worst(residuals))

    def test_nan_monodromy_residuals_fail(self):
        # on the thin lattice sigma_k underflows to 0 at two instances, and
        # its multiplier comparison divides 0 by 0 (an array divide: the
        # trials of a size are checked as one stack)
        cfg = SuiteConfig(lattice_tau=0.08j, n_values=(1, 2, 3, 4), trials_per_n=3)
        with pytest.warns(RuntimeWarning, match="invalid value encountered in divide"):
            reports = run_suite(cfg, identities=["monodromy"])
        failed = [r for r in reports if not r.passed]
        assert {(r.n, r.seed) for r in failed} == {(3, 43), (4, 44)}
        assert all(math.isnan(r.rel_residual) for r in failed)
        assert len(reports) == 12

    def test_report_roundtrip(self, cfg, kern):
        (rep,) = REGISTRY["determinant"].check(random_instance(cfg, kern, 2, 0), "elliptic", 1e-8)
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

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"kernels": {"ellipitc"}}, "ellipitc"),
            # a kernel tag, not a variant
            ({"kernels": {"k-rational"}}, "k-rational"),
            ({"identities": ["determinent"]}, "determinent"),
            # a repeated name would run its checks twice
            ({"identities": ["product", "product"], "kernels": {"trig"}}, "product"),
            ({"identities": ["degeneration"] * 2}, "degeneration"),
        ],
    )
    def test_rejects_unknown_names(self, small, kwargs, name):
        # neither an empty run nor a bare KeyError
        with pytest.raises(ValueError, match=name):
            run_suite(small, **kwargs)

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
            assert r.tolerance == tolerance_for(r.identity_name, r.n, tag=r.kernel), r

    def test_degeneration_ignores_the_grid(self):
        # one check per tag on the base seed's N = 5 instance at fixed
        # tolerances, whatever the sizes, trial count and base tolerance
        default = run_suite(SuiteConfig(), identities=["degeneration"])
        other = SuiteConfig(n_values=(2, 3), trials_per_n=3, tolerance=1e-6)
        assert len(default) == 2
        assert strip_timing(run_suite(other, identities=["degeneration"])) == strip_timing(default)

    def test_degeneration_skipped_without_its_kernels(self, small, monkeypatch):
        def unselected(*args):
            raise AssertionError("degeneration ran with neither trig nor rational selected")

        monkeypatch.setattr(verify, "check_degeneration", unselected)
        reports = run_suite(small, kernels={"elliptic"})
        assert reports and {r.kernel for r in reports} == {"elliptic"}

    def test_size_caps(self, small):
        cfg = SuiteConfig(n_values=(8,), trials_per_n=1)
        assert run_suite(cfg, identities=["factorization"]) == []

    @pytest.mark.parametrize("n, sep_min", [(20, 0.03), (32, 0.6 / 32)])
    def test_factorization_at_large_n(self, n, sep_min):
        # the elliptic g(y) spans many decades here and is numerically
        # singular, but G g(y) = g(x) needs no inverse of it
        cfg = SuiteConfig(n_values=(n,), sep_min=sep_min)
        kern = elliptic_kernel(cfg.lattice())
        for seed in range(3):
            (rep,) = REGISTRY["factorization"].check(random_instance(cfg, kern, n, seed), "elliptic", cfg.tolerance)
            assert rep.rel_residual <= 1e-13, (seed, rep.rel_residual)

    def test_tight_separation_does_not_hurt(self):
        # residuals with generous separation should not be wildly worse
        # than with the default margin (conditioning sanity check)
        loose = SuiteConfig(n_values=(4,), trials_per_n=5, sep_min=0.1)
        tight = SuiteConfig(n_values=(4,), trials_per_n=5, sep_min=0.05)
        worst = lambda cfg: max(r.rel_residual for r in run_suite(cfg, identities=["determinant"]))
        assert worst(loose) < 1e-11
        assert worst(tight) < 1e-10


def reference_run_suite(cfg):
    """The suite loop with no sharing: a fresh instance for every
    (identity, kernel tag, N, trial)."""
    lat = cfg.lattice()
    reports = []
    for ident in REGISTRY.values():
        # a fixed-size identity is checked once, on the base seed
        sizes = [ident.fixed_n] if ident.fixed_n else cfg.n_values
        trials = 1 if ident.fixed_n else cfg.trials_per_n
        for tag, variant, with_z in ident.plan:
            for n in sizes:
                if ident.n_cap is not None and n > ident.n_cap:
                    continue
                for trial in range(trials):
                    inst = random_instance(cfg, Kernel(variant, lat), n, cfg.base_seed + trial, with_z)
                    reports.extend(ident.check(inst, tag, cfg.tolerance))
    reports.sort(key=lambda r: (r.identity_name, r.kernel, r.n, r.seed))
    return reports


class TestSharedInstances:
    """run_suite samples each (kernel variant, N, third set) stack in one
    sampler call, each trial of it once, hands the stack to every identity
    and kernel tag that uses it, and drops it before the next."""

    def test_one_sample_per_instance(self, monkeypatch):
        cfg = SuiteConfig(n_values=(1, 2, 3, 4), trials_per_n=2)
        sampled, calls = Counter(), []

        def counted(cfg, kernel, n, seeds, with_z=False):
            calls.append(len(seeds))
            for seed in seeds:
                sampled[kernel.variant, n, seed, with_z] += 1
            return random_instance(cfg, kernel, n, seeds, with_z)

        monkeypatch.setattr(verify, "random_instance", counted)
        reports = run_suite(cfg)
        # 5 is not among the sizes, so degeneration's rational N = 5
        # instance is sampled for it alone
        degeneration = ("rational", 5, cfg.base_seed, False)
        assert sampled.pop(degeneration) == 1
        # 4 sizes x 2 trials of: elliptic, trig and rational with and
        # without a third point set, one call per stack of two trials
        assert len(sampled) == 48 and set(sampled.values()) == {1}
        assert calls == [2] * 24 + [1]
        assert strip_timing(reports) == strip_timing(reference_run_suite(cfg))

    def test_degeneration_shares_its_instance(self, monkeypatch):
        # degeneration runs on the rational N = 5 instance the rational
        # records already hold, so it samples nothing of its own
        cfg = SuiteConfig(n_values=(5,), trials_per_n=1)
        sampled = Counter()

        def counted(cfg, kernel, n, seeds, with_z=False):
            for seed in seeds:
                sampled[kernel.variant, n, seed, with_z] += 1
            return random_instance(cfg, kernel, n, seeds, with_z)

        monkeypatch.setattr(verify, "random_instance", counted)
        reports = run_suite(cfg, identities=["determinant", "degeneration"], kernels={"rational"})
        assert sampled == {("rational", 5, cfg.base_seed, False): 1}
        assert len(reports) == 2 and all(r.passed for r in reports)

    def test_one_stack_at_a_time(self, monkeypatch):
        cfg = SuiteConfig(n_values=(1, 2, 3), trials_per_n=2)
        sampled, alive, sizes = [], [], []

        def tracked(cfg, kernel, n, seeds, with_z=False):
            alive.append(sum(ref() is not None for ref in sampled))
            sizes.append(len(seeds))
            stack = random_instance(cfg, kernel, n, seeds, with_z)
            sampled.append(weakref.ref(stack))
            return stack

        monkeypatch.setattr(verify, "random_instance", tracked)
        run_suite(cfg)
        # no earlier stack is alive while one is sampled: 18 stacks of two
        # trials, then degeneration's rational N = 5 stack of the base seed
        # alone
        assert alive == [0] * 19
        assert sizes == [2] * 18 + [1]


class TestKernelMemo:
    """An instance's elliptic kernel evaluates each distinct argument block
    once, whichever builders ask for it and in whatever order."""

    CHECKS = ("determinant", "inverse", "gauss")

    def run(self, monkeypatch, names, n=8):
        cfg = SuiteConfig()
        inst = random_instance(cfg, elliptic_kernel(cfg.lattice()), n, 42)
        blocks, points = {}, []
        fused, sigma = cauchy._fused, cauchy.sigma

        def recorded(kernel, *args):
            for a in args:
                a = np.asarray(a, dtype=complex)
                blocks[(a.shape, a.tobytes())] = a.size
            return fused(kernel, *args)

        def counted(lat, z):
            points.append(np.size(z))
            return sigma(lat, z)

        with monkeypatch.context() as m:
            m.setattr(cauchy, "_fused", recorded)
            m.setattr(cauchy, "sigma", counted)
            reports = [r for name in names for r in REGISTRY[name].check(inst, "elliptic", cfg.tolerance)]
        return strip_timing(sorted(reports, key=lambda r: r.identity_name)), sum(points), sum(blocks.values())

    def test_each_block_evaluated_once(self, monkeypatch):
        reports, points, distinct = self.run(monkeypatch, self.CHECKS)
        assert points == distinct
        assert all(r["passed"] for r in reports)

    @pytest.mark.parametrize("n", [3, 8])
    def test_inverse_reads_x_minus_y_from_the_memo(self, monkeypatch, n):
        # C(x, y; lam) evaluates f(x - y), and the closed inverse, a scaled
        # C(x, y; -mu), reads it: 2N^2 + 1 points for C, N^2 + 1 for the
        # shifted numerator and f(-mu), N(N - 1) for both pair sets
        _, points, _ = self.run(monkeypatch, ["inverse"], n)
        assert points == 4 * n * n - n + 2

    def test_order_does_not_matter(self, monkeypatch):
        forward = self.run(monkeypatch, self.CHECKS)
        backward = self.run(monkeypatch, self.CHECKS[::-1])
        assert backward == forward

    def test_factorization_evaluates_each_point_once(self, monkeypatch):
        # g(x) divides by f(x_i - x_l) on the instance's kernel, so those
        # pairs come from the memo of the G(x, y) it is checked against:
        # (5N^2 - N)/2 + 1 points for G and N(N - 1)/2 for g(y)'s pairs
        cfg = SuiteConfig(n_values=(16,), sep_min=0.6 / 16)
        inst = random_instance(cfg, elliptic_kernel(cfg.lattice()), 16, 42)
        args, sigma = [], cauchy.sigma

        def recorded(lat, z):
            args.append(np.ravel(z))
            return sigma(lat, z)

        monkeypatch.setattr(cauchy, "sigma", recorded)
        (rep,) = REGISTRY["factorization"].check(inst, "elliptic", cfg.tolerance)
        points = np.concatenate(args)
        assert points.size == np.unique(points).size == 753
        assert rep.passed

    def test_only_elliptic_instances_memoize(self, cfg):
        lat = cfg.lattice()
        variants = ("elliptic", "elliptic", "trig", "rational")
        first, second, trig, rational = (random_instance(cfg, Kernel(v, lat), 3, 42) for v in variants)
        assert first.kernel == second.kernel and first.kernel.memo == {}
        assert first.kernel.memo is not second.kernel.memo
        assert trig.kernel.memo is None and rational.kernel.memo is None


class TestStacks:
    """Each checker answers once per member of a stack, and run_suite's
    stacked reports are the reports of checking each trial on its own."""

    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_checker_answers_per_member(self, cfg, name, size):
        lat = cfg.lattice()
        ident = REGISTRY[name]
        # degeneration, cheap, at every default size
        sizes = range(1, 9) if ident.fixed_n else (1, 2, 5)
        for tag, variant, with_z in ident.plan:
            for n in sizes:
                kern = Kernel(variant, lat)
                members = [random_instance(cfg, kern, n, seed, with_z) for seed in range(40, 40 + size)]
                stack = random_instance(cfg, kern, n, range(40, 40 + size), with_z)
                stacked = [np.broadcast_to(v, (size,)) for v in ident.checker(stack, tag)]
                reports = ident.check(stack, tag, cfg.tolerance)
                assert [r.seed for r in reports] == list(range(40, 40 + size))
                for b, m in enumerate(members):
                    assert stack.x[b].tobytes() + stack.y[b].tobytes() == m.x.tobytes() + m.y.tobytes()
                    assert stack.lam[b] == m.lam and stack.seed[b] == m.seed
                    single = ident.checker(m, tag)
                    for got, want in zip(stacked, single):
                        assert np.array_equal(got[b], want, equal_nan=True), (tag, n, b)
                    assert strip_timing([reports[b]]) == strip_timing(ident.check(m, tag, cfg.tolerance))

    @pytest.mark.parametrize("n_values", [(1, 5), (3,)])
    def test_suite_reports_are_per_trial_checks(self, n_values):
        cfg = SuiteConfig(n_values=n_values, trials_per_n=3, base_seed=7)
        assert strip_timing(run_suite(cfg)) == strip_timing(reference_run_suite(cfg))
