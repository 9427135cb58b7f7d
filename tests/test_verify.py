"""Sampler determinism, checker dispatch, and suite reproducibility."""

import csv
import dataclasses
import io
import math
import os
import re
import struct
import subprocess
import sys
import time
import warnings
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellcauchy import (
    RATIONAL_KERNEL,
    TRIG_KERNEL,
    Instance,
    Kernel,
    Report,
    SamplingExhausted,
    SuiteConfig,
    _input,
    cauchy,
    cli,
    elliptic_kernel,
    frobenius_det,
    linalg,
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
# reference sampler: a scalar SplitMix64 on Python ints, one uniform call per
# coordinate array and per parameter coordinate, and an all-pairs separation
# test first
# ---------------------------------------------------------------------------

MASK = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15


def splitmix_mix(z):
    """SplitMix64's finalizer on a Python int."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 (Steele, Lea and Flood, OOPSLA 2014), one output at a
    time: the state advances by gamma and each output is the state mixed.
    The state of a list of words starts at 0 and folds in each word as
    ``mix(state ^ (word + gamma))``."""

    def __init__(self, words=()):
        state = 0
        for w in words:
            state = splitmix_mix(state ^ (w + GAMMA))
        self.state = state

    def next(self):
        self.state = (self.state + GAMMA) & MASK
        return splitmix_mix(self.state)

    def random(self):
        """The next output's top 53 bits as a float in [0, 1)."""
        return (self.next() >> 11) * 2.0**-53

    def uniform(self, lo, hi, count=None):
        if count is None:
            return lo + (hi - lo) * self.random()
        return lo + (hi - lo) * np.array([self.random() for _ in range(count)])


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
    # lambda + X - Y as the Frobenius determinant and the closed inverse form it
    shifted = [lam + x_sum - y_sum] + [lam + s for s in sums[1:]] + [lam - s for s in sums[:2]]
    if np.min(kernel.zero_distance(np.asarray(shifted))) < margin:
        return False
    x, y = sets[0], sets[1]
    lams = gauss_lambda_ladder(x, y, lam)  # its last rung is lambda
    if np.min(kernel.zero_distance(lams)) < margin:
        return False
    return np.min(kernel.zero_distance(x - y + lams)) >= margin


def reference_sample(cfg, kernel, n, seed):
    """``(sets, lam, rounds)`` of the reference rejection loop, with the
    three point sets x, y, z; raises SamplingExhausted like
    :func:`random_instance`."""
    spec, lat = kernel.spec, kernel.lattice
    points, lam_of = REF_SAMPLERS[kernel.variant]
    if 3 * n * cfg.sep_min**2 > spec.area(lat):
        raise SamplingExhausted(
            f"{n} points with separation {cfg.sep_min} cannot fit the sampling region"
        )
    rng = SplitMix64([spec.stream, n, 1, seed, cfg.base_seed])
    for rounds in range(1, verify._MAX_ROUNDS + 1):
        sets = [points(rng, lat, n) for _ in range(3)]
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
            {"tolerance": "1e-8"},
            {"tolerance": None},
            {"sep_min": "a"},
            {"sep_min": "0.05"},
            {"lattice_tau": None},
            {"lattice_tau": "0.3+0.7j"},
            {"tolerance": True},
            {"trials_per_n": True},
            {"n_values": (True, 2)},
            {"sep_min": True},
            {"base_seed": False},
            {"tolerance": 10**400},
            {"sep_min": 10**400},
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
        # an int numpy holds only as an object is a number, too
        assert SuiteConfig(tolerance=10**20).tolerance == 1e20


def tolerance_for(name, n, base=SuiteConfig.tolerance, tag="elliptic"):
    return REGISTRY[name].tolerance(tag, n, base)


class TestToleranceLadder:
    def test_matrix_identities_use_base(self):
        assert tolerance_for("inverse", 4) == 1e-8
        assert tolerance_for("product", 8, base=1e-6) == 1e-6

    def test_determinant_and_monodromy_are_tighter(self):
        assert tolerance_for("determinant", 4) == 1e-9
        assert tolerance_for("monodromy", 4) == 1e-9

    @pytest.mark.parametrize("tag", ["elliptic", "trig", "rational", "k-rational"])
    def test_factorization_is_tighter(self, tag):
        # checked as G g(y) = g(x), with no inverse
        assert tolerance_for("factorization", 4, tag=tag) == 1e-9
        assert tolerance_for("factorization", 6, base=1e-6, tag=tag) == 1e-7

    def test_scalar_case_is_tightest(self):
        assert tolerance_for("inverse", 1) == 1e-12
        assert tolerance_for("determinant", 1) == 1e-12

    @pytest.mark.parametrize("n, base", [(5, 1e-8), (1, 1e-8), (5, 1e-6)])
    def test_degeneration_tolerances_are_fixed(self, n, base):
        # neither the base tolerance nor the scalar cap moves them
        assert tolerance_for("degeneration", n, base, tag="rational") == 1e-4
        assert tolerance_for("degeneration", n, base, tag="trig") == 1e-3


class TestRandomInstance:
    def test_pinned_values(self, cfg, kern):
        # the key's constant third word, 1: the values that the instances
        # drawn with a third point set have always had
        inst = random_instance(cfg, kern, 3, 42)
        assert inst.x[0] == 0.17829051469614676 - 0.26206079092933837j
        assert inst.y[2] == 0.30496749359370157 - 0.23657972776247815j
        assert inst.z[1] == -0.16616012938526015 + 0.14019857846799694j
        assert inst.lam == -0.8443630738799718 - 0.4555398306916951j

    def test_deterministic(self, cfg, kern):
        a = random_instance(cfg, kern, 4, 7)
        b = random_instance(cfg, kern, 4, 7)
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
            pts = np.concatenate([inst.x, inst.y, inst.z])
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

    @pytest.mark.parametrize(
        "n, seed, error",
        [(True, 1, TypeError), (np.True_, 1, TypeError), (2.0, 1, TypeError),
         (3, [1, True], ValueError), (3, [1, 2.5], ValueError)],
    )
    def test_rejects_non_integers_before_drawing(self, monkeypatch, cfg, kern, n, seed, error):
        # [1, True] would sample seed 1 twice, as if two trials
        def drawn(*args):
            raise AssertionError("drew rounds for input that is not integers")

        monkeypatch.setattr(verify, "_stream", drawn)
        with pytest.raises(error, match="must be an integer"):
            random_instance(cfg, kern, n, seed)


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
    def assert_member(got, want, case):
        sets, lam, _ = want
        assert [s.tobytes() for s in (got.x, got.y, got.z)] == [s.tobytes() for s in sets], case
        assert np.array([got.lam]).tobytes() == np.array([lam]).tobytes(), case

    @pytest.mark.parametrize(
        "variant, tau",
        [("elliptic", tau) for tau in TAUS] + [("trig", TAUS[0]), ("rational", TAUS[0])],
    )
    def test_bit_identical(self, monkeypatch, variant, tau):
        # a lower round limit keeps the exhausting thin-lattice cases
        # cheap; both loops read it, and no instance at the other lattices
        # needs more than 166 rounds (five need more than 100)
        monkeypatch.setattr(verify, "_MAX_ROUNDS", 200)
        accepted = 0
        for n in self.SIZES:
            # the elliptic-dense separation scaling; 0.05 up to n = 12
            cfg = SuiteConfig(lattice_tau=tau, sep_min=min(0.05, 0.6 / n))
            kern = Kernel(variant, cfg.lattice())
            wants = [self.outcome(lambda: reference_sample(cfg, kern, n, seed)) for seed in self.SEEDS]
            for seed, want in zip(self.SEEDS, wants):
                got = self.outcome(lambda: random_instance(cfg, kern, n, seed))
                case = (n, seed)
                if isinstance(want, str):
                    assert got == want, case
                    continue
                accepted += 1
                self.assert_member(got, want, case)
            # the stack raises the message of its first exhausted seed
            stack = self.outcome(lambda: random_instance(cfg, kern, n, list(self.SEEDS)))
            exhausted = [want for want in wants if isinstance(want, str)]
            if exhausted:
                assert stack == exhausted[0], n
                continue
            assert list(stack.seed) == list(self.SEEDS)
            for b, want in enumerate(wants):
                self.assert_member(stack.member(b), want, (n, "stack", b))
        assert accepted

    def test_first_block_ends_the_stack(self, monkeypatch):
        # rational trials at N = 20 that take 1, 2 or 3 rounds: each takes
        # the first admissible round of the first block, 3 rounds of every
        # trial, and the stack ends in that block
        cfg = SuiteConfig(n_values=(20,), base_seed=1, sep_min=0.02)
        kern = Kernel("rational", cfg.lattice())
        seeds = list(range(1, 8))
        blocks = TestBlockSchedule.blocks(monkeypatch)
        wants = [reference_sample(cfg, kern, 20, seed) for seed in seeds]
        stack = random_instance(cfg, kern, 20, seeds)
        assert blocks == [3 * len(seeds)]
        for b, want in enumerate(wants):
            self.assert_member(stack.member(b), want, ("stack", b))
            self.assert_member(random_instance(cfg, kern, 20, seeds[b]), want, b)
        assert {1, 2, 3} == {want[2] for want in wants}

    def test_bit_identical_on_the_sorted_screen(self, monkeypatch):
        # no pair difference fits a budget of 0: every block is one round of
        # one trial, and takes the sorted screen
        screens, sorted_screen = [], verify._sorted_screen
        monkeypatch.setattr(verify, "_PAIR_BUDGET", 0)
        monkeypatch.setattr(verify, "_sorted_screen", lambda *a: screens.append(1) or sorted_screen(*a))
        self.test_bit_identical(monkeypatch, "elliptic", self.TAUS[0])
        assert screens


class TestStream:
    """The sampler's vectorized SplitMix64 stream against the scalar one."""

    def test_state_zero_gives_the_published_outputs(self):
        words = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        ref = SplitMix64()
        assert [ref.next() for _ in words] == words
        got = verify._stream(np.zeros(1, dtype=np.uint64), 0, 3)
        assert got.tolist() == [[(w >> 11) * 2.0**-53 for w in words]]

    def test_matches_the_scalar_generator(self):
        # rows share their first three words, as a sampler call's trials do
        rng = np.random.default_rng(29)
        prefixes = rng.integers(0, 2**32, (3, 3)).tolist()
        prefixes[0], prefixes[1] = [0, 0, 0], [2**32 - 1] * 3
        for prefix in prefixes:
            tails = rng.integers(0, 2**32, (6, 2)).tolist()
            tails[0], tails[1] = [0, 0], [2**32 - 1] * 2
            words = [prefix + tail for tail in tails]
            keys = verify._stream_keys(prefix, [list(col) for col in zip(*tails)])
            starts = rng.integers(0, 10**6, len(words))
            got = verify._stream(keys, starts, 40)
            for row, (w, start) in enumerate(zip(words, starts.tolist())):
                ref = SplitMix64(w)
                assert int(keys[row]) == ref.state
                # every split of the five words into shared words and
                # columns folds the same state
                for j in range(6):
                    assert verify._stream_keys(w[:j], [[v] for v in w[j:]]).tolist() == [ref.state], (w, j)
                ref.state = (ref.state + start * GAMMA) & MASK
                assert got[row].tolist() == [ref.random() for _ in range(40)], w
            # one offset for every state
            assert verify._stream(keys, 7, 3).tolist() == [r[7:10] for r in verify._stream(keys, 0, 10).tolist()]

    def test_rejects_words_beyond_32_bits(self):
        for word in (-1, 2**32):
            for shared, columns in (
                ([0, 1, 0, word, 42], ()),
                ([0, 1, word], [[3, 4], [42, 42]]),
                ([0, 1, 0], [[3, word], [42, 42]]),
                ([0, 1, 0], [[3, 4], [word, 42]]),
            ):
                with pytest.raises(OverflowError):
                    verify._stream_keys(shared, columns)

    @pytest.mark.parametrize("variant", ["elliptic", "trig", "rational"])
    def test_trial_alone_and_in_a_stack(self, cfg, variant):
        # a trial's instance depends on its own words alone
        kern = Kernel(variant, cfg.lattice())
        stack = random_instance(cfg, kern, 5, [46, 42, 44, 43])
        for b, seed in enumerate(stack.seed.tolist()):
            alone, member = random_instance(cfg, kern, 5, seed), stack.member(b)
            for name in ("x", "y", "z", "lam"):
                assert np.array_equal(getattr(alone, name), getattr(member, name)), (seed, name)

    def test_input_rules_have_one_home(self):
        # every test of outside input is one of the rules in ellcauchy._input
        rule = re.compile(r"operator\.index|isinstance\([^)]*bool|import numbers|dtype\.kind")
        package = Path(verify.__file__).resolve().parent
        homes = {path.name for path in package.glob("*.py") if rule.search(path.read_text())}
        assert homes == {"_input.py"}

    def test_one_member_leaves_as_a_scalar(self):
        # the one output rule: a 0-d value becomes the Python scalar .item()
        # gives, which keeps an extended-precision dtype; a stack stays as is
        one = _input.as_result(np.array(1 + 2j))
        assert one == 1 + 2j and type(one) is complex
        assert type(_input.as_result(np.array(True))) is bool
        assert type(_input.as_result(np.array(1 + 2j, dtype=np.clongdouble))) is np.clongdouble
        stack = np.array([1 + 2j, 3j])
        assert _input.as_result(stack) is stack

    def test_cli_never_imports_numpy_random(self):
        # a fresh interpreter: numpy imports numpy.random only on first use
        src = str(Path(verify.__file__).resolve().parent.parent)
        code = (
            "import sys; from ellcauchy import cli; "
            "code = cli.main(['verify-all', '--n', '2', '--trials', '1']); "
            "sys.stdout.write(f'{code} {\"numpy.random\" in sys.modules}')"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.splitlines()[-1].endswith("0 False")


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
    stack = random_instance(cfg, elliptic_kernel(cfg.lattice()), 20, range(100))
    assert stack.x.shape == (100, 20)
    assert all(rounds * points <= verify._PAIR_BUDGET or rounds == 1 for rounds, points in blocks)
    assert max(rounds * points for rounds, points in blocks) > verify._PAIR_BUDGET // 2
    assert max(rounds * math.comb(points, 2) for rounds, points in blocks) > verify._PAIR_BUDGET
    assert calls and all(rounds <= cap for rounds, cap in calls)
    blocks.clear()
    calls.clear()
    wide = SuiteConfig(sep_min=1e-6)
    random_instance(wide, RATIONAL_KERNEL, 200, range(3))
    assert all(rounds * points <= verify._PAIR_BUDGET for rounds, points in blocks)
    assert math.comb(600, 2) > verify._PAIR_BUDGET
    assert calls and all(rounds == cap == 1 for rounds, cap in calls)


class TestBlockSchedule:
    """Every block is drawn by the first ``cap // size`` pending trials,
    however many rounds they have drawn."""

    @staticmethod
    def blocks(monkeypatch):
        """The rounds of each block the sampler tests, in order."""
        rounds, margins_ok = [], verify._margins_ok

        def recorded(kernel, sets, lam, margin):
            rounds.append(np.shape(sets)[1])
            return margins_ok(kernel, sets, lam, margin)

        monkeypatch.setattr(verify, "_margins_ok", recorded)
        return rounds

    def test_rounds_double_while_the_cap_admits_every_trial(self, monkeypatch):
        # the first block draws 3 rounds of each trial, and every later one
        # one more than each pending trial has drawn, so after k blocks
        # each has drawn 2**(k + 1) - 1: a stack whose slowest trial takes
        # R rounds takes the fewest blocks that reach R (R = 400 here: 8)
        cfg = SuiteConfig(sep_min=0.09)
        kern = elliptic_kernel(cfg.lattice())
        seeds = range(42, 52)
        taken = [reference_sample(cfg, kern, 8, seed)[2] for seed in seeds]
        blocks = self.blocks(monkeypatch)
        random_instance(cfg, kern, 8, seeds)
        drawn = [0, 3]  # rounds a pending trial has drawn before each block, and after the last
        while drawn[-1] < max(taken):
            drawn.append(2 * drawn[-1] + 1)
        # a trial is pending in a block while it has drawn fewer rounds than it takes
        assert blocks == [(end - start) * sum(r > start for r in taken) for start, end in zip(drawn, drawn[1:])]
        assert max(taken) == 400 and len(blocks) == 8

    def test_an_exhausting_stack_costs_about_one_trial(self, monkeypatch):
        # as its rounds grow, a block shrinks to the first pending trial alone
        cfg = SuiteConfig(sep_min=0.05)
        blocks = self.blocks(monkeypatch)
        with pytest.raises(SamplingExhausted, match="rounds"):
            random_instance(cfg, elliptic_kernel(cfg.lattice()), 20, range(42, 52))
        assert verify._MAX_ROUNDS <= sum(blocks) < 1.25 * verify._MAX_ROUNDS


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

    @staticmethod
    def block(sets, lam):
        """One round as the margin test takes a block: points of shape
        (sets, 1, n) and one parameter."""
        return np.array(sets, dtype=complex)[:, None], np.array([lam])

    @pytest.mark.parametrize("variant", list(CASES))
    def test_rejects_pair_a_period_apart(self, variant):
        kern, sets, lam = self.CASES[variant]
        margin = SuiteConfig().sep_min
        pts = np.concatenate(sets)
        diff = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(diff, np.inf)
        assert diff.min() > 10 * margin
        assert separation(kern, pts) == pytest.approx(0.02)
        assert verify._margins_ok(kern, *self.block(sets, lam), margin).tolist() == [False]
        # the same round with the partner moved off the period passes
        moved = [sets[0], sets[1] - 0.3]
        assert verify._margins_ok(kern, *self.block(moved, lam), margin).tolist() == [True]


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
            for tag, variant in ident.plan:
                inst = random_instance(cfg, Kernel(variant, lat), 1, 3)
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
        # classic 1/(x-y) matrix (np.abs, as the checker takes it: Python's
        # abs of a complex may differ from it in the last bit)
        inst = random_instance(cfg, RATIONAL_KERNEL, 4, 2)
        _, ref_mag = verify.check_determinant(inst, "rational")
        assert ref_mag == np.abs(frobenius_det(RATIONAL_KERNEL, inst.x, inst.y, inst.lam))

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
        # the identities that read z never see an instance without it: every
        # instance holds z, and at N = 1 a None would otherwise read as the
        # point set [nan]
        for n in cfg.n_values:
            inst = random_instance(cfg, kern, n, 2)
            with pytest.raises(TypeError, match="a point set must be numbers, not of dtype object"):
                dataclasses.replace(inst, z=None)
            with pytest.raises(TypeError, match="missing 1 required positional argument: 'z'"):
                cauchy.Instance(inst.kernel, inst.x, inst.y, inst.lam)
            (rep,) = REGISTRY[name].check(inst, "elliptic", cfg.tolerance)
            assert rep.passed, (name, n)

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

        # the residual at lambda = 1e6, offset included, over max |K|
        ref = cauchy.k_matrix(inst.x, inst.y)
        want = np.abs(offset(RATIONAL_KERNEL, inst.x, inst.y, 1e6) - ref).max() / np.abs(ref).max()
        monkeypatch.setattr(cauchy, "g_matrix", offset)
        (rational,) = ident.check(inst, "rational", cfg.tolerance)
        assert 1e-6 < want < 1e-5
        assert rational.rel_residual == pytest.approx(want, rel=1e-12)
        assert rational.rel_residual <= rational.tolerance and not rational.passed
        assert strip_timing(ident.check(inst, "trig", cfg.tolerance)) == strip_timing(before["trig"])

    @pytest.mark.parametrize(
        "abs_res, ref_mag",
        [
            (math.nan, 1.0),
            (math.inf, 1.0),
            (1e-20, math.inf),
            (1e-20, math.nan),
            pytest.param([math.nan, math.inf, 1e-20, 1e-20, 5e-9], [1.0, 1.0, math.inf, math.nan, 1.0], id="stack"),
        ],
    )
    def test_non_finite_residual_fails(self, cfg, kern, abs_res, ref_mag):
        def judged(inst, abs_res, ref_mag):
            ident = dataclasses.replace(REGISTRY["inverse"], checker=lambda inst, tag: (abs_res, ref_mag))
            return ident.check(inst, "elliptic", 1e-8)

        if np.ndim(abs_res) == 0:
            (rep,) = judged(random_instance(cfg, kern, 2, 0), abs_res, ref_mag)
            assert not rep.passed
            return
        # the stack is judged at once, and each member as it is alone
        stack = random_instance(cfg, kern, 2, list(range(len(abs_res))))
        reports = judged(stack, np.array(abs_res), np.array(ref_mag))
        assert [r.passed for r in reports] == [False, False, False, False, True]
        for b, rep in enumerate(reports):
            # by repr, where NaN equals NaN
            assert repr(strip_timing([rep])) == repr(strip_timing(judged(stack.member(b), abs_res[b], ref_mag[b])))

    def test_integer_residuals_are_reported_as_floats(self, cfg, kern):
        ident = dataclasses.replace(REGISTRY["inverse"], checker=lambda inst, tag: (0, np.array([1, 2])))
        reports = ident.check(random_instance(cfg, kern, 2, [0, 1]), "elliptic", 1e-8)
        assert [(r.abs_residual, r.rel_residual, r.passed) for r in reports] == [(0.0, 0.0, True)] * 2
        assert all(type(r.abs_residual) is float and type(r.rel_residual) is float for r in reports)

    def test_determinant_absolute_branch(self):
        # a closed determinant of modulus below _ABS_SWITCH is judged by its
        # absolute difference, which the record writes out as its relative
        # residual too; ROADMAP item 6 (a determinant judge that knows C's
        # conditioning) replaces this rule
        cfg = SuiteConfig(n_values=(7,), trials_per_n=5, base_seed=10, lattice_tau=3j)
        reports = run_suite(cfg, identities=["determinant"], kernels={"elliptic"})
        stack = random_instance(cfg, elliptic_kernel(cfg.lattice()), 7, [10, 11, 12, 13, 14])
        closed = np.abs(frobenius_det(stack.kernel, stack.x, stack.y, stack.lam))
        assert [r.seed for r in reports] == [10, 11, 12, 13, 14]
        assert all(r.passed for r in reports)
        for rep, ref in zip(reports[:4], closed[:4]):
            assert ref >= verify._ABS_SWITCH and rep.rel_residual == rep.abs_residual / ref
        assert closed[4] < verify._ABS_SWITCH
        assert reports[4].rel_residual == reports[4].abs_residual
        assert 1e-26 < reports[4].abs_residual < 2e-26

    @pytest.mark.parametrize("residuals", [[math.nan, 1.0], [1.0, math.nan], [0.0, math.nan, 2.0]])
    def test_worst_keeps_nan(self, residuals):
        assert math.isnan(verify._worst(residuals))

    def test_nan_monodromy_residuals_fail(self):
        # on the thin lattice sigma_k at both shifted points, and its expected
        # multiple, underflow to 0 at one instance, and the multiplier
        # comparison divides 0 by 0 (an array divide: the trials of a size
        # are checked as one stack)
        cfg = SuiteConfig(lattice_tau=0.08j, n_values=(1, 2, 3, 4), trials_per_n=3)
        with pytest.warns(RuntimeWarning, match="invalid value encountered in divide"):
            reports = run_suite(cfg, identities=["monodromy"])
        failed = {(r.n, r.seed) for r in reports if not r.passed}
        nan = {(r.n, r.seed) for r in reports if math.isnan(r.rel_residual)}
        assert nan == {(4, 43)}
        # every other record passes, the worst at 1.2e-13
        assert failed == nan
        assert len(reports) == 12

    def test_checkers_build_no_generator(self, cfg, monkeypatch):
        # every random number a check reads is one the sampler drew
        lat = cfg.lattice()
        stacks = [
            (ident, tag, random_instance(cfg, Kernel(variant, lat), 3, [42, 43]))
            for ident in REGISTRY.values()
            for tag, variant in ident.plan
        ]
        calls = Counter()  # (identity, kernel tag, function) -> calls
        check = None

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[(*check, name)] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        # the sampler's stream, and numpy's generators
        for module, name in ((verify, "_stream_keys"), (verify, "_stream"), (np.random, "default_rng")):
            counted(module, name)
        for ident, tag, stack in stacks:
            check = ident.name, tag
            ident.check(stack, tag, cfg.tolerance)
        assert not calls, calls

    def test_report_roundtrip(self, cfg, kern):
        (rep,) = REGISTRY["determinant"].check(random_instance(cfg, kern, 2, 0), "elliptic", 1e-8)
        assert Report(**rep.to_dict()) == rep

    def test_report_is_slotted(self, cfg, kern):
        # a record keeps its fields in slots, and round-trips through
        # dataclasses.replace and the CSV report
        (rep,) = REGISTRY["inverse"].check(random_instance(cfg, kern, 2, 0), "elliptic", 1e-8)
        assert not hasattr(rep, "__dict__")
        assert dataclasses.replace(rep) == rep
        assert dataclasses.replace(rep, passed=False) == Report(**{**rep.to_dict(), "passed": False})
        (row,) = csv.DictReader(io.StringIO(cli._render_csv([rep])))
        parse = {"str": str, "int": int, "float": float, "bool": lambda v: {"True": True, "False": False}[v]}
        assert Report(**{f.name: parse[f.type](row[f.name]) for f in dataclasses.fields(Report)}) == rep
        # a plain slotted record: its fields can be assigned, no other
        # attribute can, and it has no hash
        with pytest.raises(AttributeError):
            rep.note = "x"
        with pytest.raises(TypeError, match="unhashable"):
            hash(rep)
        passed = rep.passed
        rep.passed = not passed
        assert rep.passed is not passed


def reference_judge(ident, inst, tag, base_tol, out):
    """The stack judge as array expressions, with numpy's division warnings
    off: the reference for the per-member loop of Identity.check.  One
    record per member, as a tuple of every field but elapsed_ms."""
    seeds = np.ravel(inst.seed)
    tol = float(ident.tolerance(tag, inst.n, base_tol))
    abs_res, ref_mag, rate_ok = (*out, True)[:3]
    abs_res, ref_mag = (np.broadcast_to(np.asarray(v, dtype=float), seeds.shape) for v in (abs_res, ref_mag))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rel = abs_res / ref_mag
    passed = rate_ok & (rel <= tol) & np.isfinite(abs_res) & np.isfinite(ref_mag)
    return [
        (ident.name, tag, inst.n, seed, a, r, tol, ok)
        for seed, a, r, ok in zip(seeds.tolist(), abs_res.tolist(), rel.tolist(), passed.tolist())
    ]


def record_bits(record):
    """A record's fields with their types, each float as its 64 bits, so
    that NaN equals NaN of the same bits and 0.0 differs from -0.0."""
    return tuple((type(v), struct.pack("<d", v) if isinstance(v, float) else v) for v in record)


def judged(inst, out, base_tol=1e-8):
    """The records of Identity.check for a checker that returns ``out``, and
    those of the reference judge, both as record_bits."""
    ident = dataclasses.replace(REGISTRY["inverse"], checker=lambda inst, tag: out)
    got = ident.check(inst, "rational", base_tol)
    assert all(r.elapsed_ms >= 0.0 for r in got)
    names = [f.name for f in dataclasses.fields(Report) if f.name != "elapsed_ms"]
    return (
        [record_bits([getattr(r, name) for name in names]) for r in got],
        [record_bits(r) for r in reference_judge(ident, inst, "rational", base_tol, out)],
    )


#: a residual or reference magnitude: the special values, ints, and any float
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-8, 1.0, 5e-324, 1e308]),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def checker_outputs(draw, members):
    """What a checker may return for a stack of ``members`` (None for one
    trial): each value once for the stack or, on a stack, once per member
    (an array, of ints if every entry is one), with or without a rate
    verdict."""

    def value(kind):
        if members is not None and draw(st.booleans()):
            return np.array(draw(st.lists(kind, min_size=members, max_size=members)))
        one = draw(kind)
        return draw(st.sampled_from([one, np.array(one)]))

    out = (value(VALUES), value(VALUES))
    if draw(st.booleans()):
        out += (value(st.booleans()),)
    return out


class TestJudge:
    """Identity.check judges each member in Python floats into the records
    the array judge gives, bit for bit, with no warning."""

    @pytest.fixture(scope="class")
    def stacks(self, cfg):
        return {
            members: random_instance(cfg, RATIONAL_KERNEL, 2, 0 if members is None else list(range(members)))
            for members in (None, 1, 4)
        }

    @pytest.mark.parametrize("members", [None, 1, 4])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), base_tol=st.sampled_from([1e-8, 1.0, 1e300]))
    def test_matches_the_array_judge(self, stacks, members, data, base_tol):
        out = data.draw(checker_outputs(members))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, want = judged(stacks[members], out, base_tol)
        assert got == want

    @pytest.mark.parametrize(
        "abs_res, rel", [(1e-20, math.inf), (math.inf, math.inf), (0.0, math.nan), (math.nan, math.nan)]
    )
    def test_zero_reference(self, stacks, abs_res, rel):
        # a zero reference magnitude gives the quotient numpy gives, with
        # no RuntimeWarning, and a failed record (the sign of a zero is
        # left to the comparison with the array judge)
        ident = dataclasses.replace(REGISTRY["inverse"], checker=lambda inst, tag: (abs_res, 0.0))
        for members, stack in stacks.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                reports = ident.check(stack, "rational", 1e-8)
            assert len(reports) == (members or 1)
            for rep in reports:
                assert not rep.passed
                assert math.isnan(rep.rel_residual) if math.isnan(rel) else rep.rel_residual == rel

    def test_values_of_another_shape_are_refused(self, stacks):
        ident = dataclasses.replace(REGISTRY["inverse"], checker=lambda inst, tag: (np.zeros(3), 1.0))
        with pytest.raises(ValueError, match=r"a checker value of shape \(3,\) for 4 members"):
            ident.check(stacks[4], "rational", 1e-8)


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

    def test_empty_selections_select_nothing(self, monkeypatch):
        # no kernel selects no check, as no identity does, and no stack is
        # sampled
        sampled = []
        monkeypatch.setattr(verify, "random_instance", lambda *a: sampled.append(a))
        cfg = SuiteConfig(n_values=(2,), trials_per_n=1)
        assert run_suite(cfg, kernels=set()) == []
        assert run_suite(cfg, identities=[]) == []
        assert sampled == []

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
        for tag, variant in ident.plan:
            for n in sizes:
                if ident.n_cap is not None and n > ident.n_cap:
                    continue
                for trial in range(trials):
                    inst = random_instance(cfg, Kernel(variant, lat), n, cfg.base_seed + trial)
                    reports.extend(ident.check(inst, tag, cfg.tolerance))
    reports.sort(key=lambda r: (r.identity_name, r.kernel, r.n, r.seed))
    return reports


class TestSharedInstances:
    """run_suite samples each (kernel variant, N) stack in one sampler
    call, each trial of it once, hands the stack to every identity and
    kernel tag that uses it, and drops it before the next."""

    def test_one_sample_per_instance(self, monkeypatch):
        cfg = SuiteConfig(n_values=(1, 2, 3, 4), trials_per_n=2)
        sampled, calls = Counter(), []

        def counted(cfg, kernel, n, seeds):
            calls.append(len(seeds))
            for seed in seeds:
                sampled[kernel.variant, n, seed] += 1
            return random_instance(cfg, kernel, n, seeds)

        monkeypatch.setattr(verify, "random_instance", counted)
        reports = run_suite(cfg)
        # 5 is not among the sizes, so degeneration's rational N = 5
        # instance is sampled for it alone
        degeneration = ("rational", 5, cfg.base_seed)
        assert sampled.pop(degeneration) == 1
        # 4 sizes x 2 trials of elliptic, trig and rational, one call per
        # (variant, N) stack of two trials
        assert len(sampled) == 24 and set(sampled.values()) == {1}
        assert calls == [2] * 12 + [1]
        assert strip_timing(reports) == strip_timing(reference_run_suite(cfg))

    def test_identities_of_a_trial_read_one_instance(self, monkeypatch):
        # the Cauchy matrix of the determinant, inverse and gauss checks and
        # the G matrices of the product and factorization checks of one
        # (kernel, N, seed) read one x, y, z and lambda: G(x, y) at
        # lambda + Y, and G(y, z) and G(x, z) at lambda + Z
        cfg = SuiteConfig(n_values=(2, 3), trials_per_n=3)
        seeds = range(cfg.base_seed, cfg.base_seed + cfg.trials_per_n)
        calls = []  # (builder, variant, x, y, lambda) of each call, as arrays

        def recorded(name):
            build = getattr(cauchy, name)

            def wrapper(kern, a, b, lam):
                calls.append((name, kern.variant, *(np.asarray(v, dtype=complex) for v in (a, b, lam))))
                return build(kern, a, b, lam)

            monkeypatch.setattr(cauchy, name, wrapper)

        recorded("cauchy_matrix")
        recorded("g_matrix")
        identities = [name for name in REGISTRY if name != "degeneration"]
        run_suite(cfg, identities=identities, kernels={"elliptic", "rational"})
        cs, gs = {}, {}  # (variant, N, seed) -> {(x, y, lambda) bytes}
        for name, variant, a, b, lam in calls:
            if name == "cauchy_matrix":
                lam = lam + b.sum(axis=-1)  # G(x, y)'s parameter, lambda + Y
            for m, seed in enumerate(seeds):
                row = a[m].tobytes(), b[m].tobytes(), lam[m].tobytes()
                (cs if name == "cauchy_matrix" else gs).setdefault((variant, a.shape[-1], seed), set()).add(row)
        assert cs.keys() == gs.keys() and len(cs) == 2 * 2 * 3
        for key, rows in cs.items():
            ((x, y, lam_y),) = rows
            zs = {b for _, b, _ in gs[key]} - {y}
            assert len(zs) == 1, key
            (z,) = zs
            assert {(a, b) for a, b, _ in gs[key]} == {(x, y), (y, z), (x, z)}, key
            assert {lam for _, b, lam in gs[key] if b == y} == {lam_y}, key
            assert len({lam for _, b, lam in gs[key] if b == z}) == 1, key

    def test_degeneration_shares_its_instance(self, monkeypatch):
        # degeneration runs on the rational N = 5 instance the rational
        # records already hold, so it samples nothing of its own
        cfg = SuiteConfig(n_values=(5,), trials_per_n=1)
        sampled = Counter()

        def counted(cfg, kernel, n, seeds):
            for seed in seeds:
                sampled[kernel.variant, n, seed] += 1
            return random_instance(cfg, kernel, n, seeds)

        monkeypatch.setattr(verify, "random_instance", counted)
        reports = run_suite(cfg, identities=["determinant", "degeneration"], kernels={"rational"})
        assert sampled == {("rational", 5, cfg.base_seed): 1}
        assert len(reports) == 2 and all(r.passed for r in reports)

    def test_one_stack_at_a_time(self, monkeypatch):
        cfg = SuiteConfig(n_values=(1, 2, 3), trials_per_n=2)
        sampled, alive, sizes = [], [], []

        def tracked(cfg, kernel, n, seeds):
            alive.append(sum(ref() is not None for ref in sampled))
            sizes.append(len(seeds))
            stack = random_instance(cfg, kernel, n, seeds)
            sampled.append(weakref.ref(stack))
            return stack

        monkeypatch.setattr(verify, "random_instance", tracked)
        run_suite(cfg)
        # no earlier stack is alive while one is sampled: 9 stacks of two
        # trials, then degeneration's rational N = 5 stack of the base seed
        # alone
        assert alive == [0] * 10
        assert sizes == [2] * 9 + [1]


class TestSharedProducts:
    """The determinant, inverse and gauss checks of a stack take its Cauchy
    matrix and closed determinant from the stack's store: each is computed
    once per stack that uses it, and never for another.  The determinant
    check alone factors the Cauchy matrix, once per stack."""

    WRAPPED = ((cauchy, "cauchy_matrix"), (cauchy, "frobenius_det"), (linalg, "_lu_factor"))

    def test_once_per_stack(self, monkeypatch):
        cfg = SuiteConfig(n_values=(2, 3), trials_per_n=3)
        stacks, calls = [], Counter()

        def sampled(cfg, kernel, n, seeds):
            stacks.append(random_instance(cfg, kernel, n, seeds))
            return stacks[-1]

        def counted(name, f):
            def wrapper(*args):
                # each call is for the stack being checked
                stack = stacks[-1]
                if name == "_lu_factor":
                    assert args[0] is stack._shared["cauchy_matrix"]
                else:
                    assert args[0] is stack.kernel and args[1] is stack.x
                calls[len(stacks) - 1, name] += 1
                return f(*args)

            return wrapper

        monkeypatch.setattr(verify, "random_instance", sampled)
        for module, name in self.WRAPPED:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        # product adds the trig stacks, which use none
        identities = ["determinant", "inverse", "gauss", "product"]
        reports = run_suite(cfg, identities=identities, kernels={"elliptic", "rational", "trig"})
        assert len(stacks) == 6 and len(reports) == 54
        for b, stack in enumerate(stacks):
            uses = stack.kernel.variant != "trig"
            for _, name in self.WRAPPED:
                assert calls[b, name] == uses, (b, stack.kernel.variant, name)

    def test_g_and_k_once_per_stack(self, monkeypatch):
        # the product and factorization checks of a stack read one
        # G_{lam+Y}(x, y) on every kernel, and on the rational stacks one
        # K(x, y) under the k-rational tag: each is built once, and both
        # checks pass that one array to the backward error
        cfg = SuiteConfig(n_values=(2, 3), trials_per_n=3)
        stacks, built, read = [], Counter(), Counter()

        def sampled(cfg, kernel, n, seeds):
            stacks.append(random_instance(cfg, kernel, n, seeds))
            return stacks[-1]

        def counted(name, f):
            def wrapper(*args):
                stack = stacks[-1]
                kern, (a, b, *_) = (args[0], args[1:]) if name == "g_matrix" else (stack.kernel, args)
                built[len(stacks) - 1, name] += kern is stack.kernel and a is stack.x and b is stack.y
                return f(*args)

            return wrapper

        def backward_error(a, b, r, residual=linalg.backward_error):
            read[id(a)] += 1
            return residual(a, b, r)

        monkeypatch.setattr(verify, "random_instance", sampled)
        for name in ("g_matrix", "k_matrix"):
            monkeypatch.setattr(cauchy, name, counted(name, getattr(cauchy, name)))
        monkeypatch.setattr(linalg, "backward_error", backward_error)
        reports = run_suite(cfg, identities=["product", "factorization"])
        assert len(stacks) == 6 and len(reports) == 2 * 4 * 2 * 3
        for b, stack in enumerate(stacks):
            names = {"g_matrix", "k_matrix"} if stack.kernel.variant == "rational" else {"g_matrix"}
            assert set(stack._shared) == names
            for name in ("g_matrix", "k_matrix"):
                assert built[b, name] == (name in names), (b, name)
            assert all(read[id(stack._shared[name])] == 2 for name in names)

    def test_new_instances_start_empty(self):
        cfg = SuiteConfig(n_values=(3,))
        stack = random_instance(cfg, elliptic_kernel(cfg.lattice()), 3, range(2))
        REGISTRY["determinant"].check(stack, "elliptic", cfg.tolerance)
        assert set(stack._shared) == {"cauchy_matrix", "frobenius_det"}
        assert not stack._shared["cauchy_matrix"].flags.writeable
        for fresh in (stack.member(0), dataclasses.replace(stack)):
            assert fresh._shared == {}


class TestMarginsCoverTheBuilders:
    """Every zero distance a builder measures through a sampled stack's own
    kernel is one the sampler measured, at least ``sep_min``: this is what
    lets a stack's marked kernel skip its builders' zero tests.  Measured
    with the mark cleared, so that every builder makes its test; a checker
    that zero-tests a block the sampler never measured fails here."""

    CASES = {
        **{
            f"seed {seed}, tau {tau}": (SuiteConfig(base_seed=seed, lattice_tau=tau), None, None)
            for seed in (42, 7)
            for tau in (0.3 + 0.7j, 3j, 7.3 + 0.9j)
        },
        # one stack of the elliptic-dense benchmark workload's shape
        "elliptic-dense": (
            SuiteConfig(n_values=(20,), base_seed=11, sep_min=0.6 / 20),
            ["determinant", "inverse", "gauss", "product", "transposed"],
            {"elliptic"},
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_every_tested_block_was_measured(self, monkeypatch, case):
        cfg, identities, kernels = self.CASES[case]
        stacks, seen = [], []
        zero_distance = Kernel.zero_distance

        def unmarked(cfg, kernel, n, seeds):
            stack = random_instance(cfg, kernel, n, seeds)
            assert stack.kernel.margined
            object.__setattr__(stack.kernel, "margined", False)
            stacks.append(stack.kernel)
            return stack

        def measured(self, z):
            dist = zero_distance(self, z)
            if any(self is k for k in stacks):
                seen.append(np.min(dist, initial=np.inf))
            return dist

        monkeypatch.setattr(verify, "random_instance", unmarked)
        monkeypatch.setattr(Kernel, "zero_distance", measured)
        with warnings.catch_warnings():
            # at tau = 7.3+0.9i, sigma_k overflows in monodromy
            warnings.simplefilter("ignore", RuntimeWarning)
            run_suite(cfg, identities=identities, kernels=kernels)
        assert len(seen) > len(stacks) > 0
        assert min(seen) >= cfg.sep_min, case


class TestBuildersCoverTheMargins:
    """The other direction: every value the sampler measures for the round a
    member accepts is, bit for bit up to sign (the zero distance is even),
    one that some builder zero-tests on that member, so no round is rejected
    for a kernel zero that no check divides by.  Run on the elliptic stacks
    of the default plan, where every identity runs, with the mark cleared
    so that every builder makes its test."""

    def test_every_measured_block_is_tested(self, monkeypatch):
        cfg = SuiteConfig()
        rounds, stacks = [], []  # (sets, lam, columns) of each measured chunk; (kernel, columns, tested)
        kernel_margins, zero_distance, fused = verify._kernel_margins, Kernel.zero_distance, cauchy._fused

        def margins(kernel, sets, lam, pairs):
            def measured(self, z):
                rounds.append((sets, lam, z))
                return zero_distance(self, z)

            with monkeypatch.context() as m:
                m.setattr(Kernel, "zero_distance", measured)
                return kernel_margins(kernel, sets, lam, pairs)

        def unmarked(cfg, kernel, n, seeds):
            rounds.clear()
            stack = random_instance(cfg, kernel, n, seeds)
            object.__setattr__(stack.kernel, "margined", False)
            sets = np.stack([stack.x, stack.y, stack.z])
            columns = [
                next(z[r] for s, lam, z in rounds for r in range(len(lam)) if (s[:, r] == sets[:, b]).all())
                for b in range(len(stack.lam))
            ]
            stacks.append((stack.kernel, columns, [set() for _ in columns]))
            return stack

        def recorded(kernel, what, tested, *args):
            for kern, columns, seen in stacks:
                if kern is kernel:
                    for t in tested:
                        for b, row in enumerate(np.reshape(t, (len(columns), -1))):
                            seen[b].update(v.tobytes() for v in row)
            return fused(kernel, what, tested, *args)

        monkeypatch.setattr(verify, "_kernel_margins", margins)
        monkeypatch.setattr(verify, "random_instance", unmarked)
        monkeypatch.setattr(cauchy, "_fused", recorded)
        run_suite(cfg, kernels={"elliptic"})
        assert len(stacks) == len(cfg.n_values)
        for _, columns, seen in stacks:
            for b, cols in enumerate(columns):
                untested = [v for v in cols if v.tobytes() not in seen[b] and (-v).tobytes() not in seen[b]]
                assert not untested, (len(cols), untested[:3])


class TestKernelMemo:
    """An instance's elliptic kernel evaluates each distinct argument block
    once, whichever builders ask for it and in whatever order."""

    CHECKS = ("determinant", "inverse", "gauss")

    def run(self, monkeypatch, names, n=8):
        cfg = SuiteConfig()
        inst = random_instance(cfg, elliptic_kernel(cfg.lattice()), n, 42)
        blocks, points = {}, []
        fused, sigma = cauchy._fused, cauchy.sigma

        def recorded(kernel, what, tested, *args):
            for a in args:
                a = np.asarray(a, dtype=complex)
                blocks[(a.shape, a.tobytes())] = a.size
            return fused(kernel, what, tested, *args)

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

    @staticmethod
    def zero_tests(monkeypatch, inst, names):
        """The blocks the builders ask to zero-test and the lattice-distance
        points they measure, checking ``names`` on ``inst``."""
        cfg = SuiteConfig()
        blocks, asked, points = {}, [], []
        fused, lattice_distance = cauchy._fused, cauchy.lattice_distance

        def recorded(kernel, what, tested, *args):
            for t in tested:
                blocks[(t.shape, t.tobytes())] = t.size
                asked.append(t.size)
            return fused(kernel, what, tested, *args)

        def counted(lat, z):
            points.append(np.size(z))
            return lattice_distance(lat, z)

        with monkeypatch.context() as m:
            m.setattr(cauchy, "_fused", recorded)
            m.setattr(cauchy, "lattice_distance", counted)
            reports = [r for name in names for r in REGISTRY[name].check(inst, "elliptic", cfg.tolerance)]
        assert all(r.passed for r in reports)
        return blocks, asked, points

    @pytest.mark.parametrize("names", [CHECKS, ("product", "transposed")])
    def test_each_block_tested_once(self, monkeypatch, names):
        # on a hand-built instance, which no sampler has measured, the
        # builders ask for zero tests of repeated blocks, and each ask tests
        # its block once: the memo keeps values, not the outcome of a test,
        # so the lattice-distance points are the entries of every asked
        # block, a block asked twice counted twice
        cfg = SuiteConfig()
        s = random_instance(cfg, elliptic_kernel(cfg.lattice()), 8, 42)
        inst = Instance(elliptic_kernel(cfg.lattice()), s.x, s.y, s.lam, s.z, s.seed)
        blocks, asked, points = self.zero_tests(monkeypatch, inst, names)
        assert sum(points) == sum(asked) > sum(blocks.values())

    @pytest.mark.parametrize("names", [CHECKS, ("product", "transposed")])
    def test_sampled_blocks_are_not_tested(self, monkeypatch, names):
        # the sampler measured every block the builders ask to zero-test on
        # its instance, so they make no lattice-distance call
        cfg = SuiteConfig()
        inst = random_instance(cfg, elliptic_kernel(cfg.lattice()), 8, 42)
        blocks, asked, points = self.zero_tests(monkeypatch, inst, names)
        assert asked and points == []

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
        for tag, variant in ident.plan:
            for n in sizes:
                kern = Kernel(variant, lat)
                members = [random_instance(cfg, kern, n, seed) for seed in range(40, 40 + size)]
                stack = random_instance(cfg, kern, n, range(40, 40 + size))
                stacked = [np.broadcast_to(v, (size,)) for v in ident.checker(stack, tag)]
                reports = ident.check(stack, tag, cfg.tolerance)
                assert [r.seed for r in reports] == list(range(40, 40 + size))
                for b, m in enumerate(members):
                    assert all(getattr(stack, s)[b].tobytes() == getattr(m, s).tobytes() for s in "xyz")
                    assert stack.lam[b] == m.lam and stack.seed[b] == m.seed
                    single = ident.checker(m, tag)
                    for got, want in zip(stacked, single):
                        assert np.array_equal(got[b], want, equal_nan=True), (tag, n, b)
                    assert strip_timing([reports[b]]) == strip_timing(ident.check(m, tag, cfg.tolerance))

    @pytest.mark.parametrize("n_values", [(1, 5), (3,)])
    def test_suite_reports_are_per_trial_checks(self, n_values):
        cfg = SuiteConfig(n_values=n_values, trials_per_n=3, base_seed=7)
        assert strip_timing(run_suite(cfg)) == strip_timing(reference_run_suite(cfg))
