"""Matrix builders: closed forms, transposition/gauge symmetries, limits."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellcauchy
from ellcauchy import (
    DimensionMismatch,
    Instance,
    KernelZero,
    RATIONAL_KERNEL,
    SuiteConfig,
    TRIG_KERNEL,
    bloch_eval,
    bloch_transport,
    cauchy_inverse_closed,
    cauchy_matrix,
    classic_cauchy,
    classic_cauchy_det,
    classic_cauchy_inverse,
    d_matrix,
    elliptic_kernel,
    frobenius_det,
    g_factor,
    g_matrix,
    gauss_udl,
    h_matrix,
    k_matrix,
    random_instance,
    run_suite,
    w_matrix,
)
from ellcauchy import cauchy, linalg, sigma
from ellcauchy.cauchy import Kernel, gauss_lambda_ladder

from conftest import cell_points
from test_verify import separation


def sample_sets(lat, rng, n, count=2):
    """Well-separated point sets plus a generic lambda."""
    while True:
        pts = cell_points(lat, rng, count * n + 1)
        d = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(d, np.inf)
        if d.min() > 0.08 and np.abs(pts).min() > 0.05:
            sets = [pts[i * n : (i + 1) * n] for i in range(count)]
            return sets + [complex(pts[-1])]


class TestInstance:
    def test_properties(self):
        x = np.array([1.0, 2.0 + 1j])
        inst = Instance(RATIONAL_KERNEL, x, [0.5j, -1.0], 0.7, [0.3, -0.4j])
        assert inst.n == 2
        assert inst.x.dtype == complex and np.array_equal(inst.x, x)
        with pytest.raises(ValueError):
            inst.x[0] = 3.0  # read-only
        x[0] = 3.0  # the caller's array is copied, not frozen
        assert inst.x[0] == 1.0

    def test_rejects_coincident(self):
        # Instance rejects only empty or unequal sets; margins from the
        # kernel zeros are the sampler's, and the builders raise KernelZero
        # on a denominator at a zero
        with pytest.raises(ValueError):
            Instance(RATIONAL_KERNEL, [], [], 0.7, [])
        with pytest.raises(DimensionMismatch):
            Instance(RATIONAL_KERNEL, [1.0, 2.0], [0.5j], 0.7, [0.3, -0.4j])
        with pytest.raises(DimensionMismatch):
            Instance(RATIONAL_KERNEL, [1.0, 2.0], [0.5j, -1.0], 0.7, [0.3])
        inst = Instance(RATIONAL_KERNEL, [1.0, 1.0], [0.5j, -1.0], 0.7, [0.3, -0.4j])
        for build in (g_matrix, cauchy_inverse_closed, gauss_udl):
            with pytest.raises(KernelZero):
                build(inst.kernel, inst.x, inst.y, inst.lam)
        with pytest.raises(KernelZero):
            d_matrix(inst.kernel, inst.x, inst.y)
        # lambda = 1e-9 is farther than ZERO_TOL from a kernel zero; 0 is one
        near, at = (Instance(RATIONAL_KERNEL, [1.0], [0.5j], lam, [0.3]) for lam in (1e-9, 0.0))
        assert np.isfinite(cauchy_matrix(near.kernel, near.x, near.y, near.lam)).all()
        with pytest.raises(KernelZero):
            cauchy_matrix(at.kernel, at.x, at.y, at.lam)

    @pytest.mark.parametrize("which", ["elliptic", "trig"])
    @pytest.mark.parametrize("pair", ["x-x", "x-y"])
    def test_rejects_points_a_period_apart(self, lat, kern, which, pair):
        # two points whose difference is a kernel zero, inside one set or
        # across two, however far apart they are in the plane: Instance
        # holds them, and every builder with that denominator raises
        k, period = {"elliptic": (kern, 2 * lat.omega), "trig": (TRIG_KERNEL, np.pi)}[which]
        x, y = [0.1 + 0.05j, -0.2 + 0.1j], [0.3 - 0.2j, 0.25 + 0.3j]
        if pair == "x-x":
            x[1] = x[0] + period
        else:
            y[1] = x[0] + period
        inst = Instance(k, x, y, 0.21 + 0.33j, [0.05 - 0.3j, -0.1 + 0.2j])
        for build in (g_matrix, gauss_udl):
            with pytest.raises(KernelZero):
                build(k, inst.x, inst.y, inst.lam)
        with pytest.raises(KernelZero):
            d_matrix(k, inst.x, inst.y)

    @pytest.mark.parametrize(
        "seed", [1.5, np.float64(1.0), True, np.True_, "7", None, [1, 2.5], [True, False], [1, True]]
    )
    def test_seed_is_an_integer(self, seed):
        # a record names its seed: 1.5 read as 1, True as 1 and "7" as 7
        x, y, z = [[0.1, 0.2]] * 2, [[1.1, 1.2]] * 2, [[2.1, 2.2]] * 2
        stack = np.ndim(seed) > 0
        with pytest.raises(ValueError, match="a seed must be an integer"):
            Instance(RATIONAL_KERNEL, x if stack else x[0], y if stack else y[0], [0.7] * 2 if stack else 0.7,
                     z if stack else z[0], seed=seed)

    @pytest.mark.parametrize("seed", [[[1, 2], [3]], [1, [2, 3]]])
    def test_ragged_seeds(self, seed):
        x, y, z = [[0.1, 0.2]] * 2, [[1.1, 1.2]] * 2, [[2.1, 2.2]] * 2
        with pytest.raises(ValueError, match="a seed must be a rectangular array, not a ragged sequence"):
            Instance(RATIONAL_KERNEL, x, y, [0.7] * 2, z, seed=seed)

    def test_integer_seeds(self):
        x, y, z = [0.1, 0.2], [1.1, 1.2], [2.1, 2.2]
        for seed in (7, np.int64(7), np.uint32(7)):
            got = Instance(RATIONAL_KERNEL, x, y, 0.7, z, seed=seed).seed
            assert got == 7 and type(got) is int
        stack = Instance(RATIONAL_KERNEL, [x] * 2, [y] * 2, [0.7] * 2, [z] * 2, seed=np.array([3, 4], dtype=np.uint64))
        assert stack.seed.tolist() == [3, 4]

    def test_seeds_no_one_dtype_holds(self):
        # numpy reads [-1, 2**63] as floats; the seeds keep their values
        x, y, z = [[0.1, 0.2]] * 2, [[1.1, 1.2]] * 2, [[2.1, 2.2]] * 2
        assert Instance(RATIONAL_KERNEL, x, y, [0.7] * 2, z, seed=[-1, 2**63]).seed.tolist() == [-1, 2**63]


class TestNotNumbers:
    """A point set, parameter or coefficient that is not numbers is refused,
    where a cast to complex reads None as NaN and parses a string."""

    @pytest.mark.parametrize("bad", [None, "2", [True], np.array([0.5], dtype=object), [0.5, True]])
    def test_point_sets(self, bad):
        with pytest.raises(TypeError, match="a point set must be numbers, not of dtype"):
            cauchy_matrix(RATIONAL_KERNEL, bad, [0.5j], 0.7)
        with pytest.raises(TypeError, match="a point set must be numbers"):
            k_matrix([0.5j], bad)
        with pytest.raises(TypeError, match="a point set must be numbers"):
            Instance(RATIONAL_KERNEL, [0.1], [0.5j], 0.7, bad)

    @pytest.mark.parametrize("ragged", [[[0.1, 0.2], [0.3]], [0.1, [0.2, 0.3]]])
    def test_ragged_point_sets(self, ragged):
        with pytest.raises(ValueError, match="a point set must be a rectangular array, not a ragged sequence"):
            cauchy_matrix(RATIONAL_KERNEL, ragged, [0.5j], 0.7)

    @pytest.mark.parametrize("bad", [None, "0.7", True])
    def test_parameter(self, bad):
        with pytest.raises(TypeError, match="the parameter must be numbers"):
            cauchy_matrix(RATIONAL_KERNEL, [0.1], [0.5j], bad)
        with pytest.raises(TypeError, match="lam must be numbers"):
            Instance(RATIONAL_KERNEL, [0.1], [0.5j], bad, [0.3])

    @pytest.mark.parametrize("bad", [None, "1", [True]])
    def test_bloch_coefficients(self, lat, bad):
        with pytest.raises(TypeError, match="the coefficients must be numbers"):
            bloch_eval(lat, [0.1 + 0.05j], bad, 0.21 + 0.33j, 0.3 - 0.2j)

    @pytest.mark.parametrize("bad", [None, "0.5", True, [0.3, None], [0.3, True]])
    def test_bloch_points(self, lat, bad):
        with pytest.raises(TypeError, match="an evaluation point must be numbers"):
            bloch_eval(lat, [0.1 + 0.05j], [1.0], 0.21 + 0.33j, bad)

    @pytest.mark.parametrize("bad", [None, "1", [True]])
    def test_transported_coefficients(self, lat, bad):
        with pytest.raises(TypeError, match="the coefficients must be numbers"):
            bloch_transport(lat, [0.1 + 0.05j], [0.3 - 0.2j], 0.21 + 0.33j, bad)

    def test_numbers_of_every_kind(self):
        # ints, unsigned ints, floats and complex numbers all read as complex
        want = cauchy_matrix(RATIONAL_KERNEL, [1.0, 2.0], [0.5j, -1.0], 0.5)
        for x in ([1, 2], np.array([1, 2], dtype=np.uint8), np.array([1, 2], dtype=np.float32)):
            assert np.array_equal(cauchy_matrix(RATIONAL_KERNEL, x, [0.5j, -1.0], 0.5), want)
        # an int numpy holds only as an object is a number too
        big = cauchy_matrix(RATIONAL_KERNEL, [1.0, 2.0**64], [0.5j, -1.0], 0.5)
        assert np.array_equal(cauchy_matrix(RATIONAL_KERNEL, [1, 2**64], [0.5j, -1.0], 0.5), big)

    @pytest.mark.parametrize("bad", [None, "2", [True], np.array([0.5], dtype=object)])
    @pytest.mark.parametrize("variant", ["elliptic", "trig", "rational"])
    def test_kernel_arguments(self, lat, variant, bad):
        kern = Kernel(variant, lat)
        for f in (kern, kern.zero_distance):
            with pytest.raises(TypeError, match="a kernel argument must be numbers, not of dtype"):
                f(bad)

    def test_kernel_arguments_of_every_kind(self):
        for z in (2, np.uint8(2), np.float32(2.0), 2.0 + 0j):
            assert RATIONAL_KERNEL(z) == 2 and RATIONAL_KERNEL.zero_distance(z) == 2


class TestCoincidentPoints:
    """On a hand-built instance with x_1 = x_2, every builder that divides
    by f(x_1 - x_2) raises :class:`KernelZero` on every call, on every
    variant and whatever was built on the instance before: the x pairs are
    tested by each builder that divides by them, whether an earlier one
    evaluated them as numerators or failed on them."""

    X = [0.1 + 0.05j, 0.1 + 0.05j, -0.2 + 0.1j]

    @staticmethod
    def instance(lat, variant, x):
        y, z = [0.3 - 0.2j, 0.25 + 0.3j, -0.1 - 0.3j], [0.05 - 0.3j, -0.1 + 0.2j, 0.2 + 0.15j]
        return Instance(Kernel(variant, lat), x, y, 0.21 + 0.33j, z)

    @staticmethod
    def dividers(inst):
        """Each builder that divides by f(x_i - x_l), with the blocks its
        :class:`KernelZero` names."""
        k, x, y, lam = inst.kernel, inst.x, inst.y, inst.lam
        return [
            (lambda: g_factor(k, x, lam), "x_i - x_l"),
            (lambda: d_matrix(k, x, y), "x_i - x_k or x_i - y_k"),
            (lambda: g_matrix(k, x, y, lam), "x_i - x_k, x_i - y_j or lambda"),
            (lambda: cauchy_inverse_closed(k, x, y, lam), "x_i - x_k, y_i - y_k, x_i - y_j or lambda + X - Y"),
            (lambda: gauss_udl(k, x, y, lam), "lambda_j, x_j - y_j + lambda_j, x_a - y_b, x_a - x_b or y_a - y_b"),
        ]

    @staticmethod
    def each_raises(builds):
        for build, what in builds:
            with pytest.raises(KernelZero, match=re.escape(f"{what} hits a kernel zero")):
                build()

    @pytest.mark.parametrize("variant", ["elliptic", "trig", "rational"])
    def test_numerator_then_denominator(self, lat, variant):
        inst = self.instance(lat, variant, self.X)
        # the x pairs are numerators of the Frobenius determinant
        assert frobenius_det(inst.kernel, inst.x, inst.y, inst.lam) == 0
        self.each_raises(self.dividers(inst))

    @pytest.mark.parametrize("variant", ["elliptic", "trig", "rational"])
    def test_denominator_then_numerator(self, lat, variant):
        inst = self.instance(lat, variant, self.X)
        self.each_raises(self.dividers(inst))
        assert frobenius_det(inst.kernel, inst.x, inst.y, inst.lam) == 0
        self.each_raises(self.dividers(inst)[::-1])

    @pytest.mark.parametrize("variant", ["elliptic", "trig", "rational"])
    def test_failed_block_raises_again(self, lat, variant):
        inst = self.instance(lat, variant, self.X)
        builds = self.dividers(inst)
        self.each_raises(builds + builds[::-1])
        # C reads no x pair: it builds, and its f(x - y) is no reason to pass
        cauchy_matrix(inst.kernel, inst.x, inst.y, inst.lam)
        self.each_raises(builds)
        # with x_2 moved off x_1, every one of them builds
        for build, _ in self.dividers(self.instance(lat, variant, [self.X[0], 0.15 - 0.2j, self.X[2]])):
            build()


class TestMarginMark:
    """A sampled instance's kernel is marked as measured by the sampler, so
    its builders make no zero test; no constructor sets the mark, so a
    hand-built instance, a replaced one and a direct builder call keep it."""

    @pytest.mark.parametrize("variant", ["elliptic", "trig", "rational"])
    def test_set_by_the_sampler_alone(self, lat, variant):
        kern = Kernel(variant, lat)
        with pytest.raises(TypeError):
            Kernel(variant, lat, margined=True)
        stack = random_instance(SuiteConfig(), kern, 3, range(2))
        # every instance holds a private copy of its kernel, flat kernels too
        assert stack.kernel.margined and stack.kernel is not kern and not kern.margined
        assert stack.member(1).kernel.margined and stack.member(1).kernel is not stack.kernel
        assert stack.kernel == kern and repr(stack.kernel) == repr(kern)
        for fresh in (
            dataclasses.replace(stack),
            Instance(stack.kernel, stack.x, stack.y, stack.lam, stack.z, stack.seed),
        ):
            assert not fresh.kernel.margined and not fresh.member(0).kernel.margined

    @pytest.mark.parametrize("variant", ["elliptic", "trig", "rational"])
    def test_marked_builders_make_no_zero_test(self, monkeypatch, lat, variant):
        inst = random_instance(SuiteConfig(), Kernel(variant, lat), 4, range(3))
        fresh = dataclasses.replace(inst)
        calls = []
        zero_distance = Kernel.zero_distance

        def counted(self, z):
            calls.append(self)
            return zero_distance(self, z)

        def build(i):
            return cauchy_matrix(i.kernel, i.x, i.y, i.lam), *gauss_udl(i.kernel, i.x, i.y, i.lam)

        monkeypatch.setattr(Kernel, "zero_distance", counted)
        got = build(inst)
        assert calls == []
        want = build(fresh)
        assert calls and all(k is fresh.kernel for k in calls)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_hand_built_instance_still_raises(self):
        # the sampled instance's points, with x_2 moved onto x_1 by hand
        inst = random_instance(SuiteConfig(), RATIONAL_KERNEL, 3, 5)
        x = inst.x.copy()
        x[1] = x[0]
        bad = Instance(inst.kernel, x, inst.y, inst.lam, inst.z, inst.seed)
        with pytest.raises(KernelZero, match="x_i - x_l"):
            g_factor(bad.kernel, bad.x, bad.lam)


class TestEmptyBlocks:
    """The pair differences of one point are an empty block: it goes to
    neither the kernel nor its zero distance, and gets an empty result."""

    def test_no_call_on_an_empty_block(self, monkeypatch):
        sizes = {"__call__": [], "zero_distance": []}
        for name, seen in sizes.items():

            def counted(self, z, method=getattr(Kernel, name), seen=seen):
                seen.append(np.size(z))
                return method(self, z)

            monkeypatch.setattr(Kernel, name, counted)
        reports = run_suite(SuiteConfig(n_values=(1,), trials_per_n=2))
        assert reports and all(r.passed for r in reports)
        assert all(seen and 0 not in seen for seen in sizes.values()), sizes

    @pytest.mark.parametrize("variant", ["elliptic", "trig", "rational"])
    def test_empty_result(self, monkeypatch, lat, variant):
        inst = Instance(Kernel(variant, lat), [0.1 + 0.05j], [0.3 - 0.2j], 0.21 + 0.33j, [0.05 - 0.3j])
        empty, lam = cauchy._pair_diffs(np.ones((2, 1), dtype=complex)), np.array([0.21 + 0.33j])
        for kern in (inst.kernel, Kernel(variant, lat)):  # with a memo, and without
            f_empty, f_lam = cauchy._fused(kern, "w", [empty, lam], empty, lam)
            assert f_empty.shape == empty.shape == (2, 0) and not f_empty.flags.writeable
            assert np.array_equal(f_lam, kern(lam))
            monkeypatch.setattr(Kernel, "__call__", lambda self, z: pytest.fail("kernel called"))
            (f_empty,) = cauchy._fused(kern, "w", [empty], empty)
            assert f_empty.shape == (2, 0) and not f_empty.flags.writeable
            monkeypatch.undo()


class TestClassic:
    def test_small_example(self):
        m = classic_cauchy([2.0, 3.0], [0.0, 1.0])
        assert np.allclose(m, [[0.5, 1.0], [1 / 3, 0.5]])

    def test_det_matches_lu(self, rng):
        for n in (1, 2, 4, 6):
            x, y, _ = sample_sets_rational(rng, n)
            closed = classic_cauchy_det(x, y)
            lu = linalg.lu_det(classic_cauchy(x, y))
            assert abs(lu - closed) < 1e-9 * abs(closed)

    def test_det_antisymmetric_in_y(self, rng):
        x, y, _ = sample_sets_rational(rng, 4)
        swapped = y.copy()
        swapped[[0, 1]] = swapped[[1, 0]]
        assert classic_cauchy_det(x, swapped) == pytest.approx(-classic_cauchy_det(x, y))

    def test_inverse(self, rng):
        for n in (1, 3, 5):
            x, y, _ = sample_sets_rational(rng, n)
            m = classic_cauchy(x, y)
            assert linalg.max_abs_residual(m @ classic_cauchy_inverse(x, y), np.eye(n)) < 1e-9

    def test_det_kernel_zero_raises(self):
        with pytest.raises(KernelZero, match="x_a - y_b"):
            classic_cauchy_det([0.1, 0.2], [0.1, 0.3])


def sample_sets_rational(rng, n, count=2):
    while True:
        pts = rng.standard_normal(count * n + 1) + 1j * rng.standard_normal(count * n + 1)
        d = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(d, np.inf)
        if d.min() > 0.15 and np.abs(pts).min() > 0.1:
            sets = [pts[i * n : (i + 1) * n] for i in range(count)]
            return sets + [complex(pts[-1])]


class TestDMatrix:
    def test_rational_small_example(self):
        d = d_matrix(RATIONAL_KERNEL, [2.0, 3.0], [0.0, 1.0])
        assert np.allclose(d, np.diag([-2.0, 6.0]))

    def test_single_point(self, kern, lat):
        d = d_matrix(kern, [0.2], [0.31])
        assert d.shape == (1, 1)
        assert d[0, 0] == pytest.approx(sigma(lat, 0.2 - 0.31))

    def test_kernel_zero_raises(self):
        with pytest.raises(KernelZero):
            d_matrix(RATIONAL_KERNEL, [1.0, 2.0], [1.0, 3.0])

    def test_lattice_vector_difference_raises(self, lat, kern):
        # a difference within 1e-13 of a lattice vector is a kernel zero
        x = [0.1 + 0.05j, 0.1 + 0.05j + 2 * lat.omega_prime + 1e-14]
        y = [0.3 - 0.2j, -0.25 + 0.1j]
        with pytest.raises(KernelZero, match="x_i - x_k"):
            d_matrix(kern, x, y)
        with pytest.raises(KernelZero, match="x_i - x_l"):
            g_factor(kern, x, 0.21 + 0.33j)

    def test_small_sigma_is_not_a_kernel_zero(self):
        # on the thin lattice tau = 0.08i, |sigma(x_0 - x_1)| is about 5e-18
        # although x_0 - x_1 is 0.92 from the nearest lattice point
        cfg = SuiteConfig(lattice_tau=0.08j)
        kern = elliptic_kernel(cfg.lattice())
        inst = random_instance(cfg, kern, 2, 39)
        assert abs(sigma(kern.lattice, inst.x[0] - inst.x[1])) < 1e-15
        assert separation(kern, inst.x) > 0.5
        assert np.all(np.isfinite(d_matrix(kern, inst.x, inst.y)))


#: x_0 = y_0 makes x_0 - y_0 a zero of every kernel
COINCIDENT = ([0.1 + 0.05j, -0.2 + 0.1j], [0.1 + 0.05j, 0.3 - 0.2j], 0.21 + 0.33j)

#: two point sets that keep every pairwise difference away from the kernel
#: zeros; the tests choose the parameter
APART = (np.array([0.1 + 0.05j, -0.2 + 0.1j]), np.array([0.3 - 0.2j, 0.45 + 0.15j]))


class TestCauchyMatrix:
    @pytest.mark.parametrize("which", ["elliptic", "trig", "rational"])
    def test_transpose_relation(self, lat, kern, rng, which):
        # C(x,y;lam)^T = -C(y,x;-lam) for every odd kernel
        k = {"elliptic": kern, "trig": TRIG_KERNEL, "rational": RATIONAL_KERNEL}[which]
        if which == "elliptic":
            x, y, lam = sample_sets(lat, rng, 4)
        else:
            x, y, lam = sample_sets_rational(rng, 4)
        lhs = cauchy_matrix(k, x, y, lam).T
        rhs = -cauchy_matrix(k, y, x, -lam)
        assert np.abs(lhs - rhs).max() < 1e-12 * np.abs(rhs).max()

    def test_lambda_period_multiplier(self, lat, kern, rng):
        # shifting lam by a full period scales entry (i,j) by e^{2 eta (x_i-y_j)}
        x, y, lam = sample_sets(lat, rng, 3)
        base = cauchy_matrix(kern, x, y, lam)
        shifted = cauchy_matrix(kern, x, y, lam + 2 * lat.omega)
        mult = np.exp(2 * lat.eta * (x[:, None] - y[None, :]))
        assert np.abs(shifted - mult * base).max() < 1e-9 * np.abs(shifted).max()

    def test_pole_argument_raises(self, kern, lat):
        with pytest.raises(KernelZero):
            cauchy_matrix(kern, [0.3], [0.3 - 2 * lat.omega], 0.1)
        with pytest.raises(KernelZero):
            cauchy_matrix(kern, [0.3], [0.1], 0.0)
        for k in (kern, TRIG_KERNEL, RATIONAL_KERNEL):
            with pytest.raises(KernelZero, match="x_i - y_j or lambda"):
                cauchy_matrix(k, *COINCIDENT)
            with pytest.raises(KernelZero, match="x_i - y_j or lambda"):
                cauchy_matrix(k, *APART, 0.0)


def kernel_instances(kern, n, seed=7):
    """(kernel, x, y, lam) sampled by the suite's sampler on the elliptic,
    trig and rational kernels in turn: the closed forms hold for any f."""
    cfg = SuiteConfig()
    for k in (kern, TRIG_KERNEL, RATIONAL_KERNEL):
        inst = random_instance(cfg, k, n, seed)
        yield k, inst.x, inst.y, inst.lam


class TestFrobeniusDet:
    def test_matches_lu(self, kern):
        for n in (1, 2, 4, 6):
            for k, x, y, lam in kernel_instances(kern, n):
                closed = frobenius_det(k, x, y, lam)
                lu = linalg.lu_det(cauchy_matrix(k, x, y, lam))
                assert abs(lu - closed) < 1e-9 * abs(closed), (k.variant, n)

    def test_column_swap_flips_sign(self, kern):
        for k, x, y, lam in kernel_instances(kern, 4):
            swapped = y.copy()
            swapped[[1, 3]] = swapped[[3, 1]]
            a = frobenius_det(k, x, y, lam)
            b = frobenius_det(k, x, swapped, lam)
            assert abs(a + b) < 1e-10 * abs(a), k.variant

    def test_kernel_zero_raises(self, kern):
        for k in (kern, TRIG_KERNEL, RATIONAL_KERNEL):
            with pytest.raises(KernelZero, match="x_a - y_b"):
                frobenius_det(k, *COINCIDENT)

    def test_vanishes_linearly_at_special_lambda(self, lat, kern, rng):
        # det C has a zero at lam = Y - X; |det| must shrink linearly there
        x, y, _ = sample_sets(lat, rng, 3)
        star = y.sum() - x.sum()

        def det_at(delta):
            return abs(linalg.lu_det(cauchy_matrix(kern, x, y, star + delta)))

        r1, r2 = det_at(1e-3), det_at(5e-4)
        assert 0.35 < r2 / r1 < 0.65


class TestInverseClosed:
    def test_identity_residual(self, kern):
        for n in (1, 3, 5):
            for k, x, y, lam in kernel_instances(kern, n):
                m = cauchy_matrix(k, x, y, lam)
                inv = cauchy_inverse_closed(k, x, y, lam)
                assert linalg.max_abs_residual(m @ inv, np.eye(n)) < 1e-9, (k.variant, n)
                assert linalg.max_abs_residual(inv @ m, np.eye(n)) < 1e-9, (k.variant, n)

    def test_shift_kernel_zero_raises(self, kern):
        # lam = Y - X puts the shift lam + X - Y of C(y,x; .) on a zero
        x, y = APART
        for k in (kern, TRIG_KERNEL, RATIONAL_KERNEL):
            with pytest.raises(KernelZero, match="x_i - y_j or lambda"):
                cauchy_inverse_closed(k, x, y, y.sum() - x.sum())


class TestGH:
    def test_h_is_minus_transposed_g(self, lat, kern, rng):
        x, y, lam = sample_sets(lat, rng, 4)
        lhs = h_matrix(kern, x, y, lam)
        rhs = -g_matrix(kern, y, x, -lam).T
        assert np.abs(lhs - rhs).max() < 1e-11 * np.abs(rhs).max()

    def test_g_at_nearby_sets_is_near_identity(self, lat, kern, rng):
        x, _, lam = sample_sets(lat, rng, 4)

        def residual(eps):
            g = g_matrix(kern, x, x + eps, lam)
            return np.abs(g - np.eye(4)).max()

        r1 = residual(1e-6)
        assert r1 < 1e-4
        ratio = r1 / residual(5e-7)
        assert 1.6 < ratio < 2.4  # first-order in the shift

    def test_single_point(self, lat, kern):
        g = g_matrix(kern, [0.2], [0.15], 0.3j)
        expect = sigma(lat, 0.2 - 0.15) * cauchy_matrix(kern, [0.2], [0.15], 0.3j)[0, 0]
        assert g[0, 0] == pytest.approx(expect)


class TestKW:
    def test_k_near_coincident_sets(self, rng):
        x, _, _ = sample_sets_rational(rng, 4)
        k = k_matrix(x, x + 1e-6)
        assert np.abs(k - np.eye(4)).max() < 1e-4

    def test_k_equals_w_product(self, rng):
        for n in (1, 2, 4, 6):
            x, y, _ = sample_sets_rational(rng, n)
            rhs = w_matrix(x) @ linalg.lu_inverse(w_matrix(y))
            assert np.abs(k_matrix(x, y) - rhs).max() < 1e-8 * np.abs(rhs).max()

    def test_k_kernel_zero_raises(self):
        with pytest.raises(KernelZero, match="x_i - y_k"):
            k_matrix([1.0, 2.0], [2.0, 3.0])
        with pytest.raises(KernelZero, match="x_i - x_l"):
            k_matrix([1.0, 1.0], [2.0, 3.0])

    def test_w_single_point(self):
        assert np.allclose(w_matrix([2.5]), [[1.0]])

    @given(n=st.integers(1, 8), seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_lagrange_power_sums(self, n, seed):
        # column sums of W: 0 below the top degree, 1 at degree N-1;
        # degree N gives the first power sum, w^-1 the signed inverse product
        r = np.random.default_rng(seed)
        while True:
            w = r.standard_normal(n) + 1j * r.standard_normal(n)
            d = np.abs(w[:, None] - w[None, :])
            np.fill_diagonal(d, np.inf)
            if d.min() > 0.2 and np.abs(w).min() > 0.1:
                break
        den = np.prod(w[:, None] - w[None, :] + np.eye(n), axis=1)
        for k in range(n - 1):
            assert abs(np.sum(w**k / den)) < 1e-10
        assert abs(np.sum(w ** (n - 1) / den) - 1) < 1e-10
        assert abs(np.sum(w**n / den) - w.sum()) < 1e-10
        expect = (-1.0) ** (n - 1) / np.prod(w)
        assert abs(np.sum(1 / (w * den)) - expect) < 1e-10 * max(1.0, abs(expect))


class TestGFactors:
    def test_factorization_each_kernel(self, lat, kern, rng):
        for n in (1, 2, 4):
            x, y, lam = sample_sets(lat, rng, n)
            lhs = g_matrix(kern, x, y, lam + y.sum())
            rhs = g_factor(kern, x, lam) @ linalg.lu_inverse(g_factor(kern, y, lam))
            assert np.abs(lhs - rhs).max() < 1e-9 * np.abs(lhs).max()

            xr, yr, lamr = sample_sets_rational(rng, n)
            lhs = g_matrix(TRIG_KERNEL, 0.3 * xr, 0.3 * yr, lamr + 0.3 * yr.sum())
            rhs = g_factor(TRIG_KERNEL, 0.3 * xr, lamr) @ linalg.lu_inverse(g_factor(TRIG_KERNEL, 0.3 * yr, lamr))
            assert np.abs(lhs - rhs).max() < 1e-8 * np.abs(lhs).max()

            lhs = g_matrix(RATIONAL_KERNEL, xr, yr, lamr + yr.sum())
            rhs = g_factor(RATIONAL_KERNEL, xr, lamr) @ linalg.lu_inverse(g_factor(RATIONAL_KERNEL, yr, lamr))
            assert np.abs(lhs - rhs).max() < 1e-8 * np.abs(lhs).max()

    def test_column_gauge_freedom(self, lat, kern, rng):
        # right-multiplying both factors by a fixed nonsingular S cancels
        x, y, lam = sample_sets(lat, rng, 4)
        gx = g_factor(kern, x, lam)
        gy = g_factor(kern, y, lam)
        s = np.eye(4) + 0.3 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        plain = gx @ linalg.lu_inverse(gy)
        gauged = (gx @ s) @ linalg.lu_inverse(gy @ s)
        assert np.abs(plain - gauged).max() < 1e-10 * np.abs(plain).max()

    def test_one_factor_at_the_root(self):
        # the per-variant names are column maps, not factors: a stale import
        # of one of them from the package root fails
        assert ellcauchy.g_factor is cauchy.g_factor
        for name in ("g_factor_elliptic", "g_factor_trig", "g_factor_rat"):
            assert not hasattr(ellcauchy, name), name

    @pytest.mark.parametrize("variant", ["elliptic", "trig", "rational"])
    def test_columns_over_the_lagrange_denominator(self, lat, variant):
        k = Kernel(variant, lat)
        x, lam = np.array(UNEQUAL[0]), UNEQUAL[2]
        cols = k.spec.g_columns(lat, x, lam)
        den = np.prod(k(x[:, None] - x[None, :]) + np.eye(3), axis=1)
        assert np.allclose(g_factor(k, x, lam), cols / den[:, None], rtol=1e-14, atol=0)


class TestGauss:
    def test_lambda_ladder(self):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([0.5, 1.0, 1.5])
        lams = gauss_lambda_ladder(x, y, 2.0)
        assert np.allclose(lams, [2.0 + 1.0 + 1.5, 2.0 + 1.5, 2.0])

    def test_udl_reconstructs(self, kern):
        for n in (1, 2, 5):
            for k, x, y, lam in kernel_instances(kern, n):
                u, d, l = gauss_udl(k, x, y, lam)
                m = cauchy_matrix(k, x, y, lam)
                assert linalg.rel_residual(u @ d @ l, m) < 1e-9, (k.variant, n)
                assert linalg.structure_check(u, "unit_upper", 1e-12)
                assert linalg.structure_check(l, "unit_lower", 1e-12)
                assert linalg.structure_check(d, "diagonal", 1e-12)

    def test_diagonal_product_is_determinant(self, kern):
        for k, x, y, lam in kernel_instances(kern, 4):
            _, d, _ = gauss_udl(k, x, y, lam)
            det = frobenius_det(k, x, y, lam)
            assert abs(np.prod(np.diag(d)) - det) < 1e-9 * abs(det), k.variant

    def test_kernel_zero_raises(self, kern):
        # x_0 = y_0, then a repeated x point and a repeated y point; on
        # N = 2 apart sets, lam = y_1 - x_1 puts lambda_0 = lam + x_1 - y_1
        # (and with it x_1 - y_1 + lambda_1) on a zero, and lam = Y - X puts
        # x_0 - y_0 + lambda_0 = lam + X - Y there but no lambda_j
        x, y, lam = COINCIDENT
        ax, ay = APART
        cases = (
            (x, y, lam), ([x[1], x[1]], y, lam), (x[::-1], [y[1], y[1]], lam),
            (ax, ay, ay[1] - ax[1]), (ax, ay, ay.sum() - ax.sum()),
        )
        message = re.escape("lambda_j, x_j - y_j + lambda_j, x_a - y_b, x_a - x_b or y_a - y_b")
        for k in (kern, TRIG_KERNEL, RATIONAL_KERNEL):
            for xs, ys, lam_case in cases:
                with pytest.raises(KernelZero, match=message):
                    gauss_udl(k, xs, ys, lam_case)


def ref_gauss_udl(kernel, x, y, lam):
    """``gauss_udl`` as it was written with full N x N ladder tables, f(x_i -
    y_j + lam_j) and f(x_j - y_k + lam_j) over every (i, j) and (j, k): 4 N^2
    kernel points, where the triangles U and L keep need 3 N^2."""
    x, y = cauchy._sets(x, y)
    n = x.shape[-1]
    lams = gauss_lambda_ladder(x, y, lam)
    dxx = cauchy._pair_diffs(x)
    dxy = x[..., :, None] - y[..., None, :]
    dyy = cauchy._pair_diffs(y)
    what = "lambda_j, x_j - y_j + lambda_j, x_a - y_b, x_a - x_b or y_a - y_b"
    fxx, sxy, fyy, s_cols, s_rows, s_lams = cauchy._fused(
        kernel, what, [lams, x - y + lams, dxy, dxx, dyy],
        dxx, dxy, dyy, dxy + lams[..., None, :], dxy + lams[..., :, None], lams,
    )
    ratios = np.stack(
        [cauchy._odd_table(n, fxx) / sxy, cauchy._odd_table(n, fyy) / -cauchy._transposed(sxy)], axis=-3
    )
    steps = np.concatenate([np.ones(ratios.shape[:-1] + (1,)), ratios[..., :0:-1]], axis=-1)
    r = np.cumprod(steps, axis=-1)[..., ::-1]
    r_u, r_l = r[..., 0, :, :], r[..., 1, :, :]
    a = s_cols / (s_lams[..., None, :] * sxy) * r_u
    b = s_rows / (s_lams[..., :, None] * sxy) * cauchy._transposed(r_l)
    diag_a = np.diagonal(a, axis1=-2, axis2=-1)
    u = np.triu(a / diag_a[..., None, :])
    l = np.tril(b / np.diagonal(b, axis1=-2, axis2=-1)[..., :, None])
    d = cauchy._diag(diag_a * np.diagonal(r_l, axis1=-2, axis2=-1))
    return u, d, l


class TestTriangleTables:
    """The UDL from triangle-only ladder tables equals, bit for bit, the UDL
    from full tables, on stacks of every kernel."""

    @pytest.mark.parametrize("variant", ["elliptic", "trig", "rational"])
    def test_bit_for_bit(self, lat, variant):
        kern = Kernel(variant, lat)
        for n in range(1, 21):
            inst = random_instance(SuiteConfig(sep_min=min(0.05, 0.6 / n)), kern, n, range(3))
            got = gauss_udl(kern, inst.x, inst.y, inst.lam)
            ref = ref_gauss_udl(kern, inst.x, inst.y, inst.lam)
            for name, g, r in zip("udl", got, ref):
                assert g.tobytes() == r.tobytes(), (n, name)


class TestBloch:
    def test_single_pole_formula(self, lat):
        lam, x1, w = 0.22 + 0.1j, 0.05, 0.4 + 0.2j
        expect = sigma(lat, w - x1 + lam) / (sigma(lat, lam) * sigma(lat, w - x1))
        assert bloch_eval(lat, [x1], [1.0], lam, w) == pytest.approx(expect)

    def test_bloch_multipliers(self, lat, rng):
        x, _, lam = sample_sets(lat, rng, 3)
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w = 0.41 + 0.13j
        base = bloch_eval(lat, x, c, lam, w)
        for period, eta in ((2 * lat.omega, lat.eta), (2 * lat.omega_prime, lat.eta_prime)):
            val = bloch_eval(lat, x, c, lam, w + period)
            expect = np.exp(2 * eta * lam) * base
            assert abs(val - expect) < 1e-9 * abs(expect)

    def test_elementwise_over_points(self, lat, rng):
        x, _, lam = sample_sets(lat, rng, 3)
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w = np.array([0.41 + 0.13j, -0.2 + 0.3j]) + np.array([0, 2 * lat.omega, 2 * lat.omega_prime])[:, None]
        psi = bloch_eval(lat, x, c, lam, w)
        assert psi.shape == (3, 2)
        for idx in np.ndindex(w.shape):
            assert abs(psi[idx] - bloch_eval(lat, x, c, lam, w[idx])) <= 1e-14 * abs(psi[idx])

    def test_coefficients_match_poles(self, lat):
        # one coefficient per pole: no broadcasting of a single one
        for coeffs in ([1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]):
            with pytest.raises(DimensionMismatch):
                bloch_eval(lat, [0.1, 0.2], coeffs, 0.3, 0.5)

    def test_pole_proximity(self, lat):
        # the builders' zero test: 1e-13 from a pole is within ZERO_TOL
        with pytest.raises(KernelZero):
            bloch_eval(lat, [0.3], [1.0], 0.2, 0.3 + 1e-13)

    def test_row_of_the_cauchy_matrix_near_a_pole(self, lat):
        # 5e-11 from a pole is outside ZERO_TOL: psi(w) is the row C(w, x; lam) c
        poles, c, lam = [0.3, -0.2 + 0.1j], np.array([1.0, 0.5 - 0.2j]), 0.2
        w = 0.3 + 5e-11
        row = (c * cauchy_matrix(elliptic_kernel(lat), [w], poles, lam)).sum(axis=-1)[0]
        assert bloch_eval(lat, poles, c, lam, w) == row

    def test_transport_consistency(self, lat, rng):
        # psi(w) * prod sigma(w-x_i)/sigma(w-y_i) equals the expansion over
        # the y poles with coefficients b and parameter lam - X + Y
        x, y, lam = sample_sets(lat, rng, 3)
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = bloch_transport(lat, x, y, lam, c)
        lam2 = lam - x.sum() + y.sum()
        for w in (0.37 + 0.21j, -0.3 + 0.05j, 0.11 - 0.27j, 0.45j, -0.15 - 0.1j):
            lhs = bloch_eval(lat, x, c, lam, w) * np.prod(
                sigma(lat, w - x) / sigma(lat, w - y)
            )
            rhs = bloch_eval(lat, y, b, lam2, w)
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))

    def test_two_step_transport(self, lat, rng):
        x, y, z, lam = sample_sets(lat, rng, 3, count=3)
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        via = bloch_transport(lat, y, z, lam - x.sum() + y.sum(), bloch_transport(lat, x, y, lam, c))
        direct = bloch_transport(lat, x, z, lam, c)
        assert np.abs(via - direct).max() < 1e-9 * np.abs(direct).max()

    def test_transport_near_identity(self, lat, rng):
        x, _, lam = sample_sets(lat, rng, 3)
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = bloch_transport(lat, x, x + 1e-6, lam, c)
        assert np.abs(b - c).max() < 1e-4 * np.abs(c).max()


def test_kernel_validation(lat):
    with pytest.raises(ValueError):
        Kernel("hyperbolic")
    with pytest.raises(ValueError):
        Kernel("elliptic")  # missing lattice


#: the builders of a square matrix, each as (kernel, x, y, lam) -> result
SQUARE_ONLY = {
    "d_matrix": lambda k, x, y, lam: d_matrix(k, x, y),
    "g_matrix": g_matrix,
    "h_matrix": h_matrix,
    "frobenius_det": frobenius_det,
    "cauchy_inverse_closed": cauchy_inverse_closed,
    "gauss_udl": gauss_udl,
}

#: three x-points and two y-points, every difference away from the kernel zeros
UNEQUAL = ([0.1 + 0.05j, -0.2 + 0.1j, 0.25 - 0.15j], [0.3 - 0.2j, 0.45 + 0.15j], 0.21 + 0.33j)


#: every builder that takes a point set, as (kernel, x, y, lam) -> result
ALL_BUILDERS = {
    "cauchy_matrix": cauchy_matrix,
    **SQUARE_ONLY,
    "k_matrix": lambda k, x, y, lam: k_matrix(x, y),
    "w_matrix": lambda k, x, y, lam: w_matrix(x),
    "g_factor": lambda k, x, y, lam: g_factor(k, x, lam),
    "gauss_lambda_ladder": lambda k, x, y, lam: gauss_lambda_ladder(x, y, lam),
    "classic_cauchy": lambda k, x, y, lam: classic_cauchy(x, y),
    "classic_cauchy_det": lambda k, x, y, lam: classic_cauchy_det(x, y),
    "classic_cauchy_inverse": lambda k, x, y, lam: classic_cauchy_inverse(x, y),
}


class TestOneAxis:
    """A point set has one axis of points after at most one leading trial
    axis.  A set with three or more axes, sets whose stacks disagree and a
    parameter not of the stack's shape raise DimensionMismatch."""

    #: two stacks of two trials of two points
    THREE_AXES = 0.1 + np.arange(8).reshape(2, 2, 2) * (0.13 + 0.05j)

    @pytest.mark.parametrize("name", list(ALL_BUILDERS))
    def test_three_axes_raise(self, name):
        x = self.THREE_AXES
        with pytest.raises(DimensionMismatch):
            ALL_BUILDERS[name](RATIONAL_KERNEL, x, x + 2.0, 0.7)

    def test_cauchy_matrix(self):
        with pytest.raises(DimensionMismatch):
            cauchy_matrix(TRIG_KERNEL, [[[0.1, 0.2]]], [[[0.3, 0.45]]], 0.5)
        # stacks of two and of three trials do not pair up, nor do a stack
        # and one trial
        with pytest.raises(DimensionMismatch):
            cauchy_matrix(TRIG_KERNEL, [[0.1, 0.2]] * 2, [[0.3, 0.45]] * 3, 0.5)
        with pytest.raises(DimensionMismatch):
            cauchy_matrix(TRIG_KERNEL, [[0.1, 0.2]] * 2, [0.3, 0.45], 0.5)

    def test_d_matrix(self):
        with pytest.raises(DimensionMismatch):
            d_matrix(RATIONAL_KERNEL, self.THREE_AXES, self.THREE_AXES + 2.0)
        with pytest.raises(DimensionMismatch):
            d_matrix(RATIONAL_KERNEL, [[0.1, 0.2], [0.3, 0.4]], [[1.1, 1.2]])

    def test_instance(self):
        with pytest.raises(DimensionMismatch):
            Instance(RATIONAL_KERNEL, self.THREE_AXES, self.THREE_AXES + 2.0, 0.7, self.THREE_AXES + 4.0)
        x, y, z = [[0.1, 0.2], [0.3, 0.4]], [[1.1, 1.2], [1.3, 1.4]], [[2.1, 2.2], [2.3, 2.4]]
        with pytest.raises(DimensionMismatch):
            Instance(RATIONAL_KERNEL, x, y[:1], [0.7, 0.8], z, seed=[1, 2])
        with pytest.raises(DimensionMismatch):
            Instance(RATIONAL_KERNEL, x, y, [0.7, 0.8], z[:1], seed=[1, 2])
        # lam and seed take the stack's shape
        with pytest.raises(DimensionMismatch):
            Instance(RATIONAL_KERNEL, x, y, 0.7, z, seed=[1, 2])
        with pytest.raises(DimensionMismatch):
            Instance(RATIONAL_KERNEL, x, y, [0.7, 0.8], z, seed=[1, 2, 3])

    def test_ladder_pairs_sets_of_one_size(self):
        with pytest.raises(DimensionMismatch):
            gauss_lambda_ladder([1, 2], [1, 2, 3], 0)
        with pytest.raises(DimensionMismatch):
            gauss_lambda_ladder([[1, 2]], [[1, 2]] * 2, 0)

    def test_parameter_has_the_stack_shape(self):
        x, y = [[0.1, 0.2], [0.3, 0.4]], [[1.1, 1.2], [1.3, 1.4]]
        for lam in ([0.7, 0.8, 0.9], 0.7):
            with pytest.raises(DimensionMismatch):
                g_matrix(RATIONAL_KERNEL, x, y, lam)
        with pytest.raises(DimensionMismatch):
            g_matrix(RATIONAL_KERNEL, x[0], y[0], [0.7])


class TestSquareOnly:
    @pytest.mark.parametrize("variant", ["elliptic", "trig", "rational"])
    @pytest.mark.parametrize("name", list(SQUARE_ONLY))
    def test_unequal_sets_raise(self, kern, name, variant):
        k = {"elliptic": kern, "trig": TRIG_KERNEL, "rational": RATIONAL_KERNEL}[variant]
        with pytest.raises(DimensionMismatch):
            SQUARE_ONLY[name](k, *UNEQUAL)

    def test_rectangular_builders_stay_rectangular(self, kern):
        x, y, lam = UNEQUAL
        for k in (kern, TRIG_KERNEL, RATIONAL_KERNEL):
            assert cauchy_matrix(k, x, y, lam).shape == (3, 2)
        assert k_matrix(x, y).shape == (3, 2)


def odd_test_points(k, lat):
    """Seeded points over +-1.5 periods of the kernel (sin: 2 pi along the
    real axis; the identity: the unit square), its half-period ties and
    points within 1e-13 of 0."""
    rng = np.random.default_rng(12)
    p1, p2 = {
        "elliptic": (2 * lat.omega, 2 * lat.omega_prime),
        "trig": (2 * np.pi, 1j),
        "rational": (1.0, 1j),
    }[k.variant]
    u, v = rng.uniform(-1.5, 1.5, (2, 400))
    ties = [lat.omega, lat.omega_prime, lat.omega + lat.omega_prime, 3 * lat.omega, np.pi / 2]
    tiny = 1e-14 * np.exp(2j * np.pi * np.arange(8) / 8) * np.arange(1, 9)
    return np.concatenate([u * p1 + v * p2, ties, tiny])


class TestOddness:
    """Every kernel is odd and its zero distance even, bit for bit: the
    builders evaluate each difference once and take the other sign from
    these identities."""

    @pytest.mark.parametrize("variant", ["elliptic", "trig", "rational"])
    def test_bit_for_bit(self, lat, kern, variant):
        k = {"elliptic": kern, "trig": TRIG_KERNEL, "rational": RATIONAL_KERNEL}[variant]
        z = odd_test_points(k, lat)
        assert np.array_equal(k(-z), -k(z))
        assert np.array_equal(k.zero_distance(-z), k.zero_distance(z))


class TestExactCompositions:
    """The scaled-C builders share kernel values, and must still equal their
    defining scalings of C by the diagonals of D bit for bit."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_builders_equal_their_definitions(self, kern, n):
        for k, x, y, lam in kernel_instances(kern, n):
            d = d_matrix(k, x, y)
            d_xy, d_yx = np.diagonal(d), np.diagonal(d_matrix(k, y, x))
            c = cauchy_matrix(k, x, y, lam)
            assert np.array_equal(g_matrix(k, x, y, lam), d_xy[:, None] * c), k.variant
            assert np.array_equal(h_matrix(k, x, y, lam), c * d_yx[None, :]), k.variant
            # D(y,x) C(y,x; mu) D(x,y) read, since every kernel is odd, as
            # -(D(x,y) C(x,y; -mu) D(y,x)) transposed
            mu = lam + x.sum() - y.sum()
            c_mu = cauchy_matrix(k, x, y, -mu)
            assert np.array_equal(cauchy_inverse_closed(k, x, y, lam), -(d_xy[:, None] * c_mu * d_yx[None, :]).T)
            f_xy = k(x[:, None] - y[None, :])
            f_xx = k(x[:, None] - x[None, :])
            expect = np.diag(np.prod(f_xy, axis=1) / np.prod(f_xx + np.eye(n), axis=1))
            assert np.array_equal(d, expect), k.variant


class TestSigmaBudget:
    """Each distinct difference goes through sigma once per builder, in one
    sigma call and one zero-distance call."""

    #: builder -> (call, sigma points at N, sigma calls = zero-distance calls)
    BUDGETS = {
        "d_matrix": (lambda k, x, y, lam: d_matrix(k, x, y), lambda n: (3 * n * n - n) // 2, 1),
        "g_matrix": (g_matrix, lambda n: (5 * n * n - n) // 2 + 1, 1),
        "h_matrix": (h_matrix, lambda n: (5 * n * n - n) // 2 + 1, 1),
        "cauchy_inverse_closed": (cauchy_inverse_closed, lambda n: 3 * n * n - n + 1, 1),
        "gauss_udl": (gauss_udl, lambda n: 3 * n * n, 1),
    }

    @pytest.mark.parametrize("n", [8, 20])
    @pytest.mark.parametrize("name", list(BUDGETS))
    def test_points_and_calls(self, monkeypatch, kern, name, n):
        inst = random_instance(SuiteConfig(sep_min=min(0.05, 0.6 / n)), kern, n, 1)
        points, calls = [], {"sigma": 0, "lattice_distance": 0}

        def counted(fname, f):
            def wrapper(lat, z):
                calls[fname] += 1
                if fname == "sigma":
                    points.append(np.size(z))
                return f(lat, z)
            return wrapper

        for fname in calls:
            monkeypatch.setattr(cauchy, fname, counted(fname, getattr(cauchy, fname)))
        build, budget, n_calls = self.BUDGETS[name]
        build(kern, inst.x, inst.y, inst.lam)
        assert sum(points) == budget(n)
        assert calls == {"sigma": n_calls, "lattice_distance": n_calls}


def stacked_members(lat, variant, n, size):
    """``size`` trials at N = n, each sampled on its own, and their stack
    as the sampler draws it in one call."""
    cfg = SuiteConfig(sep_min=min(0.05, 0.6 / n))
    kern = Kernel(variant, lat)
    members = [random_instance(cfg, kern, n, seed) for seed in range(size)]
    stack = random_instance(cfg, kern, n, range(size))
    for b, m in enumerate(members):
        for name in ("x", "y", "z", "lam"):
            assert getattr(stack, name)[b].tobytes() == np.asarray(getattr(m, name)).tobytes(), (name, b)
    return members, stack


def assert_bits_equal(stacked, single, label):
    if isinstance(single, tuple):
        for s, m in zip(stacked, single):
            assert_bits_equal(s, m, label)
        return
    assert np.array_equal(np.asarray(stacked), np.asarray(single), equal_nan=True), label


class TestStackedMembers:
    """Member b of a stacked call is, bit for bit, the call on member b
    alone, for every builder and closed form on every kernel."""

    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize("variant", ["elliptic", "trig", "rational"])
    def test_member_b_is_the_call_on_member_b(self, lat, variant, size):
        for n in range(1, 9):
            members, stack = stacked_members(lat, variant, n, size)
            for name, build in ALL_BUILDERS.items():
                stacked = build(stack.kernel, stack.x, stack.y, stack.lam)
                for b, m in enumerate(members):
                    single = build(m.kernel, m.x, m.y, m.lam)
                    member = tuple(a[b] for a in stacked) if isinstance(stacked, tuple) else stacked[b]
                    assert_bits_equal(member, single, (name, n, b))

    def test_large_elliptic_stack(self, lat):
        # 40 trials at N = 16: the stack's sigma call holds more than 16,384
        # points, past NumPy's in-place temporaries
        members, stack = stacked_members(lat, "elliptic", 16, 40)
        stacked = cauchy_matrix(stack.kernel, stack.x, stack.y, stack.lam)
        for b, m in enumerate(members):
            assert_bits_equal(stacked[b], cauchy_matrix(m.kernel, m.x, m.y, m.lam), b)

    @pytest.mark.parametrize("size", [1, 3])
    def test_bloch_eval_per_member(self, lat, size):
        members, stack = stacked_members(lat, "elliptic", 4, size)
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal((size, 4)) + 1j * rng.standard_normal((size, 4))
        ws = cell_points(lat, rng, 6 * size).reshape(size, 2, 3) + 0.02
        stacked = bloch_eval(lat, stack.x, coeffs, stack.lam, ws)
        for b, m in enumerate(members):
            assert_bits_equal(stacked[b], bloch_eval(lat, m.x, coeffs[b], m.lam, ws[b]), b)

    def test_member_round_trip(self, lat):
        members, stack = stacked_members(lat, "elliptic", 3, 3)
        assert stack.x.shape == (3, 3) and stack.lam.shape == (3,) and stack.n == 3
        assert list(stack.seed) == [0, 1, 2]
        for b, m in enumerate(members):
            back = stack.member(b)
            assert (back.lam, back.seed) == (m.lam, m.seed)
            for name in ("x", "y", "z"):
                assert np.array_equal(getattr(back, name), getattr(m, name))
            assert back.kernel.memo == {} and back.kernel.memo is not stack.kernel.memo
