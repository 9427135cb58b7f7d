"""The benchmark tracer's targets exist in the package, its round hook
counts sampler blocks, a block of sampler rounds makes at most one
zero-distance call, the README's library example runs, and the layer call counts of a
small suite run, and the points of its sigma and lattice_distance calls,
stay within their pinned caps.

``perfbench/tracer.py`` wraps package functions by name; a renamed or
deleted target would otherwise only fail ``python -m pytest perfbench``.
Likewise a signature change would leave the README example broken
without any other test failing.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest
import test_verify
from test_verify import reference_sample

from ellcauchy import Kernel, SuiteConfig, elliptic_kernel, random_instance, run_suite, verify

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    # the tracer patches every package module, the CLI included
    importlib.import_module("ellcauchy.cli")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = load_tracer()
    names = [(module, attr) for module, attr, *_ in tracer.TARGETS]
    names.append(tracer.ROUND_HOOK[:2])
    missing = []
    for module, attr in names:
        try:
            target = functools.reduce(getattr, attr.split("."), importlib.import_module(f"ellcauchy.{module}"))
        except AttributeError:
            missing.append(f"{module}.{attr}")
            continue
        assert callable(target), f"{module}.{attr}"
    assert not missing, f"tracer targets missing from the package: {missing}"


@pytest.mark.parametrize("stacked", [False, True])
def test_round_hook_counts_rounds(stacked):
    # elliptic-dense instances at N = 20: the hook fires once per block of
    # rounds, so at least once and at most once per round the reference
    # loop draws, and the hooked sampler draws the reference's instances,
    # one trial per call or all five trials as one stack
    tracer = load_tracer()
    cfg = SuiteConfig(n_values=(20,), base_seed=1, sep_min=0.03)
    kern = elliptic_kernel(cfg.lattice())
    counter = tracer.ROUND_HOOK[2]
    rec = tracer.Tracer()
    seeds = list(range(1, 6))
    refs = [reference_sample(cfg, kern, 20, seed) for seed in seeds]
    calls = [seeds] if stacked else [[seed] for seed in seeds]
    hooked, rounds = [], []
    for call in calls:
        rounds.append(sum(refs[seed - 1][2] for seed in call))
        rec.reset()
        rec.install()
        try:
            inst = random_instance(cfg, kern, 20, call if stacked else call[0])
        finally:
            rec.uninstall()
        hooked.append(rec.counts[counter])
        for m, seed in enumerate(call):
            sets, lam, _ = refs[seed - 1]
            got = [s[m] if stacked else s for s in (inst.x, inst.y, inst.z)]
            assert [s.tobytes() for s in got] == [s.tobytes() for s in sets]
            assert (inst.lam[m] if stacked else inst.lam) == lam
    assert all(1 <= h <= r for h, r in zip(hooked, rounds)), (hooked, rounds)
    assert sum(rounds) > 2 * len(seeds)
    assert sum(hooked) < sum(rounds)


@pytest.fixture
def round_calls(monkeypatch):
    """Zero-distance calls made inside each margin test, one entry per block
    of rounds."""
    calls, per_round = [], []
    zero_distance, margins_ok = Kernel.zero_distance, verify._margins_ok

    def counted_zero_distance(self, z):
        calls.append(1)
        return zero_distance(self, z)

    def counted_round(*args):
        before = len(calls)
        try:
            return margins_ok(*args)
        finally:
            per_round.append(len(calls) - before)

    monkeypatch.setattr(Kernel, "zero_distance", counted_zero_distance)
    monkeypatch.setattr(verify, "_margins_ok", counted_round)
    return per_round


@pytest.mark.parametrize("variant", ["elliptic", "trig", "rational"])
def test_one_zero_distance_call_per_round(round_calls, variant):
    # a close pair rejects a round without a kernel call; every other
    # margin of a block's rounds is measured in one call.  At separation
    # 0.03 every rational trial here takes at most 3 rounds, its first
    # block, so the rational calls run at 0.05, where they take 9 to 113
    cfg = SuiteConfig(n_values=(20,), base_seed=1, sep_min=0.05 if variant == "rational" else 0.03)
    kern = Kernel(variant, cfg.lattice())
    for seed in range(1, 6):
        random_instance(cfg, kern, 20, seed)
    assert len(round_calls) > 10
    assert max(round_calls) <= 1


@pytest.mark.parametrize("variant", list(test_verify.TestMarginScreen.CASES))
def test_close_pair_needs_no_call(round_calls, variant):
    kern, sets, lam = test_verify.TestMarginScreen.CASES[variant]
    close = test_verify.TestMarginScreen.block([sets[0], np.append(sets[1][1:], sets[0][0] + 0.01)], lam)
    assert verify._margins_ok(kern, *close, SuiteConfig().sep_min).tolist() == [False]
    assert round_calls == [0]


def test_readme_library_example(capsys):
    section = (ROOT / "README.md").read_text().split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    residual = float(capsys.readouterr().out.split()[-1])
    assert residual < 1e-9


#: calls per run_suite(SuiteConfig(n_values=(1, 2, 3, 4), trials_per_n=2)),
#: each cap for these reasons:
#: - the sampler runs once per (kernel variant, N), its two trials as one
#:   stack that carries x, y, z and lambda for every identity, and once for
#:   degeneration's N = 5 instance: 3 x 4 + 1 calls;
#: - only the determinant check takes an LU, once per stack, on 2 kernels x
#:   4 sizes; no check inverts by LU or tests a structure, since every
#:   matrix identity is judged by its backward error and the Gauss factors'
#:   structure holds by construction;
#: - a sampled stack's kernel is marked as measured by the sampler, so its
#:   builders make no zero test: the zero-distance calls left are the
#:   sampler's, one per block of rounds (every stack here ends in its first
#:   block), and the builders' on module kernels and fresh ones (K, W,
#:   degeneration and monodromy's Bloch rows); lattice_distance counts the
#:   elliptic share;
#: - each builder makes at most one zero-distance and one kernel call, and
#:   none on an empty block; an elliptic stack's memo skips every argument
#:   block an earlier check evaluated; each stack's C, closed determinant,
#:   G_{lambda+Y}(x, y) and K(x, y) are built once, into its product store;
#:   sigma_k takes every k in one call.
#: The sampled instances set the rest: the blocks the sampler takes and the
#: memo hits of argument blocks that round to the bytes of one already
#: evaluated.
CALL_CAPS = {
    "verify.random_instance": 13,
    "linalg.lu_det": 8,
    "linalg.lu_inverse": 0,
    "linalg.structure_check": 0,
    "cauchy.zero_distance": 51,
    "cauchy.kernel": 112,
    "weierstrass.lattice_distance": 8,
    "weierstrass.sigma": 59,
    "weierstrass.sigma_k": 12,
}


#: points in the same run, each cap for these reasons:
#: - sigma: a builder's one kernel call sends each argument block once, and
#:   only those its stack's memo holds no values for; sigma_k sends each
#:   factor of each point and k once; so a block evaluated twice, within one
#:   call or by two builders of one stack, adds its points;
#: - lattice_distance: the sampler measures only the blocks a builder tests,
#:   each once (lambda only as the Gauss ladder's last rung), and each builder
#:   on a module or fresh kernel tests each of its blocks once; so a margin
#:   measured twice, or one no builder tests, adds a column to every round.
POINT_CAPS = {"weierstrass.sigma.points": 2_100, "weierstrass.lattice_distance.points": 840}

#: blocks of sampler rounds in the same run (the round hook's count)
ROUND_CAP = 13


def test_call_counts_do_not_grow():
    tracer = load_tracer()
    rec = tracer.Tracer()
    rec.install()
    try:
        run_suite(SuiteConfig(n_values=(1, 2, 3, 4), trials_per_n=2))
    finally:
        rec.uninstall()
    calls = rec.aggregate()["calls"]
    counts = {label: calls[label] for label in CALL_CAPS}
    assert all(counts[label] <= cap for label, cap in CALL_CAPS.items()), counts
    points = {label: rec.counts[label] for label in POINT_CAPS}
    assert all(points[label] <= cap for label, cap in POINT_CAPS.items()), points
    # sampler blocks, the round hook's count: one per sampler call here
    assert rec.counts[tracer.ROUND_HOOK[2]] <= ROUND_CAP
