"""The benchmark tracer's targets exist in the package, and its round
hook counts sampler rounds.

``perfbench/tracer.py`` wraps package functions by name; a renamed or
deleted target would otherwise only fail ``python -m pytest perfbench``.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest
from test_verify import reference_sample

from ellcauchy import SuiteConfig, elliptic_kernel, random_instance

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
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


@pytest.mark.parametrize("with_z", [False, True])
def test_round_hook_counts_rounds(with_z):
    # elliptic-dense instances at N = 20: the hook must fire once per drawn round
    tracer = load_tracer()
    cfg = SuiteConfig(n_values=(20,), base_seed=1, sep_min=0.03)
    kern = elliptic_kernel(cfg.lattice())
    counter = tracer.ROUND_HOOK[2]
    rec = tracer.Tracer()
    hooked, rounds = [], []
    for seed in range(1, 6):
        rounds.append(reference_sample(cfg, kern, 20, seed, with_z)[2])
        rec.reset()
        rec.install()
        try:
            random_instance(cfg, kern, 20, seed, with_z)
        finally:
            rec.uninstall()
        hooked.append(rec.counts[counter])
    assert hooked == rounds
    assert sum(rounds) > 2 * len(rounds)
