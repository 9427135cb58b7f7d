"""The benchmark tracer's targets exist in the package.

``perfbench/tracer.py`` wraps package functions by name; a renamed or
deleted target would otherwise only fail ``python -m pytest perfbench``.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

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
