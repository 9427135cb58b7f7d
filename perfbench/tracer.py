"""Per-layer spans and counters, installed from outside the package.

The package has no instrumentation of its own, so the tracer wraps each
layer's public functions (and the few private hooks named below) and
installs every wrapper in each ``ellcauchy`` module namespace that bound the
original by name: ``sigma`` is imported by name into ``cauchy`` and
``verify``, and ``sigma_k`` reaches it through ``weierstrass.sigma``.  Spans
stay in memory until the pass ends; :meth:`Tracer.aggregate` then turns them
into per-group call counts, inclusive time and self time (a span's duration
minus the duration of its child spans).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

_PACKAGE = "ellcauchy"


def _size(arg):
    return lambda args: int(np.size(args[arg]))


def _lu_flops(factor):
    # real flops at leading order; a complex multiply-add is 4 real ones
    return lambda args: int(round(factor * 4 * np.shape(args[0])[0] ** 3))


#: (module, attribute, span label, group, {counter: amount(args)})
#: A label names one function; a group sums the labels that share a layer role.
TARGETS = (
    ("weierstrass", "sigma", "weierstrass.sigma", "weierstrass.sigma",
     {"weierstrass.sigma.points": _size(1)}),
    ("weierstrass", "sigma_k", "weierstrass.sigma_k", "weierstrass.sigma_k", {}),
    ("weierstrass", "lattice_distance", "weierstrass.lattice_distance",
     "weierstrass.lattice_distance", {"weierstrass.lattice_distance.points": _size(1)}),
    ("weierstrass", "lattice_new", "weierstrass.lattice_new", "weierstrass.lattice_new", {}),
    ("cauchy", "Kernel.__call__", "cauchy.kernel", "cauchy.kernel", {}),
    ("cauchy", "Kernel.zero_distance", "cauchy.zero_distance", "cauchy.zero_distance", {}),
    *(
        ("cauchy", name, f"cauchy.{name}", "cauchy.build", {})
        for name in (
            "cauchy_matrix", "classic_cauchy", "d_matrix", "g_matrix", "h_matrix",
            "k_matrix", "w_matrix", "g_factor_elliptic", "g_factor_trig", "g_factor_rat",
        )
    ),
    *(
        ("cauchy", name, f"cauchy.{name}", "cauchy.closed_form", {})
        for name in (
            "frobenius_det", "cauchy_inverse_closed", "classic_cauchy_det",
            "classic_cauchy_inverse", "gauss_udl",
        )
    ),
    ("cauchy", "gauss_lambda_ladder", "cauchy.gauss_lambda_ladder", "cauchy.ladder", {}),
    ("cauchy", "bloch_eval", "cauchy.bloch_eval", "cauchy.bloch", {}),
    ("cauchy", "bloch_transport", "cauchy.bloch_transport", "cauchy.bloch", {}),
    ("linalg", "lu_det", "linalg.lu_det", "linalg.lu", {"linalg.lu.flops": _lu_flops(2 / 3)}),
    ("linalg", "lu_inverse", "linalg.lu_inverse", "linalg.lu", {"linalg.lu.flops": _lu_flops(2)}),
    *(
        ("linalg", name, f"linalg.{name}", "linalg.residual", {})
        for name in ("max_abs_residual", "rel_residual", "structure_check")
    ),
    ("verify", "random_instance", "verify.random_instance", "verify.sample", {}),
    *(
        ("verify", fn, f"verify.check.{identity}", "verify.check", {})
        for fn, identity in (
            ("check_determinant", "determinant"),
            ("check_inverse", "inverse"),
            ("check_product_identity", "product"),
            ("check_transposed_identity", "transposed"),
            ("check_factorization", "factorization"),
            ("check_gauss", "gauss"),
            ("check_monodromy", "monodromy"),
            ("check_degeneration", "degeneration"),
        )
    ),
    ("verify", "run_suite", "verify.run_suite", "verify.suite", {}),
    *(
        ("cli", name, f"cli.{name.lstrip('_')}", "cli.render", {})
        for name in ("_render_text", "_render_json", "_render_csv")
    ),
    ("cli", "main", "cli.main", "cli.main", {}),
)

#: span label -> group
GROUP = {label: group for _, _, label, group, _ in TARGETS}

#: groups whose escaping exceptions are counted under verify.errors.*
ERROR_GROUPS = frozenset({"verify.sample", "verify.check", "verify.suite", "cli.main"})

#: private per-round margin test of the rejection sampler: counted, not timed,
#: so its time stays in the sampler's self time
ROUND_HOOK = ("verify", "_margins_ok", "verify.sample.rounds")


class Patches:
    """Replace functions in every ``ellcauchy`` namespace that binds them."""

    def __init__(self):
        self._undo = []

    def replace(self, module, attr, make):
        """Swap ``module.attr`` (``Cls.method`` for a method) for ``make(original)``."""
        mod = sys.modules[f"{_PACKAGE}.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name)
            original = owner.__dict__[meth]
            self._set(owner, meth, make(original))
            return
        original = getattr(mod, attr)
        replacement = make(original)
        for name, candidate in list(sys.modules.items()):
            if name != _PACKAGE and not name.startswith(_PACKAGE + "."):
                continue
            for key, val in list(vars(candidate).items()):
                if val is original:
                    self._set(candidate, key, replacement)

    def _set(self, owner, key, value):
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def restore(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


class Tracer:
    """In-memory span recorder for one pass at a time."""

    def __init__(self):
        self.spans = []  # [label, start_ns, end_ns, parent index]
        self.counts = Counter()
        self.errors = []  # exception objects seen escaping ERROR_GROUPS
        self._stack = []
        self._patches = Patches()

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.errors.clear()
        self._stack.clear()

    def install(self):
        for module, attr, label, group, counters in TARGETS:
            self._patches.replace(
                module, attr, lambda fn, l=label, g=group, c=counters: self._wrap(fn, l, g, c)
            )
        module, attr, counter = ROUND_HOOK
        self._patches.replace(module, attr, lambda fn: self._count(fn, counter))

    def uninstall(self):
        self._patches.restore()

    def _wrap(self, fn, label, group, counters):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        catch = group in ERROR_GROUPS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [label, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            for key, amount in counters.items():
                counts[key] += amount(args)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                counts[label + ".raised"] += 1
                if catch and not any(e is exc for e in self.errors):
                    self.errors.append(exc)
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def _count(self, fn, counter):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def aggregate(self):
        """Per-label calls, inclusive and self nanoseconds of the spans so far."""
        child = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        incl = Counter()
        self_ns = Counter()
        durations = defaultdict(list)
        for i, (label, start, end, _) in enumerate(self.spans):
            calls[label] += 1
            incl[label] += end - start
            self_ns[label] += end - start - child[i]
            durations[label].append(end - start)
        return {"calls": calls, "incl_ns": incl, "self_ns": self_ns, "durations": durations}
