"""ellcauchy benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload suite-default --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
One warm-up pass fills lazy caches.  Timed passes then cycle through a fixed
number of input sets derived from the seed until ``--seconds`` have elapsed,
each input set at least twice so later runs can be checked against the
first.  Pass times are rescaled to reference speed by a calibration run
around each pass (calibration.py), as are the set-up times of fresh
interpreters started between passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes on the seed itself and prints the per-layer
metrics of the traced ones, with the tracing overhead measured against the
untraced ones.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted`` counts
the distinct checks the run requested, each once however often its input
set ran, and ``failed`` those that missed their tolerance, were missing from
an aborted pass, or differed in a later pass on the same input set.  Both
depend on the seed, not on how many passes fit into ``--seconds``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import threading
import time
import warnings

import bench_env

# workloads, tracer and calibration import numpy or ellcauchy, so they are
# imported inside functions, after bench_env.prepare() has capped threads

#: (name, unit, better, bound as a share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("suite_s", "s", "lower", 0.25),
    ("checks_per_s", "1/s", "higher", 0.25),
    ("checks_passed_frac", "frac", "higher", 0.05),
    ("accuracy_digits", "digits", "higher", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: error classes of ellcauchy.errors; anything else is counted as "other"
ERROR_CLASSES = (
    "EllCauchyError", "InvalidLattice", "PoleAtLatticePoint", "DimensionMismatch",
    "SingularMatrix", "KernelZero", "PoleProximity", "SingularGFactor", "SamplingExhausted",
    "other",
)

CHECK_IDENTITIES = (
    "determinant", "inverse", "product", "transposed",
    "factorization", "gauss", "monodromy", "degeneration",
)

#: per-layer units rescaled to reference speed, like the pass times
TIME_UNITS = ("ms", "us", "ns")

#: (name, unit, better)
PER_LAYER = (
    ("weierstrass.sigma.calls", "count", "lower"),
    ("weierstrass.sigma.points", "count", "lower"),
    ("weierstrass.sigma.us_per_call", "us", "lower"),
    ("weierstrass.sigma.ns_per_point", "ns", "lower"),
    ("weierstrass.sigma.self_ms", "ms", "lower"),
    ("weierstrass.sigma_k.calls", "count", "lower"),
    ("weierstrass.sigma_k.self_ms", "ms", "lower"),
    ("weierstrass.lattice_distance.calls", "count", "lower"),
    ("weierstrass.lattice_distance.points", "count", "lower"),
    ("weierstrass.lattice_distance.self_ms", "ms", "lower"),
    ("weierstrass.lattice_new.ms", "ms", "lower"),
    ("cauchy.kernel.calls", "count", "lower"),
    ("cauchy.kernel.self_ms", "ms", "lower"),
    ("cauchy.build.calls", "count", "lower"),
    ("cauchy.build.self_ms", "ms", "lower"),
    ("cauchy.closed_form.calls", "count", "lower"),
    ("cauchy.closed_form.self_ms", "ms", "lower"),
    ("cauchy.ladder.calls", "count", "lower"),
    ("cauchy.ladder.self_ms", "ms", "lower"),
    ("cauchy.bloch.calls", "count", "lower"),
    ("cauchy.bloch.self_ms", "ms", "lower"),
    ("cauchy.zero_distance.calls", "count", "lower"),
    ("cauchy.zero_distance.self_ms", "ms", "lower"),
    ("linalg.lu.calls", "count", "lower"),
    ("linalg.lu.self_ms", "ms", "lower"),
    ("linalg.lu.flops", "flop", "lower"),
    ("linalg.residual.calls", "count", "lower"),
    ("linalg.residual.self_ms", "ms", "lower"),
    ("verify.sample.calls", "count", "lower"),
    ("verify.sample.rounds", "count", "lower"),
    ("verify.sample.accept_ratio", "frac", "higher"),
    ("verify.sample.self_ms", "ms", "lower"),
    *((f"verify.check.{name}.ms", "ms", "lower") for name in CHECK_IDENTITIES),
    ("verify.check.self_ms", "ms", "lower"),
    ("verify.check_ms.p50", "ms", "lower"),
    ("verify.check_ms.p99", "ms", "lower"),
    ("verify.suite.self_ms", "ms", "lower"),
    *((f"verify.errors.{name}", "count", "lower") for name in ERROR_CLASSES),
    ("verify.runtime_warnings", "count", "lower"),
    ("verify.checks_failed_frac", "frac", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("cli.render.self_ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)

#: untraced passes cycle through input sets SUBSEED_STRIDE apart in seed
SUBSEED_STRIDE = 1000

#: an untraced run scores the first input sets that request this many checks,
#: runs each at least twice, and pools them for accuracy_digits
SCORED_CHECKS = 1200

#: fresh-interpreter set-up probes per run: at least MIN, at most one per pass
SETUP_PROBES_MIN = 7
SETUP_PROBES_MAX = 11
SETUP_PROBE_TIMEOUT_S = 60

_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from ellcauchy.verify import SuiteConfig; from ellcauchy.weierstrass import sigma; "
    "sigma(SuiteConfig().lattice(), 0.1 + 0.2j)"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_probe():
    """Wall seconds for a fresh interpreter to import ellcauchy, build the
    default lattice and make its first sigma call."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-I", "-c", _SETUP_CODE, str(bench_env.SRC)], stdin=subprocess.DEVNULL
    )
    # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
    # which would quantise the measurement; a timer thread bounds it instead
    killer = threading.Timer(SETUP_PROBE_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"set-up probe exited with code {code}")
    return elapsed


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    k = len(values) - 10
    if k < 1:
        return None
    return 100.0 * k / len(values), sorted(values)[k - 1]


def _ms(ns):
    return ns / 1e6


def _quantile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(agg, counts, errors, n_warnings, score):
    """Per-layer metrics of one traced pass."""
    from tracer import GROUP

    calls, incl, self_ns = {}, {}, {}
    for label, group in GROUP.items():
        calls[group] = calls.get(group, 0) + agg["calls"][label]
        incl[group] = incl.get(group, 0) + agg["incl_ns"][label]
        self_ns[group] = self_ns.get(group, 0) + agg["self_ns"][label]
    sigma_calls = calls["weierstrass.sigma"]
    sigma_points = counts["weierstrass.sigma.points"]
    accepted = calls["verify.sample"] - counts["verify.random_instance.raised"]
    rounds = counts["verify.sample.rounds"]
    check_ms = [
        _ms(d) for label, ds in agg["durations"].items()
        if GROUP[label] == "verify.check" for d in ds
    ]
    error_counts = dict.fromkeys(ERROR_CLASSES, 0)
    for exc in errors:
        name = type(exc).__name__
        error_counts[name if name in error_counts else "other"] += 1
    m = {
        "weierstrass.sigma.calls": sigma_calls,
        "weierstrass.sigma.points": sigma_points,
        "weierstrass.sigma.us_per_call": incl["weierstrass.sigma"] / 1e3 / sigma_calls
        if sigma_calls else 0.0,
        "weierstrass.sigma.ns_per_point": incl["weierstrass.sigma"] / sigma_points
        if sigma_points else 0.0,
        "weierstrass.lattice_distance.points": counts["weierstrass.lattice_distance.points"],
        "weierstrass.lattice_new.ms": _ms(incl["weierstrass.lattice_new"]),
        "linalg.lu.flops": counts["linalg.lu.flops"],
        "verify.sample.rounds": rounds,
        "verify.sample.accept_ratio": accepted / rounds if rounds else 0.0,
        **{f"verify.check.{name}.ms": _ms(agg["incl_ns"][f"verify.check.{name}"])
           for name in CHECK_IDENTITIES},
        "verify.check_ms.p50": _quantile(check_ms, 50),
        "verify.check_ms.p99": _quantile(check_ms, 99),
        **{f"verify.errors.{name}": n for name, n in error_counts.items()},
        "verify.runtime_warnings": n_warnings,
        "verify.checks_failed_frac": score.failed / score.attempted,
        "trace.spans": sum(agg["calls"].values()),
    }
    for name, _, _ in PER_LAYER:
        group, _, kind = name.rpartition(".")
        if name in m or group not in calls:
            continue
        if kind == "calls":
            m[name] = calls[group]
        elif kind == "self_ms":
            m[name] = _ms(self_ns[group])
    return m


def subseed(seed, j):
    """Base seed of the j-th input set of a run; j = 0 is the workload seed."""
    return seed + SUBSEED_STRIDE * j


def input_set_order(n_sets):
    """Input sets of the timed passes after a warm-up on set 0.

    ``0, 1, 1, 2, 2, ..., n-1, n-1``, so every set runs twice before the
    first has run out, then ``0, 1, ..., n-1`` over and over.
    """
    yield 0
    for j in range(1, n_sets):
        yield j
        yield j
    while True:
        yield from range(n_sets)


def traced_pass(runner, tracer, seed):
    """One pass with spans recorded; returns (PassResult, RuntimeWarning count)."""
    tracer.reset()
    tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            result = runner.run_pass(seed)
    finally:
        tracer.uninstall()
    return result, sum(issubclass(w.category, RuntimeWarning) for w in caught)


def measure(workload, seed, seconds, trace, out_dir):
    """Run the warm-up and timed passes; return (Score, metrics, report lines).

    Untraced, a run has a fixed number of input sets, ``subseed(seed, j)``
    for ``j < ceil(SCORED_CHECKS / checks per pass)``, in the order of
    ``input_set_order``; passes go on until ``--seconds`` have elapsed and
    every input set has run twice.  Traced, every pass runs the workload
    seed, untraced and traced in turn, so the per-layer counts repeat
    exactly for a seed.  The returned Score counts each input set's checks
    once (workloads.Ledger), so it depends on the seed only.  Every pass and
    set-up probe is timed between two calibration runs and rescaled to
    reference speed (calibration.py).
    """
    import workloads
    from calibration import Rescaler
    from tracer import Tracer

    runner = workloads.Runner(workload, out_dir)
    tracer = Tracer() if trace else None
    n_sets = 1 if trace else math.ceil(SCORED_CHECKS / workload.expected)
    ledger = workloads.Ledger(workload)
    try:
        warm = runner.run_pass(seed)
        ledger.score(0, warm)
        first_passes = [warm]
        completed = 0
        raw, walls, traced_walls, layer, raw_setups, setups = [], [], [], [], [], []
        clock = Rescaler()
        order = input_set_order(n_sets)
        deadline = time.perf_counter() + seconds
        p = 0
        while True:
            gc.collect()
            if trace and p % 2:
                result, n_warn = traced_pass(runner, tracer, seed)
                score = ledger.score(0, result)
                traced_walls.append(clock.rescale(result.wall_s))
                m = layer_metrics(tracer.aggregate(), tracer.counts, tracer.errors, n_warn, score)
                for name, unit, _ in PER_LAYER:
                    if unit in TIME_UNITS:
                        m[name] /= clock.factors[-1]
                layer.append(m)
            else:
                j = next(order)
                result = runner.run_pass(subseed(seed, j))
                if len(first_passes) == j:
                    first_passes.append(result)
                score = ledger.score(j, result)
                completed += score.completed
                raw.append(result.wall_s)
                walls.append(clock.rescale(result.wall_s))
            p += 1
            if not trace and len(setups) < SETUP_PROBES_MAX:
                raw_setups.append(setup_probe())
                setups.append(clock.rescale(raw_setups[-1]))
            if time.perf_counter() >= deadline and (
                traced_walls if trace else p >= 2 * n_sets - 1
            ):
                break
        while not trace and len(setups) < SETUP_PROBES_MIN:
            raw_setups.append(setup_probe())
            setups.append(clock.rescale(raw_setups[-1]))
    finally:
        runner.close()

    total = ledger.total()
    lines = [
        f"{workload.name} seed={seed}: {len(walls)} untraced and {len(traced_walls)} traced "
        f"passes over {n_sets} input sets, {workload.expected} checks requested per pass",
        f"failed of the {total.attempted} distinct checks: {total.tolerance_misses} missed "
        f"tolerance, {total.missing} missing, {total.nondeterministic} differed from the "
        "first pass on the same input set",
        *(f"problem: {msg}" for msg in dict.fromkeys(total.problems)),
        f"host slowdown factor: median {statistics.median(clock.factors):.3f}, "
        f"range {min(clock.factors):.3f}-{max(clock.factors):.3f}",
    ]
    tail = tail_percentile(walls)
    lines.append(
        f"untraced pass wall time: median {statistics.median(raw):.4f} s as measured, "
        f"{statistics.median(walls):.4f} s at reference speed, over {len(walls)} passes; "
        + (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else "fewer than 11 passes, no tail percentile")
    )
    if trace:
        # counts repeat exactly between same-seed passes; times take the median
        metrics = {
            name: (statistics.median_low if unit in ("count", "flop") else statistics.median)(
                [m[name] for m in layer]
            )
            for name, unit, _ in PER_LAYER
            if name != "trace.overhead_frac"
        }
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0
        )
    else:
        lines.append(
            f"set-up time of {len(setups)} fresh interpreters: median "
            f"{statistics.median(raw_setups):.4f} s as measured, "
            f"{statistics.median(setups):.4f} s at reference speed"
        )
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": statistics.median(setups),
            "suite_s": statistics.median(walls),
            "checks_per_s": completed / len(walls) / statistics.median(walls),
            "checks_passed_frac": 1.0 - total.failed / total.attempted,
            "accuracy_digits": workloads.accuracy_digits(workload, first_passes),
            "peak_rss_mb": rss_kb / 1024.0,
        }
    return total, metrics, lines


def main(argv=None):
    args = parse_args(argv)
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        bench_env.prepare()
    except bench_env.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = bench_env.ROOT / "perfbench" / "out"
    total, metrics, lines = measure(workload, args.seed, args.seconds, args.trace, out_dir)
    units = {name: unit for name, unit, *_ in (PER_LAYER if args.trace else END_TO_END)}
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": not total.problems,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
