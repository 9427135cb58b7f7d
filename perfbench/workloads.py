"""Benchmark workloads, one pass of each, and the correctness accounting.

A workload is a fixed list of units.  A unit is one call of a public entry
point: ``ellcauchy.cli.main`` with text output to a file, or
``verify.run_suite`` on a :class:`SuiteConfig`.  Each unit states how many
checks it requests, so checks missing from an aborted pass are counted.

A pass that repeats the seed of an earlier pass must return that pass's
records apart from ``elapsed_ms``; a record that differs is counted as a
failed check, as are tolerance misses and missing checks.  Checks that fail
are scored, never dropped or re-seeded.
"""

from __future__ import annotations

import math
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from ellcauchy import cli, verify

from tracer import Patches

#: record fields compared between same-seed passes (all but elapsed_ms)
RECORD_FIELDS = (
    "identity_name", "kernel", "n", "seed",
    "abs_residual", "rel_residual", "tolerance", "passed",
)

#: identities whose verdict adds a convergence-rate test to rel <= tol
_RATE_CHECKED = frozenset({"degeneration"})

#: accuracy digits are clamped to +-this; a missing check counts as the floor
DIGITS_CLAMP = 16.0


@dataclass(frozen=True)
class CliUnit:
    """``ellcauchy verify-all <args> --seed <seed> --out <file>`` in-process."""

    args: tuple
    expected: int

    def run(self, seed, out_path):
        return cli.main(["verify-all", *self.args, "--seed", str(seed), "--out", str(out_path)])


@dataclass(frozen=True)
class SuiteUnit:
    """``verify.run_suite`` on the elliptic kernel at one size, 10 trials.

    ``sep_min = min(0.05, 0.6 / n)`` is the scaling ``ellcauchy bench`` uses;
    the CLI cannot set it.
    """

    n: int
    identities: tuple
    expected: int

    def run(self, seed, out_path):
        cfg = verify.SuiteConfig(
            n_values=(self.n,), trials_per_n=10, base_seed=seed, sep_min=min(0.05, 0.6 / self.n)
        )
        verify.run_suite(cfg, identities=list(self.identities), kernels={"elliptic"})
        return None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    units: tuple

    @property
    def expected(self):
        return sum(u.expected for u in self.units)


_DENSE = ("determinant", "inverse", "gauss", "product", "transposed")

WORKLOADS = {
    w.name: w
    for w in (
        # default grid N=1..8, 10 trials, every kernel:
        # determinant 160, inverse 160, product 320, transposed 80,
        # factorization 240 (N<=6), gauss 80, monodromy 60 (N<=6), degeneration 2
        Workload(
            "suite-default",
            "verify-all exactly as users run it, N=1..8, all kernels; bound by per-call "
            "sigma overhead (11,810 calls of ~10 points per pass)",
            (CliUnit((), 1102),),
        ),
        # 5 identities x 10 trials at each N
        Workload(
            "elliptic-dense",
            "elliptic N=12,16,20: sigma cost per point (~200 points per call) and rejection "
            "sampling (acceptance ~0.06) dominate; counts known tolerance misses",
            tuple(SuiteUnit(n, _DENSE, 50) for n in (12, 16, 20)),
        ),
        # trig: product 80, factorization 60, degeneration 1;
        # rational: determinant 80, inverse 80, product 160, factorization 120, degeneration 1
        Workload(
            "flat-kernels",
            "trig and rational kernels only: zero sigma calls, so sigma changes should leave "
            "it unchanged; time goes to builders, sampler and LU oracle",
            (CliUnit(("--kernel", "trig"), 141), CliUnit(("--kernel", "rational"), 441)),
        ),
    )
}


@dataclass
class UnitResult:
    records: list | None  # None when the unit raised before returning reports
    exit_code: int | None  # cli.main's return value; None for suite units
    summary: str | None  # last line of the text report, when one was written
    error: str | None  # class of an exception that escaped the unit


@dataclass
class PassResult:
    wall_s: float
    units: list


class Runner:
    """Runs passes of one workload and captures the reports they produce."""

    def __init__(self, workload, out_dir):
        self.workload = workload
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._captured = []
        self._patches = Patches()
        self._patches.replace("verify", "run_suite", self._capture)
        self._errors_shown = set()

    def close(self):
        self._patches.restore()

    def _capture(self, run_suite):
        captured = self._captured

        def capturing_run_suite(*args, **kwargs):
            reports = run_suite(*args, **kwargs)
            captured.append(reports)
            return reports

        return capturing_run_suite

    def _out_path(self, i):
        return self.out_dir / f"{self.workload.name}-{i}.txt"

    def run_pass(self, seed):
        for i in range(len(self.workload.units)):
            self._out_path(i).unlink(missing_ok=True)
        captured = []
        codes = []
        errors = []
        start = time.perf_counter()
        for i, unit in enumerate(self.workload.units):
            self._captured.clear()
            code = error = None
            try:
                code = unit.run(seed, self._out_path(i))
            except Exception as exc:  # a program fault scores its checks as failed
                error = type(exc).__name__
                if error not in self._errors_shown:
                    self._errors_shown.add(error)
                    traceback.print_exc()
            captured.append(self._captured[0] if self._captured else None)
            codes.append(code)
            errors.append(error)
        wall = time.perf_counter() - start
        units = []
        for i, unit in enumerate(self.workload.units):
            summary = None
            path = self._out_path(i)
            if isinstance(unit, CliUnit) and path.exists():
                lines = path.read_text().splitlines()
                summary = lines[-1] if lines else ""
            units.append(UnitResult(captured[i], codes[i], summary, errors[i]))
        return PassResult(wall, units)


def signature(record):
    """Record fields compared across passes; NaN compares equal to NaN."""
    d = record.to_dict()
    return tuple(repr(d[k]) for k in RECORD_FIELDS)


@dataclass
class Score:
    attempted: int = 0
    failed: int = 0
    completed: int = 0
    tolerance_misses: int = 0
    missing: int = 0
    nondeterministic: int = 0
    problems: list = field(default_factory=list)  # violated output invariants


def _verdict_problem(r):
    within = r.rel_residual <= r.tolerance  # False for NaN
    if r.passed and not within:
        return f"{r.identity_name}/{r.kernel}/n={r.n}/seed={r.seed} passed above tolerance"
    if not r.passed and within and r.identity_name not in _RATE_CHECKED:
        return f"{r.identity_name}/{r.kernel}/n={r.n}/seed={r.seed} failed within tolerance"
    return None


def score_pass(workload, result, reference):
    """Score one pass against the workload's request and a reference pass.

    ``reference`` is ``reference_of`` an earlier pass on the same input set,
    or None for the first pass on an input set.
    """
    score = Score()
    for i, (unit, ur) in enumerate(zip(workload.units, result.units)):
        records = ur.records or []
        score.attempted += unit.expected
        score.completed += len(records)
        missing = max(unit.expected - len(records), 0)
        if len(records) > unit.expected:
            score.problems.append(f"unit {i}: {len(records)} records, {unit.expected} requested")
        changed = Counter()
        if reference is not None:
            changed = Counter(signature(r) for r in records) - reference[i]
        misses = 0
        differing = 0
        for r in records:
            sig = signature(r) if changed else None
            if sig is not None and changed[sig] > 0:
                changed[sig] -= 1
                differing += 1
            elif not r.passed:
                misses += 1
            problem = _verdict_problem(r)
            if problem:
                score.problems.append(problem)
        score.missing += missing
        score.tolerance_misses += misses
        score.nondeterministic += differing
        score.failed += missing + misses + differing
        if isinstance(unit, CliUnit):
            _check_cli_output(i, ur, records, score.problems)
    return score


class Ledger:
    """The distinct checks of one run, each counted once however often it runs.

    The first pass on an input set is scored on its own: tolerance misses
    and missing checks.  Every later pass on that input set is checked
    against the first; the most records that changed (or went missing) in
    any one of them is added to the input set's failed checks.  ``attempted``
    and ``failed`` therefore depend on the seed and the program, not on how
    many passes fit into the run.
    """

    def __init__(self, workload):
        self.workload = workload
        self._first = {}  # input set -> (Score of its first pass, reference)
        self._extra = {}  # input set -> most checks changed in one later pass
        self.problems = []

    def score(self, key, result):
        """Score one pass on input set ``key``; returns that pass's own Score."""
        if key not in self._first:
            score = score_pass(self.workload, result, None)
            self._first[key] = (score, reference_of(result))
            self._extra[key] = 0
        else:
            first, reference = self._first[key]
            score = score_pass(self.workload, result, reference)
            changed = score.nondeterministic + max(score.missing - first.missing, 0)
            self._extra[key] = max(self._extra[key], changed)
        self.problems.extend(score.problems)
        return score

    def total(self):
        total = Score()
        for key, (first, _) in self._first.items():
            total.attempted += first.attempted
            total.completed += first.completed
            total.tolerance_misses += first.tolerance_misses
            total.missing += first.missing
            total.nondeterministic += self._extra[key]
            total.failed += min(first.failed + self._extra[key], first.attempted)
        total.problems = list(self.problems)
        return total


def _check_cli_output(i, ur, records, problems):
    """The exit code and the text report must agree with the reports."""
    if ur.error is not None:
        return
    if ur.records is None:
        if ur.exit_code != 2:
            problems.append(f"unit {i}: aborted run exited {ur.exit_code}, not 2")
        return
    n_failed = sum(not r.passed for r in records)
    want = 1 if n_failed else 0
    if ur.exit_code != want:
        problems.append(f"unit {i}: exit code {ur.exit_code}, expected {want}")
    line = f"{len(records)} checks, {n_failed} failed"
    if ur.summary != line:
        problems.append(f"unit {i}: text report ends {ur.summary!r}, expected {line!r}")


def reference_of(result):
    """Per-unit multisets of record signatures; empty for an aborted unit."""
    return [Counter(signature(r) for r in ur.records or []) for ur in result.units]


def accuracy_digits(workload, results):
    """Median over the requested checks of some passes of log10(tolerance / rel_residual).

    Clamped to +-DIGITS_CLAMP; a NaN residual or a missing check counts as
    the floor.
    """
    digits = []
    for result in results:
        digits.extend(_digits(workload, result))
    return statistics.median(digits)


def _digits(workload, result):
    digits = []
    for unit, ur in zip(workload.units, result.units):
        records = ur.records or []
        for r in records:
            if r.rel_residual == 0:
                d = DIGITS_CLAMP
            elif math.isfinite(r.rel_residual):
                d = math.log10(r.tolerance / r.rel_residual)
            else:
                d = -DIGITS_CLAMP
            digits.append(min(max(d, -DIGITS_CLAMP), DIGITS_CLAMP))
        digits.extend([-DIGITS_CLAMP] * max(unit.expected - len(records), 0))
    return digits
