"""Tests of the benchmark itself: python -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_env

bench_env.prepare()

import workloads  # noqa: E402  (needs the src path from prepare())
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((bench_env.ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# verify-all --n 1 2 3 --trials 2: 6 checks per (identity, kernel) pair, 15 pairs
# (factorization and monodromy are under their N cap), plus 2 degeneration checks
SMALL = workloads.Workload(
    "small",
    "every identity and kernel at small N, plus one elliptic N=12 suite",
    (
        workloads.CliUnit(("--n", "1", "2", "3", "--trials", "2"), 92),
        workloads.SuiteUnit(12, ("determinant", "inverse", "gauss"), 30),
    ),
)


@pytest.fixture
def runner(tmp_path):
    r = workloads.Runner(SMALL, tmp_path)
    yield r
    r.close()


def traced_pass(runner):
    tracer = Tracer()
    tracer.install()
    try:
        result = runner.run_pass(7)
    finally:
        tracer.uninstall()
    return result, tracer


def signatures(result):
    return [[workloads.signature(r) for r in u.records] for u in result.units]


def test_small_workload_requests_what_it_states(runner):
    result = runner.run_pass(7)
    score = workloads.score_pass(SMALL, result, None)
    assert score.problems == []
    assert (score.attempted, score.completed, score.missing) == (122, 122, 0)


def test_traced_and_untraced_passes_return_identical_records(runner):
    plain = runner.run_pass(7)
    traced, tracer = traced_pass(runner)
    assert signatures(traced) == signatures(plain)
    assert tracer.aggregate()["calls"]["weierstrass.sigma"] > 0
    # uninstall restored every binding: a further pass records no spans
    tracer.reset()
    runner.run_pass(7)
    assert tracer.spans == []


def test_layer_counts_repeat_exactly_for_a_fixed_seed(runner):
    _, first = traced_pass(runner)
    _, second = traced_pass(runner)
    a, b = first.aggregate(), second.aggregate()
    assert a["calls"] == b["calls"]
    assert first.counts == second.counts
    for key in ("weierstrass.sigma.points", "verify.sample.rounds", "linalg.lu.flops"):
        assert first.counts[key] > 0
    assert a["calls"]["linalg.lu_det"] + a["calls"]["linalg.lu_inverse"] > 0


def test_a_record_that_changes_between_passes_is_a_failed_check(runner):
    result = runner.run_pass(7)
    reference = workloads.reference_of(result)
    records = result.units[1].records
    records[0] = dataclasses.replace(records[0], abs_residual=records[0].abs_residual * 2)
    score = workloads.score_pass(SMALL, result, reference)
    assert score.nondeterministic == 1
    assert score.failed == 1 + score.tolerance_misses


def test_a_run_counts_each_check_once_however_often_it_ran(runner):
    first = runner.run_pass(7)
    ledger = workloads.Ledger(SMALL)
    for _ in range(3):
        ledger.score(0, runner.run_pass(7))
    once = ledger.total()
    assert (once.attempted, once.nondeterministic) == (122, 0)
    assert once.failed == workloads.score_pass(SMALL, first, None).failed
    # a record that changes in a later pass adds one failed check, once
    records = first.units[1].records
    records[0] = dataclasses.replace(records[0], abs_residual=records[0].abs_residual * 2)
    ledger.score(0, first)
    ledger.score(0, first)
    assert (ledger.total().attempted, ledger.total().failed) == (122, once.failed + 1)


def test_an_aborting_grid_is_scored_as_failed_checks(tmp_path):
    # verify-all --n 20 ends in SamplingExhausted; 102 checks are requested:
    # determinant 20, inverse 20, product 40, transposed 10, gauss 10, degeneration 2
    aborting = workloads.Workload("abort", "aborts", (workloads.CliUnit(("--n", "20"), 102),))
    r = workloads.Runner(aborting, tmp_path)
    try:
        result = r.run_pass(42)
    finally:
        r.close()
    assert result.units[0].records is None and result.units[0].exit_code == 2
    score = workloads.score_pass(aborting, result, None)
    assert (score.attempted, score.failed, score.missing) == (102, 102, 102)
    assert score.problems == []
    assert workloads.accuracy_digits(aborting, [result]) == -workloads.DIGITS_CLAMP


def test_a_verdict_that_contradicts_its_residual_is_a_problem(runner):
    result = runner.run_pass(7)
    rec = result.units[1].records[0]
    result.units[1].records[0] = dataclasses.replace(
        rec, rel_residual=rec.tolerance * 10, passed=True
    )
    assert workloads.score_pass(SMALL, result, None).problems


def run_bench(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flat-kernels", "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_named_with_units_as_declared(trace, key):
    proc = run_bench(bench_env.ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 582
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    for name, unit in printed.items():
        assert NAME_RE.match(name) and UNIT_RE.match(unit)
    if trace:
        assert result["metrics"]["weierstrass.sigma.calls"]["value"] == 0
        assert result["metrics"]["linalg.lu.calls"]["value"] > 0


def test_traced_run_counts_repeat_between_runs_with_one_seed():
    def counts():
        proc = run_bench(bench_env.ROOT, 1)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        return {k: m["value"] for k, m in metrics.items() if m["unit"] in ("count", "flop")}

    first = counts()
    assert first["verify.sample.rounds"] > 0
    assert counts() == first


def test_benchmark_json_matches_the_runner():
    import run

    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [m[0] for m in run.END_TO_END]
    for m, (name, unit, better, bound) in zip(BENCHMARK["end_to_end"], run.END_TO_END):
        assert (m["unit"], m["better"], m["bound"]) == (unit, better, bound)
    assert len(BENCHMARK["per_layer"]) == len(run.PER_LAYER)
    for m, (name, unit, better) in zip(BENCHMARK["per_layer"], run.PER_LAYER):
        assert (m["name"], m["unit"], m["better"]) == (name, unit, better)


def test_without_the_source_tree_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(bench_env.ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
