"""CLI argument parsing, rendering formats, and exit codes."""

import argparse
import csv
import json

import pytest

from ellcauchy import cli, verify


class TestParseComplex:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0.3+0.7i", 0.3 + 0.7j),
            ("0.3+0.7j", 0.3 + 0.7j),
            ("-1.5-2e-1i", -1.5 - 0.2j),
            ("2.0", 2.0 + 0j),
            ("-3", -3 + 0j),
        ],
    )
    def test_accepted(self, text, value):
        assert cli._parse_complex(text) == value

    @pytest.mark.parametrize("text", ["abc", "1+i", "0.3 + 0.7i", ""])
    def test_rejected(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            cli._parse_complex(text)


class TestParseArgs:
    def test_defaults(self):
        args = cli.parse_args(["verify-all"])
        assert args.command == "verify-all"
        assert args.n == list(range(1, 9))
        assert args.trials == 10
        assert args.seed == 42
        assert args.tau == 0.3 + 0.7j
        assert args.kernel == "all" and args.format == "text"

    def test_verify_requires_known_identity(self):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["verify", "bogus"])
        assert exc.value.code == 2

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            cli.parse_args([])


class TestMain:
    def test_verify_single_identity(self, capsys):
        assert cli.main(["verify", "gauss", "--n", "3", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "gauss" in out and "0 failed" in out

    def test_forced_failure_exits_one(self):
        assert cli.main(["verify", "determinant", "--n", "2", "--trials", "1", "--tol", "1e-30"]) == 1

    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("determinant", "inverse", "gauss", "monodromy"):
            assert name in out

    def test_json_report(self, tmp_path):
        out = tmp_path / "rep.json"
        code = cli.main(
            ["verify", "product", "--n", "2", "--trials", "1", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        records = json.loads(out.read_text())
        assert records and all(r["passed"] for r in records)
        assert list(records[0]) == [
            "identity_name", "kernel", "n", "seed",
            "abs_residual", "rel_residual", "tolerance", "passed", "elapsed_ms",
        ]

    def test_json_deterministic_modulo_timing(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert cli.main(
                ["verify", "inverse", "--n", "3", "--trials", "2", "--format", "json", "--out", str(path)]
            ) == 0
            records = json.loads(path.read_text())
            for r in records:
                del r["elapsed_ms"]
            outs.append(records)
        assert outs[0] == outs[1]

    def test_csv_report(self, tmp_path):
        out = tmp_path / "rep.csv"
        assert cli.main(
            ["degeneration", "--format", "csv", "--out", str(out)]
        ) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0][0] == "identity_name"
        assert len(rows) == 3  # header + two limit checks

    def test_kernel_filter_flag(self, tmp_path):
        out = tmp_path / "rep.json"
        assert cli.main(
            ["verify", "product", "--n", "2", "--trials", "1",
             "--kernel", "rational", "--format", "json", "--out", str(out)]
        ) == 0
        kernels = {r["kernel"] for r in json.loads(out.read_text())}
        assert kernels == {"rational", "k-rational"}

    def test_bench_smoke(self, capsys):
        assert cli.main(["bench"]) == 0
        out = capsys.readouterr().out
        assert "sigma x2000" in out and "n=32" in out


def render_text_rescan(reports):
    """The text table as first written: it rescans every report for the
    pass flag of each (identity, kernel, n) group."""
    header = f"{'identity':<14} {'kernel':<12} {'n':>3} {'worst rel':>12} {'tol':>9} status"
    lines = [header, "-" * len(header)]
    worst = {}
    for r in reports:
        key = (r.identity_name, r.kernel, r.n)
        cur = worst.get(key)
        if cur is None or r.rel_residual > cur[0]:
            ok = all(x.passed for x in reports if (x.identity_name, x.kernel, x.n) == key)
            worst[key] = (r.rel_residual, r.tolerance, ok)
    for (name, kern, n), (res, tol, ok) in sorted(worst.items()):
        lines.append(f"{name:<14} {kern:<12} {n:>3} {res:>12.3e} {tol:>9.0e} {'pass' if ok else 'FAIL'}")
    lines.append(f"{len(reports)} checks, {sum(not r.passed for r in reports)} failed")
    return "\n".join(lines) + "\n"


class TestRenderText:
    def _report(self, name, n, seed, rel, tol, passed=None):
        return verify.Report(
            identity_name=name, kernel="elliptic", n=n, seed=seed, abs_residual=rel,
            rel_residual=rel, tolerance=tol, passed=rel <= tol if passed is None else passed,
            elapsed_ms=0.0,
        )

    def test_matches_rescan_on_mixed_groups(self):
        reports = [
            self._report("inverse", 2, 0, 1e-12, 1e-8),
            self._report("inverse", 2, 1, 1e-6, 1e-8),  # fails and is the worst
            self._report("inverse", 2, 2, 1e-10, 1e-8),
            self._report("gauss", 3, 0, 1e-9, 1e-8),
            self._report("gauss", 3, 1, 1e-13, 1e-8, passed=False),  # fails but is not the worst
            self._report("gauss", 3, 2, 1e-11, 1e-8),
            self._report("product", 1, 0, float("nan"), 1e-12),
            self._report("product", 1, 1, 1e-15, 1e-12),
            self._report("determinant", 4, 0, 0.0, 1e-9),
        ]
        text = cli._render_text(reports)
        assert text == render_text_rescan(reports)
        assert "inverse" in text and "FAIL" in text and text.endswith("9 checks, 3 failed\n")

    def test_matches_rescan_on_a_suite_run(self):
        cfg = verify.SuiteConfig(n_values=(1, 2, 3), trials_per_n=3, tolerance=1e-14)
        reports = verify.run_suite(cfg)
        assert any(not r.passed for r in reports) and any(r.passed for r in reports)
        assert cli._render_text(reports) == render_text_rescan(reports)
