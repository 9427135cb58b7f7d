"""CLI argument parsing, rendering formats, and exit codes."""

import argparse
import copy
import csv
import dataclasses
import json

import pytest

from ellcauchy import cauchy, cli, verify

#: ``ellcauchy list``, verbatim
CATALOGUE = """\
degeneration   rational G_L(x,y) -> K(x,y) as L -> oo at O(1/L); trig G(ex,ey;eL) -> rational G as e -> 0 at O(e^2)
determinant    det C(x,y;L) = s(L+X-Y)/s(L) * prod_{a<b} s(x_a-x_b) s(y_b-y_a) / prod_{a,b} s(x_a-y_b)
factorization  G_{L+Y}(x,y) = g_L(x) g_L(y)^-1 (elliptic/trig/rational); K(x,y) = W(x) W(y)^-1
gauss          C = U D L with unit upper/lower triangular U, L and diagonal D
inverse        C(x,y;L)^-1 = D(y,x) C(y,x; L+X-Y) D(x,y), entrywise closed form
monodromy      multipliers of sigma, sigma_k and Bloch expansions under full-period shifts
product        G_{L+Y}(x,y) G_{L+Z}(y,z) = G_{L+Z}(x,z); K(x,y)K(y,z) = K(x,z) in the parameter-free limit
transposed     H_{L-X}(x,y) H_{L-Y}(y,z) = -H_{L-X}(x,z) with H_L(x,y) = C(x,y;L) D(y,x)
"""


class TestParseComplex:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0.3+0.7i", 0.3 + 0.7j),
            ("0.3+0.7j", 0.3 + 0.7j),
            ("-1.5-2e-1i", -1.5 - 0.2j),
            ("2.0", 2.0 + 0j),
            ("-3", -3 + 0j),
            ("0.08i", 0.08j),
            ("-0.08i", -0.08j),
            ("0+0.08i", 0.08j),
            (".5+1i", 0.5 + 1j),
            ("0.3-.7i", 0.3 - 0.7j),
        ],
    )
    def test_accepted(self, text, value):
        assert cli._parse_complex(text) == value

    def test_rectangular_lattice_flag(self):
        # the thin rectangular lattice, written without its zero real part
        assert cli.parse_args(["verify-all", "--tau", "0.08i"]).tau == 0.08j

    @pytest.mark.parametrize("text", ["abc", "1+i", "0.3 + 0.7i", "", "i", "-i", ".i", "1.+2i", "0.3+-0.7i"])
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

    def test_a_run_leaves_the_next_parse_its_defaults(self, capsys):
        # one parser serves every parse, so a parse must not hand out its defaults
        assert cli._parser() is cli._parser()
        args = cli.parse_args(["verify", "determinant", "--trials", "1"])
        args.n[:] = [2]
        assert cli.run(args) == 0 and "2 checks, 0 failed" in capsys.readouterr().out
        assert cli.parse_args(["verify", "determinant"]).n == list(range(1, 9))

    def test_verify_requires_known_identity(self):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["verify", "bogus"])
        assert exc.value.code == 2

    def test_degeneration_is_an_identity(self):
        # no subcommand of its own: verify takes it from the registry
        assert cli.parse_args(["verify", "degeneration"]).identity == "degeneration"
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["degeneration"])
        assert exc.value.code == 2

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            cli.parse_args([])

    def test_kernel_choices_are_the_variants(self):
        parser = argparse.ArgumentParser()
        cli._add_suite_flags(parser)
        (kernel,) = [a for a in parser._actions if a.dest == "kernel"]
        assert kernel.choices == [*cauchy.KERNELS, "all"] == ["elliptic", "trig", "rational", "all"]


class TestMain:
    def test_verify_single_identity(self, capsys):
        assert cli.main(["verify", "gauss", "--n", "3", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "gauss" in out and "0 failed" in out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--trials", "0"],
            ["--n", "0"],
            ["--tau", "0.5-0.5i"],
            ["--tau", "1e400+0.7i"],
            ["--tau", "0.3+1e400i"],
            ["--tol", "-1"],
            ["--tol", "nan"],
            ["--out", "missing-dir/x.txt"],
            ["--n", "2", "2"],
            ["--seed", "-5"],
            ["--seed", "4294967338"],
        ],
        ids=" ".join,
    )
    def test_invalid_settings_exit_two(self, flags, tmp_path, monkeypatch, capsys):
        # every invalid setting, an unwritable --out included, is found
        # before the suite runs
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(verify, "run_suite", lambda *a, **k: pytest.fail("run_suite called"))
        assert cli.main(["verify-all", "--n", "1", "--trials", "1", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("tau", ["0+940i", "0+3000i"])
    def test_underflowing_lattice_exits_two(self, tau, capsys):
        # a lattice whose theta1'(0) underflows is refused, not a traceback
        assert cli.main(["verify-all", "--n", "1", "--trials", "1", "--tau", tau]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("kernel", ["trig", "rational"])
    def test_flat_kernel_run_reads_no_lattice(self, kernel, capsys):
        # lattice_new refuses this thin lattice, which neither flat kernel
        # reads: a run on one finishes, and a run on the elliptic kernel
        # still exits 2 with the lattice's message
        args = ["verify-all", "--tau", "0+0.01i", "--n", "2", "--trials", "1"]
        assert cli.main([*args, "--kernel", kernel]) == 0
        assert capsys.readouterr().out.endswith(" checks, 0 failed\n")
        assert cli.main([*args, "--kernel", "elliptic"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "cancels too far for eta" in captured.err

    def test_no_report_leaves_out_empty(self, tmp_path):
        out = tmp_path / "rep.txt"
        out.write_text("stale")
        assert cli.main(["verify", "gauss", "--kernel", "rational", "--out", str(out)]) == 2
        assert out.read_text() == ""
        assert cli.main(["verify", "determinant", "--n", "1000", "--out", str(out)]) == 2  # aborts
        assert out.read_text() == ""

    def test_forced_failure_exits_one(self):
        assert cli.main(["verify", "determinant", "--n", "2", "--trials", "1", "--tol", "1e-30"]) == 1

    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        assert capsys.readouterr().out == CATALOGUE

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "determinant", "--kernel", "trig"],
            ["verify", "gauss", "--kernel", "rational"],
            ["verify", "transposed", "--kernel", "rational"],
            ["verify", "factorization", "--n", "7"],
            ["verify", "monodromy", "--n", "8"],
            ["verify", "degeneration", "--kernel", "elliptic"],
        ],
        ids=" ".join,
    )
    def test_empty_selection_exits_two(self, argv, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: no checks selected")

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

    def test_json_nan_is_null(self):
        # RFC 8259 has no NaN: a non-finite residual is written as null
        cfg = verify.SuiteConfig()
        inst = verify.random_instance(cfg, cauchy.elliptic_kernel(cfg.lattice()), 3, 43)
        ident = dataclasses.replace(verify.REGISTRY["monodromy"], checker=lambda inst, tag: (float("nan"), 1.0))
        (rep,) = ident.check(inst, "elliptic", cfg.tolerance)

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        (record,) = json.loads(cli._render_json([rep]), parse_constant=reject)
        assert record["abs_residual"] is None and record["rel_residual"] is None
        assert record["passed"] is False and record["tolerance"] == 1e-9

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
            ["verify", "degeneration", "--format", "csv", "--out", str(out)]
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

    @pytest.mark.parametrize("seed", ["-5", "4294967296"])
    def test_bench_invalid_seed_exits_two(self, seed, monkeypatch, capsys):
        # checked before sigma or the sampler draws anything
        monkeypatch.setattr(cli, "sigma", lambda *a: pytest.fail("sigma called"))
        assert cli.main(["bench", "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_bench_smoke(self, capsys, monkeypatch):
        sampled, timed_on = [], []
        random_instance, check = verify.random_instance, verify.Identity.check

        def counted(cfg, kernel, n, seed):
            sampled.append((kernel.variant, n))
            return random_instance(cfg, kernel, n, seed)

        def recorded(ident, inst, tag, base_tol):
            timed_on.append((inst, copy.copy(inst.kernel.memo)))
            return check(ident, inst, tag, base_tol)

        monkeypatch.setattr(verify, "random_instance", counted)
        monkeypatch.setattr(verify.Identity, "check", recorded)
        assert cli.main(["bench"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("sigma x2000")
        # every sampler call and every identity is timed at every size, a
        # call on the line before the first check of its instance: none
        # skipped, none n/a
        want = []
        for n in (4, 8, 16, 32):
            drawn = set()
            for name, ident in verify.REGISTRY.items():
                _, variant = ident.plan[0]
                if variant not in drawn:
                    drawn.add(variant)
                    want.append(["sample", variant, f"n={n}"])
                want.append([name, f"n={n}"])
        assert [line[:22].split() for line in lines[1:]] == want
        assert all(line.endswith(" ms") for line in lines)
        assert len(lines) == 1 + len(want) == 41
        # one sample per size and variant, shared by the identities
        # (degeneration's is rational), but no two timed checks share an
        # instance: each starts on an empty memo, or none, so none is timed
        # on kernel values an earlier check evaluated
        assert sorted(sampled) == sorted((v, n) for n in (4, 8, 16, 32) for v in ("elliptic", "rational"))
        assert len(timed_on) == 32
        assert len({id(inst) for inst, _ in timed_on}) == len(timed_on)
        assert [memo for _, memo in timed_on] == [{}, {}, {}, {}, {}, {}, {}, None] * 4


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

    @pytest.mark.parametrize("nan_first", [False, True])
    def test_nan_residual_is_the_worst(self, nan_first):
        reports = [
            self._report("monodromy", 3, 0, 1e-13, 1e-9),
            self._report("monodromy", 3, 1, float("nan"), 1e-9),
        ]
        if nan_first:
            reports.reverse()
        row = cli._render_text(reports).splitlines()[2]
        assert row.split()[3:] == ["nan", "1e-09", "FAIL"]

    def test_matches_rescan_on_a_suite_run(self):
        cfg = verify.SuiteConfig(n_values=(1, 2, 3), trials_per_n=3, tolerance=1e-14)
        reports = verify.run_suite(cfg)
        assert any(not r.passed for r in reports) and any(r.passed for r in reports)
        assert cli._render_text(reports) == render_text_rescan(reports)
