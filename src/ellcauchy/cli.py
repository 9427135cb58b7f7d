"""Command-line harness around the verification suite.

Subcommands: verify-all, verify <identity>, degeneration, bench, list.
Exit codes: 0 when every report passed, 1 on a failed check, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
import time

import numpy as np

from . import cauchy, linalg, verify
from .errors import EllCauchyError
from .weierstrass import lattice_new, sigma

_COMPLEX_RE = re.compile(
    r"^(?P<re>[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"(?P<im>[+-]\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)[ij]$"
)

_IDENTITY_DOC = {
    "determinant": "det C(x,y;L) = s(L+X-Y)/s(L) * prod_{a<b} s(x_a-x_b) s(y_b-y_a) / prod_{a,b} s(x_a-y_b)",
    "inverse": "C(x,y;L)^-1 = D(y,x) C(y,x; L+X-Y) D(x,y), entrywise closed form",
    "product": "G_{L+Y}(x,y) G_{L+Z}(y,z) = G_{L+Z}(x,z); K(x,y)K(y,z) = K(x,z) in the parameter-free limit",
    "transposed": "H_{L-X}(x,y) H_{L-Y}(y,z) = -H_{L-X}(x,z) with H_L(x,y) = C(x,y;L) D(y,x)",
    "factorization": "G_{L+Y}(x,y) = g_L(x) g_L(y)^-1 (elliptic/trig/rational); K(x,y) = W(x) W(y)^-1",
    "gauss": "C = U D L with unit upper/lower triangular U, L and diagonal D",
    "monodromy": "multipliers of sigma, sigma_k and Bloch expansions under full-period shifts",
}


def _parse_complex(text):
    """Parse 'a+bi' / 'a-bi' (no spaces); plain reals also accepted."""
    t = text.strip()
    m = _COMPLEX_RE.match(t)
    if m:
        return complex(float(m.group("re")), float(m.group("im")))
    try:
        return complex(float(t))
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed complex literal {text!r}; use a+bi")


def _add_suite_flags(p):
    p.add_argument("--n", type=int, nargs="+", default=list(range(1, 9)), help="matrix sizes")
    p.add_argument("--trials", type=int, default=10, help="trials per size")
    p.add_argument("--seed", type=int, default=42, help="base seed")
    p.add_argument("--tol", type=float, default=1e-8, help="base tolerance for matrix identities")
    p.add_argument(
        "--tau",
        type=_parse_complex,
        default=0.3 + 0.7j,
        help="lattice ratio omega'/omega as a+bi (omega = 1)",
    )
    p.add_argument(
        "--kernel",
        choices=["elliptic", "trig", "rational", "all"],
        default="all",
    )
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--out", default=None, help="write the report to this file instead of stdout")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="ellcauchy",
        description="verify the elliptic Cauchy matrix identities on seeded random instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-all", help="run every identity checker")
    _add_suite_flags(p)

    p = sub.add_parser("verify", help="run a single identity checker")
    p.add_argument("identity", choices=sorted(verify.IDENTITIES))
    _add_suite_flags(p)

    p = sub.add_parser("degeneration", help="run the trig/rational limit checks")
    _add_suite_flags(p)

    p = sub.add_parser("bench", help="time the sigma kernel and each checker (no assertions)")
    p.add_argument("--tau", type=_parse_complex, default=0.3 + 0.7j)
    p.add_argument("--seed", type=int, default=42)

    sub.add_parser("list", help="print the identity catalogue")

    return parser.parse_args(argv)


def _suite_config(args):
    return verify.SuiteConfig(
        n_values=tuple(args.n),
        trials_per_n=args.trials,
        base_seed=args.seed,
        tolerance=args.tol,
        lattice_tau=args.tau,
    )


def _kernel_filter(name):
    return {
        "elliptic": {"elliptic"},
        "trig": {"trig"},
        "rational": {"rational", "k-rational"},
        "all": None,
    }[name]


def _render_text(reports):
    lines = []
    header = f"{'identity':<14} {'kernel':<12} {'n':>3} {'worst rel':>12} {'tol':>9} status"
    lines.append(header)
    lines.append("-" * len(header))
    worst = {}  # (identity, kernel, n) -> [worst rel residual, its tolerance, all passed]
    for r in reports:
        key = (r.identity_name, r.kernel, r.n)
        cur = worst.get(key)
        if cur is None:
            worst[key] = [r.rel_residual, r.tolerance, r.passed]
            continue
        if r.rel_residual > cur[0]:
            cur[0], cur[1] = r.rel_residual, r.tolerance
        cur[2] = cur[2] and r.passed
    for (name, kern, n), (res, tol, ok) in sorted(worst.items()):
        lines.append(f"{name:<14} {kern:<12} {n:>3} {res:>12.3e} {tol:>9.0e} {'pass' if ok else 'FAIL'}")
    failed = sum(not r.passed for r in reports)
    lines.append(f"{len(reports)} checks, {failed} failed")
    return "\n".join(lines) + "\n"


def _render_json(reports):
    return json.dumps([r.to_dict() for r in reports], indent=2) + "\n"


def _render_csv(reports):
    buf = io.StringIO()
    writer = csv.writer(buf)
    fields = [
        "identity_name", "kernel", "n", "seed",
        "abs_residual", "rel_residual", "tolerance", "passed", "elapsed_ms",
    ]
    writer.writerow(fields)
    for r in reports:
        d = r.to_dict()
        writer.writerow([d[f] for f in fields])
    return buf.getvalue()


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_reports(args, identities):
    cfg = _suite_config(args)
    reports = verify.run_suite(cfg, identities=identities, kernels=_kernel_filter(args.kernel))
    renderer = {"text": _render_text, "json": _render_json, "csv": _render_csv}[args.format]
    _emit(renderer(reports), args.out)
    return 0 if all(r.passed for r in reports) else 1


def _bench(args):
    lat = lattice_new(1.0, args.tau)
    rng = np.random.default_rng(args.seed)
    pts = 2 * rng.uniform(-0.4, 0.4, 2000) * lat.omega + 2 * rng.uniform(-0.4, 0.4, 2000) * lat.omega_prime
    t0 = time.perf_counter()
    sigma(lat, pts)
    print(f"{'sigma x2000':<22} {(time.perf_counter() - t0) * 1e3:>10.2f} ms")
    kern = cauchy.elliptic_kernel(lat)
    for n in (4, 8, 16, 32):
        cfg = verify.SuiteConfig(
            n_values=(n,), trials_per_n=1, base_seed=args.seed,
            lattice_tau=args.tau, sep_min=min(0.05, 0.6 / n),
        )
        for name in verify.IDENTITIES:
            tag, with_z = verify._PLAN[name][0]
            try:
                inst = verify.random_instance(cfg, kern, n, args.seed, with_z)
                t0 = time.perf_counter()
                verify._dispatch(name, tag, inst, cfg.tolerance)
                dt = (time.perf_counter() - t0) * 1e3
                print(f"{name + ' n=' + str(n):<22} {dt:>10.2f} ms")
            except EllCauchyError as exc:
                print(f"{name + ' n=' + str(n):<22}        n/a ({type(exc).__name__})")
    return 0


def run(args):
    if args.command == "list":
        for name in sorted(_IDENTITY_DOC):
            print(f"{name:<14} {_IDENTITY_DOC[name]}")
        return 0
    if args.command == "bench":
        return _bench(args)
    if args.command == "verify-all":
        return _run_reports(args, None)
    if args.command == "verify":
        return _run_reports(args, [args.identity])
    if args.command == "degeneration":
        return _run_reports(args, ["degeneration"])
    raise AssertionError(args.command)


def main(argv=None):
    args = parse_args(argv if argv is not None else sys.argv[1:])
    try:
        return run(args)
    except EllCauchyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
