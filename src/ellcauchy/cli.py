"""Command-line harness around the verification suite.

Subcommands: verify-all, verify <identity> (any registry entry, the
degeneration limits among them), bench, list.
Exit codes: 0 when every report passed, 1 on a failed check, 2 on usage
errors and on a selection that contains no checks.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
import re
import sys
import time

import numpy as np

from . import cauchy, linalg, verify
from .errors import EllCauchyError
from .weierstrass import sigma

#: an unsigned decimal, with or without digits before its point
_DECIMAL = r"(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?"
#: a+bi or a-bi, or a purely imaginary bi or -bi
_COMPLEX_RE = re.compile(rf"^(?:(?P<re>[+-]?{_DECIMAL})(?=[+-]))?(?P<im>[+-]?{_DECIMAL})[ij]$")

#: the suite settings the flags default to
_DEFAULTS = verify.SuiteConfig()


def _parse_complex(text):
    """Parse 'a+bi', 'a-bi', 'bi' or '-bi' (no spaces; a number may start
    at its decimal point); plain reals also accepted."""
    t = text.strip()
    m = _COMPLEX_RE.match(t)
    if m:
        return complex(float(m.group("re") or 0.0), float(m.group("im")))
    try:
        return complex(float(t))
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed complex literal {text!r}; use a+bi or bi")


def _add_suite_flags(p):
    p.add_argument("--n", type=int, nargs="+", default=list(_DEFAULTS.n_values), help="matrix sizes")
    p.add_argument("--trials", type=int, default=_DEFAULTS.trials_per_n, help="trials per size")
    p.add_argument("--seed", type=int, default=_DEFAULTS.base_seed, help="base seed")
    p.add_argument("--tol", type=float, default=_DEFAULTS.tolerance, help="base tolerance for matrix identities")
    p.add_argument(
        "--tau",
        type=_parse_complex,
        default=_DEFAULTS.lattice_tau,
        help="lattice ratio omega'/omega as a+bi (omega = 1)",
    )
    p.add_argument("--kernel", choices=[*cauchy.KERNELS, "all"], default="all")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--out", default=None, help="write the report to this file instead of stdout")


@functools.cache
def _parser():
    """The process's one argument parser, built on first use."""
    parser = argparse.ArgumentParser(
        prog="ellcauchy",
        description="verify the elliptic Cauchy matrix identities on seeded random instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-all", help="run every identity checker")
    _add_suite_flags(p)

    p = sub.add_parser("verify", help="run a single identity checker")
    p.add_argument("identity", choices=sorted(verify.REGISTRY))
    _add_suite_flags(p)

    p = sub.add_parser("bench", help="time the sigma kernel, the sampler and each checker (no assertions)")
    p.add_argument("--tau", type=_parse_complex, default=_DEFAULTS.lattice_tau)
    p.add_argument("--seed", type=int, default=_DEFAULTS.base_seed)

    sub.add_parser("list", help="print the identity catalogue")
    return parser


def parse_args(argv):
    """Parse ``argv`` with the one parser.  Each parse gets its own copy of
    a list default (``--n``'s), so no run can change the next one's."""
    args = _parser().parse_args(argv)
    vars(args).update({k: list(v) for k, v in vars(args).items() if isinstance(v, list)})
    return args


def _render_text(reports):
    header = f"{'identity':<14} {'kernel':<12} {'n':>3} {'worst rel':>12} {'tol':>9} status"
    lines = [header, "-" * len(header)]
    worst = {}  # (identity, kernel, n) -> [worst rel residual, its tolerance, all passed]
    for r in reports:
        cur = worst.setdefault((r.identity_name, r.kernel, r.n), [-math.inf, r.tolerance, True])
        # a NaN residual is the worst, as in verify._worst
        if r.rel_residual > cur[0] or math.isnan(r.rel_residual):
            cur[0], cur[1] = r.rel_residual, r.tolerance
        cur[2] = cur[2] and r.passed
    for (name, kern, n), (res, tol, ok) in sorted(worst.items()):
        lines.append(f"{name:<14} {kern:<12} {n:>3} {res:>12.3e} {tol:>9.0e} {'pass' if ok else 'FAIL'}")
    failed = sum(not r.passed for r in reports)
    lines.append(f"{len(reports)} checks, {failed} failed")
    return "\n".join(lines) + "\n"


def _render_json(reports):
    """Strict JSON (RFC 8259): a non-finite float is written as null."""
    rows = [{k: None if isinstance(v, float) and not np.isfinite(v) else v for k, v in r.to_dict().items()}
            for r in reports]
    return json.dumps(rows, indent=2, allow_nan=False) + "\n"


def _render_csv(reports):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(f.name for f in dataclasses.fields(verify.Report))
    writer.writerows(dataclasses.astuple(r) for r in reports)
    return buf.getvalue()


def _error(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def _run_reports(args, identities):
    try:
        cfg = verify.SuiteConfig(
            n_values=tuple(args.n), trials_per_n=args.trials, base_seed=args.seed,
            tolerance=args.tol, lattice_tau=args.tau,
        )
    except ValueError as exc:
        return _error(exc)
    kernels = None if args.kernel == "all" else {args.kernel}
    # open --out first, so an unwritable path fails before the suite runs;
    # an aborted run or an empty selection leaves the file empty
    try:
        out = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        return _error(exc)
    with out as fh:
        reports = verify.run_suite(cfg, identities=identities, kernels=kernels)
        if not reports:
            return _error("no checks selected: no identity runs on this kernel at these sizes")
        fh.write({"text": _render_text, "json": _render_json, "csv": _render_csv}[args.format](reports))
    return 0 if all(r.passed for r in reports) else 1


def _bench(args):
    # every setting is checked, as the suite checks it, before anything is drawn
    try:
        cfgs = [
            verify.SuiteConfig(
                n_values=(n,), trials_per_n=1, base_seed=args.seed,
                lattice_tau=args.tau, sep_min=min(_DEFAULTS.sep_min, 0.6 / n),
            )
            for n in (4, 8, 16, 32)
        ]
    except ValueError as exc:
        return _error(exc)
    lat = cfgs[0].lattice()
    # 2000 points of the elliptic sampler's cell, from the sampler's stream
    u, v = verify._stream(verify._stream_keys([args.seed]), 0, 4000).reshape(2, -1)
    pts = cauchy.KERNELS["elliptic"].points(lat, u, v)
    t0 = time.perf_counter()
    sigma(lat, pts)
    print(f"{'sigma x2000':<22} {(time.perf_counter() - t0) * 1e3:>10.2f} ms")
    for cfg in cfgs:
        (n,) = cfg.n_values
        sampled = {}
        for name, ident in verify.REGISTRY.items():
            label = f"{name} n={n}"
            tag, variant = ident.plan[0]
            try:
                if variant not in sampled:
                    t0 = time.perf_counter()
                    sampled[variant] = verify.random_instance(cfg, cauchy.Kernel(variant, lat), n, args.seed)
                    dt = (time.perf_counter() - t0) * 1e3
                    print(f"{f'sample {variant} n={n}':<22} {dt:>10.2f} ms")
                # the same points on a fresh instance, whose empty memo and
                # store credit no check with kernel values or products that
                # an earlier one computed
                inst = dataclasses.replace(sampled[variant])
                t0 = time.perf_counter()
                ident.check(inst, tag, cfg.tolerance)
                dt = (time.perf_counter() - t0) * 1e3
                print(f"{label:<22} {dt:>10.2f} ms")
            except EllCauchyError as exc:
                print(f"{label:<22}        n/a ({type(exc).__name__})")
    return 0


def run(args):
    if args.command == "list":
        for name in sorted(verify.REGISTRY):
            print(f"{name:<14} {verify.REGISTRY[name].doc}")
        return 0
    if args.command == "bench":
        return _bench(args)
    if args.command == "verify-all":
        return _run_reports(args, None)
    if args.command == "verify":
        return _run_reports(args, [args.identity])
    raise AssertionError(args.command)


def main(argv=None):
    args = parse_args(argv if argv is not None else sys.argv[1:])
    try:
        return run(args)
    except EllCauchyError as exc:
        return _error(exc)


if __name__ == "__main__":
    sys.exit(main())
