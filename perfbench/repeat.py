"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --workload elliptic-dense --seeds 1 2 3 4 5 --seconds 30

For every metric it prints the median of the per-run values, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and their distance as
a share of the median; end-to-end metrics also show their bound.  ``--json``
writes the per-run results, with the summary lines each run printed, and the
summary to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import END_TO_END

RUN = Path(__file__).resolve().parent / "run.py"


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", type=Path, default=None)
    args = p.parse_args(argv)

    runs = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=True, capture_output=True, text=True,
        ).stdout
        *lines, last = out.strip().splitlines()
        result = json.loads(last)
        runs.append({"seed": seed, **result, "lines": lines})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)

    bounds = {name: bound for name, _, _, bound in END_TO_END}
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        summary[name] = summarise(values) if len(values) > 1 else {"median": values[0]}
        s = summary[name]
        line = f"{name:<40} median {s['median']:<14.6g}"
        if "q1" in s:
            line += f" q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g}"
            if s["spread"] is not None:
                line += f" spread {s['spread']:.4f}"
        if name in bounds:
            line += f" bound {bounds[name]}"
        print(line)
    if args.json:
        args.json.write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
             "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
