#!/usr/bin/env python3
"""Steadiness mode: runs one workload several times, one seed per run,
and prints each metric's median, quartiles, spread and half-gap.

Usage, from the root of the repository:

    python3 perfbench/steady.py --workload <name> [--runs 10] [--first-seed 1]
                                [--seconds 25]

For each metric it prints the median, the first and third quartiles
(Python's statistics.quantiles(values, n=4)), the spread (Q3 - Q1) as a
share of the median, and the gap between the medians of the first and
second half of the runs as a share of the first half's median. The
bounds in BENCHMARK.json are set from this output: a bound must be at
least three times the spread.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    args = ap.parse_args()

    results = []
    for k in range(args.runs):
        seed = args.first_seed + k
        r = run_once(args.workload, seed, args.seconds)
        results.append(r)
        if not r["correct"]:
            raise SystemExit(f"seed {seed}: output check failed")
        print(f"seed {seed}: attempted {r['attempted']} failed {r['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
              file=sys.stderr)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {args.runs} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, {args.seconds} s each, "
          f"failed share(s) {sorted(shares)}")
    print(f"{'metric':34} {'unit':8} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'half-gap':>8}")
    half = args.runs // 2
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        a, b = statistics.median(values[:half] or values), statistics.median(values[half:])
        spread = (q3 - q1) / med if med else float("nan")
        gap = (b - a) / a if a else float("nan")
        print(f"{name:34} {first['unit']:8} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.2%} {gap:+8.2%}")


if __name__ == "__main__":
    main()
