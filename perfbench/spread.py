#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each end-to-end
metric's median and run-to-run spread (interquartile range over median).

    python3 perfbench/spread.py --workload golden_mix --runs 10 [--seconds 25]

Run from the repository root.  The binary is built first (release), then
run once per seed 1..runs; the last stdout line of each run is parsed,
and the validity-check lines (host steal, other processes' CPU share,
open-loop generator lag) are summarised, so a disturbed set shows.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    cmd = ["cargo", "run", "--release", "--quiet", "--offline",
           "--manifest-path", "perfbench/Cargo.toml", "--"]
    values = {}
    checks = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            cmd + ["--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"],
            check=True, stdout=subprocess.PIPE, text=True).stdout
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines:
            if line.endswith("(validity check)"):
                name, rest = line.split(" = ", 1)
                checks.setdefault(name, []).append(float(rest.split()[0]))
        if not result["correct"]:
            sys.exit(f"seed {seed}: replies disagree with the evaluator")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.4g}" for k, m in sorted(result["metrics"].items())),
            flush=True)
    for name, xs in sorted(checks.items()):
        print(f"{name} (validity check): median {statistics.median(xs):.4g}  "
              f"max {max(xs):.4g}")
    for name, xs in sorted(values.items()):
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        med = statistics.median(xs)
        print(f"{name}: median {med:.6g}  spread {(q3 - q1) / med:.4f}  "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n {len(xs)})")


if __name__ == "__main__":
    main()
