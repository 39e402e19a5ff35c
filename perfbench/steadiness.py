#!/usr/bin/env python3
"""Run every workload of the benchmark N times, each with its own seed,
and print, per end-to-end metric, the median, the quartiles and the
spread (interquartile distance as a share of the median), next to the
metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steadiness.py [--runs 10]

Every workload of BENCHMARK.json runs at its run_seconds, with seeds
1..N.

Quartiles are Python's statistics.quantiles(values, n=4). A spread
within a third of its bound is marked "steady". The failed share of
attempted operations must be the same in every run.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                 f"{proc.stdout[-4000:]}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in (w["name"] for w in bench["workloads"]):
        values = {}
        shares = set()
        for i in range(opts.runs):
            seed = 1 + i
            result = run_once(bench["command"], workload, seed, seconds)
            shares.add((result["failed"] / result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
                flush=True)
        print(f"{workload}: {opts.runs} runs of {seconds} s, failed share "
              f"{'same in every run' if len(shares) == 1 else 'VARIES'} ({sorted(shares)})")
        print(f"  {'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med
            bound = bounds[name]
            verdict = "steady" if spread <= bound / 3 else (
                "within bound" if spread <= bound else "OVER BOUND")
            print(f"  {name:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {bound:>6} {verdict}")


if __name__ == "__main__":
    main()
