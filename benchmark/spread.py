#!/usr/bin/env python3
"""Steadiness check of the benchmark, as the acceptance driver computes it.

Runs the command of BENCHMARK.json ten times per workload, each time with
another seed, and prints for every end-to-end metric the distance between the
first and third quartile of the ten values as a share of their median, next to
the metric's bound. Run from the repository root:

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload NAME]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    worst = 0.0
    for w in workloads:
        values = {name: [] for name in bounds}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            t = time.time()
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            walls.append(time.time() - t)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed}: incorrect result {result}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{w}: {args.runs} runs, {statistics.median(walls):.1f} s each (max {max(walls):.1f})")
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            share = spread / bounds[name]
            if name != "setup_s":
                worst = max(worst, share)
            print(f"  {name:<14} median {med:>12.5f}  spread {spread:7.4f}  "
                  f"bound {bounds[name]:.2f}  spread/bound {share:5.2f}  "
                  f"runs {' '.join(f'{v:.4g}' for v in vs)}")
    print(f"worst spread/bound outside setup_s: {worst:.2f} "
          f"(accepted up to 1, aim below 0.33)")


if __name__ == "__main__":
    main()
