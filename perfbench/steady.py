#!/usr/bin/env python3
"""Steadiness check: runs one workload N times, each in a fresh process.

Usage (from the repository root):
  python3 perfbench/steady.py --workload <name> [--runs 10] [--first-seed 1]
                              [--seconds <s>] [--trace]

Before the timed runs, one warm-up run (seed 0) builds the benchmark and
warms the file cache; it is not counted. Each timed run uses its own seed.
For every end-to-end metric the script prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median against the
metric's bound in BENCHMARK.json; a spread above a third of the bound is
flagged (setup_s is a single cold sample per run and is judged on its
median only). With --trace it also runs a traced run per seed and prints
the per-layer medians and the tracing overhead: traced minus untraced
median of each end-to-end metric.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace",
         "1" if trace else "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    if proc.returncode != 0:
        sys.exit(f"run failed: {workload} seed {seed} trace {trace}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"incorrect answers: {workload} seed {seed}")
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    run_once(args.workload, 0, seconds, False)  # warm-up, not counted

    seeds = range(args.first_seed, args.first_seed + args.runs)
    results = [run_once(args.workload, s, seconds, False) for s in seeds]
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {args.runs} runs, seeds {seeds.start}.."
          f"{seeds.stop - 1}, {seconds} s each, failed share(s) {sorted(shares)}")
    print(f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    medians = {}
    for name, metric in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        med, q1, q3, spread = summarize(values)
        medians[name] = med
        flag = ""
        if name != "setup_s" and spread > metric["bound"] / 3:
            flag = "  <-- above bound/3"
        print(f"{name:24} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:7.3f} {metric['bound']:6.2f}{flag}")

    if not args.trace:
        return
    traced = [run_once(args.workload, s, seconds, True) for s in seeds]
    print("\nper-layer (traced runs)")
    for name in sorted(traced[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in traced]
        unit = traced[0]["metrics"][name]["unit"]
        print(f"{name:34} {statistics.median(values):12.6g} {unit}")
    print("\ntracing overhead (traced - untraced median)")
    out = ROOT / ".bench_out"
    traced_e2e = [
        json.loads((out / f"{args.workload}-seed{s}.traced_e2e.json")
                   .read_text())["metrics"] for s in seeds]
    for name in bounds:
        med = statistics.median(m[name]["value"] for m in traced_e2e)
        delta = med - medians[name]
        print(f"{name:24} {delta:+12.6g} ({delta / medians[name]:+.1%})")


if __name__ == "__main__":
    main()
