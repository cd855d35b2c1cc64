#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's end-to-end metrics.

Runs `benchmark/run.sh --trace 0` once per seed 0..RUNS-1 for each workload,
at `run_seconds` from BENCHMARK.json, and prints per metric the median and
the quartile spread (Q3 - Q1) / median of the values, with quartiles as
`statistics.quantiles(values, n=4)` gives them. The workloads take turns
seed by seed, so a slow period of the host is shared among them rather than
landing on one workload's whole set. Run from the repository root:

    python3 benchmark/spread.py [--runs 10] [WORKLOAD...]
"""

import argparse
import json
import statistics
import subprocess


def run(workload, seed, seconds):
    out = subprocess.run(
        ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    runs = {w: [] for w in args.workloads}
    for seed in range(args.runs):
        for workload in args.workloads:
            runs[workload].append(run(workload, seed, seconds))
    for workload, results in runs.items():
        print(f"## {workload}: {args.runs} runs, seeds 0..{args.runs - 1}, {seconds} s each")
        for name in results[0]:
            values = [r[name] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{name:28} median {med:<14.6g} spread {spread:.4f}  "
                  + " ".join(f"{v:.4g}" for v in values))
        print(flush=True)


if __name__ == "__main__":
    main()
