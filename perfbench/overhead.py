#!/usr/bin/env python3
"""Reports the tracing overhead of every workload: traced minus untraced.

Runs each workload of BENCHMARK.json with --trace 0 and --trace 1 at the same
seed, alternating which mode goes first, and prints the median p50 latency
and throughput of both modes with their difference. Run from the repository
root:

    python3 perfbench/overhead.py [--seed N] [--seconds S] [--pairs P]
"""
import argparse
import json
import statistics
import subprocess


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True)
    m = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    if trace:
        return m["trace.latency_p50_ms"]["value"], m["trace.throughput_ops_s"]["value"]
    return m["latency_p50_ms"]["value"], m["throughput_ops_s"]["value"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--pairs", type=int, default=3)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    print(f"{'workload':16s} {'p50 untraced':>12s} {'p50 traced':>11s} {'delta':>8s}"
          f" {'ops/s untraced':>15s} {'ops/s traced':>13s} {'delta':>8s}")
    for w in workloads:
        res = {0: [], 1: []}
        for i in range(args.pairs):
            for trace in ((0, 1) if i % 2 == 0 else (1, 0)):
                res[trace].append(run(w, args.seed, args.seconds, trace))
        p50 = [statistics.median(x[0] for x in res[t]) for t in (0, 1)]
        ops = [statistics.median(x[1] for x in res[t]) for t in (0, 1)]
        print(f"{w:16s} {p50[0]:12.4f} {p50[1]:11.4f} {(p50[1] - p50[0]) / p50[0]:+8.1%}"
              f" {ops[0]:15.2f} {ops[1]:13.2f} {(ops[1] - ops[0]) / ops[0]:+8.1%}")


if __name__ == "__main__":
    main()
