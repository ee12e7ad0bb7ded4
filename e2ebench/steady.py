#!/usr/bin/env python3
"""Runs one workload k times and reports how steady its metrics are.

    python3 e2ebench/steady.py --workload retrain_mixed --seed 1 --runs 5
    python3 e2ebench/steady.py --workload train_disk --seed 1 --runs 10 --vary-seed
    python3 e2ebench/steady.py --workload train_disk --seed 1 --runs 3 --overhead

Run from the repository root. For each end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) /
median against the metric's bound in BENCHMARK.json. With --vary-seed run i
uses seed + i, as a regression gate does; otherwise every run uses --seed.
With --overhead every run is made twice, untraced and traced, and the script
reports the end-to-end metrics of both (the traced run prints them on
stderr) and whether their trees and labels (the digest line) are identical.
Every run's host line (nproc, inference kernel, SIMD, compiler and flags) is
printed too.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    """One benchmark run; returns (result, e2e metrics, host, digest)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"run failed: seed {seed} trace {trace}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    host = next((l[len("host: "):] for l in lines if l.startswith("host: ")),
                "?")
    digest = next((l.split()[1] for l in lines if l.startswith("digest: ")),
                  "?")
    e2e = {}
    for line in proc.stderr.splitlines():
        if line.startswith("e2e: "):
            e2e = {k: v["value"] for k, v in json.loads(line[5:]).items()}
        elif line.startswith("CHECK FAILED") or line.startswith("note: "):
            print(f"  seed {seed}: {line}")
    return result, e2e, host, digest


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--vary-seed", action="store_true")
    parser.add_argument("--overhead", action="store_true")
    parser.add_argument("--verbose", action="store_true",
                        help="print every run's value of each metric")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args()

    spec = json.load(open(os.path.join(os.path.dirname(HERE),
                                       "BENCHMARK.json")))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    values = {name: [] for name in bounds}
    traced = {name: [] for name in bounds}
    shares, hosts = set(), set()
    for i in range(args.runs):
        seed = args.seed + i if args.vary_seed else args.seed
        result, _, host, digest = run_once(args.workload, seed, seconds, 0)
        hosts.add(host)
        shares.add(f"{result['failed']}/{result['attempted']}"
                   if result["failed"] else "0")
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        line = (f"run {i + 1}: seed {seed} correct {result['correct']} "
                f"attempted {result['attempted']} failed {result['failed']}")
        if args.overhead:
            t_result, t_e2e, _, t_digest = run_once(args.workload, seed,
                                                    seconds, 1)
            for name in bounds:
                traced[name].append(t_e2e[name])
            line += (f" | traced correct {t_result['correct']} digest "
                     f"{'same' if t_digest == digest else 'DIFFERENT'}")
        print(line, flush=True)

    print("host:", *sorted(hosts), sep="\n  ")
    print(f"failed share per run: {sorted(shares)}")
    print(f"{'metric':24} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6} {'ok':>4}")
    for name, m in bounds.items():
        med, q1, q3, s = spread(values[name])
        ok = name == "setup_s" or s <= m["bound"]
        print(f"{name:24} {med:14.6g} {q1:14.6g} {q3:14.6g} {s:8.4f} "
              f"{m['bound']:6.2f} {'yes' if ok else 'NO':>4}")
        if args.verbose:
            print("    " + " ".join(f"{v:.5g}" for v in values[name]))
    if args.overhead:
        print(f"\n{'metric':24} {'untraced':>14} {'traced':>14} "
              f"{'traced/untraced':>16}")
        for name in bounds:
            a = statistics.median(values[name])
            b = statistics.median(traced[name])
            print(f"{name:24} {a:14.6g} {b:14.6g} {b / a if a else 0:16.4f}")


if __name__ == "__main__":
    main()
