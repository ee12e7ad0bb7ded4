#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the current directory, optimised (CMake Release); scratch
files go to a per-run work directory beside it and are removed afterwards.
The last line of standard output is the benchmark's JSON result. Exits
non-zero, without a result, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("train_disk", "retrain_mixed")


def build(build_root):
    """Configures (once) and builds the benchmark; returns the binary path."""
    build_dir = os.path.join(build_root, "e2ebench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "e2ebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or ".bench_build")
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    work = os.path.join(build_root, "work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work]
    if args.trace == "1":
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        print(f"run.py: benchmark exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
